"""Fixed-deadline dynamic pricing (Section 3).

The decision problem: ``N`` identical tasks, a deadline split into ``N_T``
equal intervals, per-interval expected marketplace arrivals ``lambda_t``
(Eq. 4), and an acceptance model ``p(c)``.  States are ``(n, t)`` —
remaining tasks and elapsed intervals; actions are prices on a discrete
grid; the number of tasks completed in an interval is
``Pois(lambda_t * p(c))`` (Eq. 5); transition cost is ``s * c`` for ``s``
completions (Eq. 7); unfinished tasks at the deadline incur a penalty.

Three solvers, all computing the same table:

* :func:`solve_deadline_simple` — the literal Algorithm 1 (reference).
* :func:`solve_deadline` — the same recurrence vectorized with numpy via
  truncated convolutions (production solver).
* :func:`solve_deadline_efficient` — Algorithm 2: divide-and-conquer over
  ``n`` exploiting the monotonicity of ``Price(n, t)`` (Conjecture 1).

The online path — :class:`~repro.core.deadline.adaptive.AdaptiveRepricer`
re-solving the remaining horizon mid-flight — runs its re-solves on the
production batch kernel (:func:`repro.core.batch.solve_deadline_batch`,
a batch of one), the same kernel the engine's admission path uses.
"""

from repro.core.deadline.efficient_dp import solve_deadline_efficient
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.penalty import calibrate_penalty
from repro.core.deadline.policy import DeadlinePolicy, ExpectedOutcome, fixed_price_policy
from repro.core.deadline.simple_dp import solve_deadline_simple
from repro.core.deadline.truncation import TruncationErrorBound, truncation_error_bound
from repro.core.deadline.vectorized import solve_deadline

__all__ = [
    "DeadlineProblem",
    "PenaltyScheme",
    "DeadlinePolicy",
    "ExpectedOutcome",
    "fixed_price_policy",
    "solve_deadline",
    "solve_deadline_simple",
    "solve_deadline_efficient",
    "calibrate_penalty",
    "truncation_error_bound",
    "TruncationErrorBound",
]
