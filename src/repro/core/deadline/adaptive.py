"""Adaptive re-solving policy: the Fig. 10 holiday fix.

Wraps the Section 3 machinery in an online loop: at each decision interval
the policy (a) folds the previous interval's realized arrival count into an
:class:`~repro.market.adaptive.AdaptiveRatePredictor`, and (b) re-solves
the *remaining-horizon* MDP under the corrected forecast before posting a
price.  On ordinary days the correction hovers at 1.0 and the policy
matches the statically trained table; on a consistently deviating day
(the paper's 1/1 holiday) the correction converges within a few intervals
and the re-solved prices compensate.

Re-solving every interval costs one suffix DP per interval; a cache keyed
by (interval, quantized factor) keeps repeated factors free, and
``resolve_every`` trades adaptivity for compute.  Each re-solve runs on the
production batch kernel (:func:`~repro.core.batch.deadline.solve_deadline_batch`
as a batch of one), whose per-solve pmf memo makes a stationary-forecast
suffix pay for its Poisson pmfs once rather than once per interval.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch.deadline import solve_deadline_batch
from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy
from repro.market.adaptive import AdaptiveRatePredictor
from repro.sim.policies import PricingRuntime

__all__ = ["AdaptiveRepricer", "solve_deadline"]


def solve_deadline(problem: DeadlineProblem) -> DeadlinePolicy:
    """Solve one suffix MDP on the batch kernel (a batch of one).

    :meth:`AdaptiveRepricer._solve_suffix` looks this name up at call
    time, so profilers and tests can wrap or replace the re-solve here.
    """
    return solve_deadline_batch([problem])[0]


class AdaptiveRepricer(PricingRuntime):
    """Online deadline pricing with arrival-rate level correction.

    Parameters
    ----------
    problem:
        The trained instance — its ``arrival_means`` are the *baseline*
        forecast; acceptance model, grid, and penalty are reused for every
        re-solve.
    predictor:
        Rate predictor; defaults to an EWMA level corrector over the
        problem's baseline means.
    resolve_every:
        Re-solve the suffix MDP only when this many intervals have elapsed
        since the last solve (1 = every interval).
    factor_quantum:
        Correction factors are rounded to this granularity for the solve
        cache; 0.05 keeps the cache tight without visible price impact.
    """

    def __init__(
        self,
        problem: DeadlineProblem,
        predictor: AdaptiveRatePredictor | None = None,
        resolve_every: int = 1,
        factor_quantum: float = 0.05,
    ):
        if resolve_every < 1:
            raise ValueError(f"resolve_every must be >= 1, got {resolve_every}")
        if factor_quantum <= 0:
            raise ValueError(f"factor_quantum must be positive, got {factor_quantum}")
        self.problem = problem
        self.predictor = predictor or AdaptiveRatePredictor(problem.arrival_means)
        self.resolve_every = resolve_every
        self.factor_quantum = factor_quantum
        self._cache: dict[tuple[int, float], np.ndarray] = {}
        self._active_price_col: np.ndarray | None = None
        self._active_key: tuple[int, float] | None = None
        self.num_solves = 0

    # ------------------------------------------------------------------
    # PricingRuntime interface
    # ------------------------------------------------------------------
    def price(self, remaining: int, interval: int) -> float:
        """Reward for ``remaining`` open tasks at ``interval``.

        Prices come from the suffix solve anchored at the most recent
        re-solve interval (per ``resolve_every``), evaluated at the current
        correction factor.
        """
        if remaining <= 0:
            raise ValueError(f"remaining must be positive, got {remaining}")
        t = min(max(interval, 0), self.problem.num_intervals - 1)
        anchor = (t // self.resolve_every) * self.resolve_every
        # The correction factor is sampled once per anchor: within an
        # anchor window the policy stays put, which is what resolve_every
        # trades away for compute.
        if self._active_key is None or self._active_key[0] != anchor:
            key = (anchor, self._quantized_factor())
            self._active_price_col = self._solve_suffix(anchor, key)
            self._active_key = key
        n = min(remaining, self.problem.num_tasks)
        # The suffix table's column for the *current* interval is offset by
        # the anchor.
        column = self._active_price_col[:, t - anchor]
        return float(self.problem.price_grid[column[n]])

    def observe(self, interval: int, arrivals: float) -> None:
        """Feed one interval's realized marketplace arrival count."""
        self.predictor.observe(interval, arrivals)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _quantized_factor(self) -> float:
        quanta = round(self.predictor.factor / self.factor_quantum)
        return max(quanta, 1) * self.factor_quantum

    def _solve_suffix(self, anchor: int, key: tuple[int, float]) -> np.ndarray:
        if key in self._cache:
            return self._cache[key]
        _, factor = key
        suffix_means = self.problem.arrival_means[anchor:] * factor
        suffix_problem = self.problem.with_arrival_means(suffix_means)
        policy = solve_deadline(suffix_problem)
        self.num_solves += 1
        self._cache[key] = policy.price_index
        return policy.price_index

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the repricer's mutable state for a checkpoint.

        Returns a dict with the predictor's level-correction state, the
        solve counter, the active ``(anchor, factor)`` key, and the suffix
        solve cache (key -> price-index table).  Together with the
        immutable planning problem — which a resume rebuilds from the
        campaign spec — this is everything needed to continue pricing
        bit-identically: restoring the cache keeps already-performed
        suffix solves free (so ``num_solves`` stays exact), and restoring
        the active key pins the anchor window's factor at the value it was
        sampled at rather than re-sampling the drifted current factor.
        """
        factor, observations = self.predictor.export_state()
        return {
            "factor": factor,
            "observations": observations,
            "num_solves": self.num_solves,
            "active_key": self._active_key,
            "cache": dict(self._cache),
        }

    def import_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` (checkpoint resume)."""
        self.predictor.import_state(state["factor"], state["observations"])
        self.num_solves = int(state["num_solves"])
        self._cache = {
            (int(anchor), float(factor)): np.asarray(table)
            for (anchor, factor), table in state["cache"].items()
        }
        key = state["active_key"]
        if key is None:
            self._active_key = None
            self._active_price_col = None
        else:
            key = (int(key[0]), float(key[1]))
            if key not in self._cache:
                raise ValueError(
                    f"active repricer key {key} missing from the restored "
                    "solve cache"
                )
            self._active_key = key
            self._active_price_col = self._cache[key]

    def __repr__(self) -> str:
        return (
            f"AdaptiveRepricer(factor={self.predictor.factor:.2f}, "
            f"solves={self.num_solves})"
        )
