"""Vectorized production solver for the fixed-deadline MDP.

Implements exactly the Algorithm 1 recurrence, but evaluates a whole time
layer at once:  for each interval ``t`` and each grid price ``c`` the
continuation term

    sum_{s <= n} Pois(s | lam_t p(c)) * Opt(n - s, t + 1)

is a (truncated) discrete convolution of the next layer's value vector with
the completion-count pmf — one ``numpy.convolve`` per (interval, price) —
and the payment term decomposes into running sums of ``s * pmf[s]`` plus an
absorbing tail paying ``n * c``.  The result matches
:func:`repro.core.deadline.simple_dp.solve_deadline_simple` — the same
price table (ties broken toward lower prices in both) and values equal to
float tolerance (the equivalence suite asserts ``allclose`` with
``rtol = atol = 1e-12``; summation order differs) — at a fraction of the
cost.  The adaptive repricer's re-solves run on the batch kernel instead
(:mod:`repro.core.deadline.adaptive`).
"""

from __future__ import annotations

import numpy as np

from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy
from repro.core.deadline.truncation import transition_pmf

__all__ = ["solve_deadline"]


def _layer_costs(
    problem: DeadlineProblem, lam_t: float, opt_next: np.ndarray
) -> np.ndarray:
    """Return the cost matrix ``costs[j, n]`` for one time layer.

    ``costs[j, n]`` is the expected cost-to-go of posting grid price ``j``
    at a state with ``n`` remaining tasks, given the next layer's values.
    Row entries for ``n = 0`` are zero (no decision to make).
    """
    n_tasks = problem.num_tasks
    probs = problem.acceptance_probabilities()
    costs = np.empty((problem.num_prices, n_tasks + 1))
    n_range = np.arange(n_tasks + 1)
    for j, (price, p) in enumerate(zip(problem.price_grid, probs)):
        mean = lam_t * p
        pmf = transition_pmf(float(mean), problem.truncation_eps, n_tasks)
        length = pmf.size
        # Continuation: conv[n] = sum_{s=0}^{min(n, L-1)} pmf[s] opt_next[n-s];
        # outcomes s >= n land in the absorbing state with value 0, and
        # opt_next[0] == 0, so the plain convolution head is already right.
        conv = np.convolve(opt_next, pmf)[: n_tasks + 1]
        prob_cum = np.cumsum(pmf)
        paid_cum = np.cumsum(pmf * np.arange(length))
        # For state n the head covers s = 0 .. min(n-1, L-1).
        k = np.minimum(n_range - 1, length - 1)
        head_prob = np.where(k >= 0, prob_cum[np.maximum(k, 0)], 0.0)
        head_paid = np.where(k >= 0, paid_cum[np.maximum(k, 0)], 0.0)
        tail = np.maximum(0.0, 1.0 - head_prob)
        costs[j] = price * (head_paid + n_range * tail) + conv
        costs[j, 0] = 0.0
    return costs


def solve_deadline(problem: DeadlineProblem) -> DeadlinePolicy:
    """Solve the fixed-deadline MDP (Section 3.1), vectorized.

    Returns Algorithm 1's table, values to float tolerance.  Complexity
    per time layer is ``O(C * N * s0)`` with ``s0`` the truncation
    cut-off — the Section 3.2 speed-up falls out of the shortened
    convolutions.
    """
    n_tasks = problem.num_tasks
    n_intervals = problem.num_intervals
    opt = np.zeros((n_tasks + 1, n_intervals + 1))
    price_index = np.zeros((n_tasks + 1, n_intervals), dtype=int)
    opt[:, n_intervals] = problem.penalty.terminal_costs(n_tasks)
    for t in range(n_intervals - 1, -1, -1):
        costs = _layer_costs(problem, float(problem.arrival_means[t]), opt[:, t + 1])
        best = np.argmin(costs, axis=0)  # first minimum = lowest price
        opt[:, t] = costs[best, np.arange(n_tasks + 1)]
        opt[0, t] = 0.0
        price_index[1:, t] = best[1:]
    return DeadlinePolicy(
        problem=problem, opt=opt, price_index=price_index, solver="vectorized"
    )
