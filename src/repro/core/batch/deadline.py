"""Batched fixed-deadline solver: many MDP instances, one backward sweep.

:func:`solve_deadline_batch` groups instances by shape
``(num_tasks, num_intervals, num_prices, truncation_eps)`` and solves each
group as one stacked tensor computation.  Per time layer ``t`` it builds

* the Poisson-mean matrix ``M[b, j] = lam[b, t] * p_b(c_j)``,
* the completion-count pmf tensor ``P[b, j, s]`` (same multiplicative
  recurrence and Section 3.2 truncation cut-offs as
  :func:`repro.util.poisson.truncated_pmf`, applied elementwise), and
* the continuation values as **one batched matrix product**
  ``P @ T_b`` against a Toeplitz view of the next layer's value vectors —
  replacing the ``batch x prices`` individual ``np.convolve`` calls of
  :func:`repro.core.deadline.vectorized.solve_deadline` with a single BLAS
  call per layer.

The first two depend only on the layer's means, so one solve computes
them once per distinct arrival column and reuses them across every layer
that repeats it — under a stationary forecast, once per solve.

The recurrence, truncation lengths, absorbing-tail payment, and
lowest-price tie-breaking all mirror the scalar solvers, so the produced
tables agree with :func:`~repro.core.deadline.vectorized.solve_deadline`
and :func:`~repro.core.deadline.simple_dp.solve_deadline_simple` to float
tolerance; the test suite asserts this on randomized instances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.batch import kernels
from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy

__all__ = ["solve_deadline_batch", "group_key"]

#: Above this Poisson mean the pmf recurrence underflows at ``s = 0``; the
#: scalar path (:func:`repro.util.poisson.poisson_pmf_vector`) switches to
#: log-space there, and the batch kernel mirrors the switch exactly.
_LOG_SPACE_MEAN = kernels.LOG_SPACE_MEAN


def group_key(problem: DeadlineProblem) -> tuple:
    """Batching key: instances sharing it stack into one tensor solve."""
    return (
        problem.num_tasks,
        problem.num_intervals,
        problem.num_prices,
        problem.truncation_eps,
    )


def _solve_group(problems: Sequence[DeadlineProblem]) -> list[DeadlinePolicy]:
    """Solve one same-shaped group of instances as stacked tensors.

    Each backward-induction layer runs on
    :mod:`repro.core.batch.kernels` — the numpy reference by default, the
    numba-compiled twin under ``REPRO_KERNELS=numba``; the two are
    exact-equality-tested, so the selection never changes the produced
    tables.  A layer's pmf terms depend only on its arrival column
    ``lam[:, t]``, so layers repeating a column (every layer of a
    stationary forecast) share one set of terms, held only until the
    column's last (lowest) layer.
    """
    first = problems[0]
    n_tasks = first.num_tasks
    n_intervals = first.num_intervals
    eps = first.truncation_eps
    size = n_tasks + 1  # states 0..N, also the pmf head length
    batch = len(problems)
    lam = np.stack([p.arrival_means for p in problems])  # (B, T)
    prices = np.stack([p.price_grid for p in problems])  # (B, C)
    probs = np.stack([p.acceptance_probabilities() for p in problems])
    opt = np.zeros((batch, size, n_intervals + 1))
    price_index = np.zeros((batch, size, n_intervals), dtype=int)
    opt[:, :, n_intervals] = np.stack(
        [p.penalty.terminal_costs(n_tasks) for p in problems]
    )
    columns = [lam[:, t].tobytes() for t in range(n_intervals)]
    last_use: dict[bytes, int] = {}  # the sweep runs backwards: lowest t
    for t, column in enumerate(columns):
        last_use.setdefault(column, t)
    memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for t in range(n_intervals - 1, -1, -1):
        column = columns[t]
        terms = memo.pop(column, None)
        if terms is None:
            terms = kernels.deadline_layer_terms(lam[:, t], probs, n_tasks, eps)
        if last_use[column] != t:
            memo[column] = terms
        opt_t, best = kernels.deadline_layer_apply(
            terms, prices, opt[:, :, t + 1]
        )
        opt[:, :, t] = opt_t
        price_index[:, 1:, t] = best[:, 1:]
    return [
        DeadlinePolicy(
            problem=problem,
            opt=opt[b],
            price_index=price_index[b],
            solver="batch",
        )
        for b, problem in enumerate(problems)
    ]


def solve_deadline_batch(
    problems: Sequence[DeadlineProblem],
) -> list[DeadlinePolicy]:
    """Solve many fixed-deadline MDP instances in stacked array passes.

    Parameters
    ----------
    problems:
        Deadline instances of any mix of shapes.  Instances sharing
        ``(num_tasks, num_intervals, num_prices, truncation_eps)`` are
        solved together in one tensor sweep; singleton shapes degrade to
        a batch of one (still the batched kernel, still correct).

    Returns
    -------
    list[DeadlinePolicy]
        Solved policies in the same order as ``problems``, each tagged
        ``solver="batch"``.
    """
    if not problems:
        return []
    groups: dict[tuple, list[int]] = {}
    for i, problem in enumerate(problems):
        groups.setdefault(group_key(problem), []).append(i)
    out: list[DeadlinePolicy | None] = [None] * len(problems)
    for indices in groups.values():
        solved = _solve_group([problems[i] for i in indices])
        for i, policy in zip(indices, solved):
            out[i] = policy
    return out  # type: ignore[return-value]
