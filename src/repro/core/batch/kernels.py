"""Compiled hot kernels behind the ``REPRO_KERNELS`` feature flag.

The engine's three hottest inner loops — the batched deadline
value-iteration layer (:func:`deadline_layer`, in two halves:
:func:`deadline_layer_terms` and :func:`deadline_layer_apply`), the
budget solver's lower convex hull (:func:`lower_hull_indices`), and the
sharded tick's completion application (:func:`shard_tick`) — each exist
twice here:

* a **numpy** implementation (the reference: exactly the arithmetic the
  vectorized solvers have always performed, in the same operation order),
  and
* a **numba**-compiled implementation of the same algorithm, written so
  every floating-point operation happens in the same order as the numpy
  path (sequential pmf recurrences, sequential cumulative sums, the
  continuation product routed through the same BLAS ``dot``) — the
  differential suite (``tests/core/batch/test_kernel_equivalence.py``)
  asserts **exact** equality between the two over randomized shapes, and
  the engine-level matrix suite asserts bit-identical
  :class:`~repro.engine.clock.EngineResult` under either.

Selection is environmental, never structural: ``REPRO_KERNELS=numba``
requests the compiled path, ``REPRO_KERNELS=numpy`` (or unset) pins the
reference, and ``REPRO_KERNELS=auto`` compiles when :mod:`numba` is
importable.  When numba is requested but **absent, the numpy path runs
automatically** — the flag can therefore be exported fleet-wide without
making numba a hard dependency (it is an optional extra:
``pip install -e '.[kernels]'``).  Callers flip the selection at runtime
with :func:`set_kernels` (the CLI's ``--kernels``) or scope it with
:func:`use_kernels` (the test harness).

Two fallbacks are built into the dispatchers themselves and are part of
the exactness contract rather than exceptions to it:

* deadline layers containing a Poisson mean at or above the log-space
  switch (mean >= 700) compute their pmf terms on the numpy path even
  under ``numba`` — the log-space pmf needs ``gammaln``, and routing
  those rare terms through the identical numpy code is what keeps the
  two paths exactly equal;
* the hull kernel requires strictly increasing x coordinates (always
  true for a validated price grid) and delegates anything else to the
  general python implementation in :mod:`repro.util.convexhull`.
"""

from __future__ import annotations

import contextlib
import os
import warnings

import numpy as np

from repro.util.convexhull import lower_convex_hull

__all__ = [
    "HAVE_NUMBA",
    "KERNELS",
    "active",
    "active_kernels",
    "available",
    "available_kernels",
    "deadline_layer",
    "deadline_layer_apply",
    "deadline_layer_terms",
    "lower_hull_indices",
    "set_kernels",
    "shard_tick",
    "use_kernels",
]

#: Selectable kernel backends (``auto`` additionally accepted by the flag).
KERNELS = ("numpy", "numba")

#: Environment variable the default selection is read from.
KERNELS_ENV = "REPRO_KERNELS"

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the reference container has none
    numba = None
    HAVE_NUMBA = False

#: Above this Poisson mean the pmf recurrence underflows at ``s = 0``; the
#: scalar path (:func:`repro.util.poisson.poisson_pmf_vector`) switches to
#: log-space there, and the batch kernels route the layer's pmf terms
#: through the numpy implementation (see module docstring).
LOG_SPACE_MEAN = 700.0

_active: str | None = None


def available() -> tuple[str, ...]:
    """Kernel backends usable in this environment (numpy always is)."""
    return KERNELS if HAVE_NUMBA else ("numpy",)


def _resolve(name: str | None) -> str:
    """Map a requested backend name to the one that will actually run."""
    requested = (name if name is not None else os.environ.get(KERNELS_ENV, "")).strip()
    if requested in ("", "numpy"):
        return "numpy"
    if requested == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if requested == "numba":
        if HAVE_NUMBA:
            return "numba"
        warnings.warn(
            "REPRO_KERNELS=numba requested but numba is not importable; "
            "falling back to the numpy kernels (results are identical)",
            RuntimeWarning,
            stacklevel=3,
        )
        return "numpy"
    raise ValueError(
        f"unknown kernel backend {requested!r}; expected one of "
        f"{KERNELS + ('auto',)}"
    )


def active() -> str:
    """The kernel backend in effect: ``"numpy"`` or ``"numba"``."""
    global _active
    if _active is None:
        _active = _resolve(None)
    return _active


def set_kernels(name: str | None) -> str:
    """Select the kernel backend; returns what actually activated.

    ``name=None`` re-reads :data:`KERNELS_ENV`; ``"numba"`` falls back to
    ``"numpy"`` (with a warning) when numba is absent, so selection never
    fails on a missing optional dependency.
    """
    global _active
    _active = _resolve(name)
    return _active


#: Package-level aliases (``repro.core.batch.active_kernels()`` reads
#: better than re-exporting the bare verbs).
def active_kernels() -> str:
    """Alias of :func:`active` for package-level import."""
    return active()


def available_kernels() -> tuple[str, ...]:
    """Alias of :func:`available` for package-level import."""
    return available()


@contextlib.contextmanager
def use_kernels(name: str | None):
    """Scope a kernel selection (test harness / benchmark arms)."""
    global _active
    previous = _active
    set_kernels(name)
    try:
        yield active()
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Kernel 1: one time layer of the batched deadline value iteration
# ----------------------------------------------------------------------
# A layer splits in two halves.  The *terms* (the truncated Poisson pmf
# tensor and the payment term ``head_paid + n * tail``) depend only on the
# layer's means, so a solve whose layers repeat a mean vector — every
# stationary-planning solve — computes them once and reuses them
# (:func:`repro.core.batch.deadline._solve_group` memoises them per
# solve).  The *apply* half (Toeplitz continuation, costs, argmin) depends
# on the next layer's values and runs every layer.  Reuse is exact: the
# apply half only reads the terms.
def _layer_terms_numpy(
    means: np.ndarray, pmf0: np.ndarray, n_tasks: int, eps: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Reference means-only half: ``(pmf, payment)``, both ``(B, C, S)``.

    ``means`` is ``(B, C)`` and ``S = n_tasks + 1``.  ``pmf`` is the
    truncated completion-count pmf (zero past each cut-off) and
    ``payment[b, c, n]`` the expected units paid per unit price from
    state ``n`` (the head's ``sum s pmf[s]`` plus the absorbing tail).
    """
    size = n_tasks + 1
    n_range = np.arange(size)
    # Poisson pmf tensor P[b, c, s]: the stable multiplicative recurrence
    # seeded by the precomputed pmf0 = exp(-means); means at or above
    # LOG_SPACE_MEAN are overwritten by the log-space rows, where the
    # recurrence would underflow.
    pmf = np.empty(means.shape + (size,))
    pmf[..., 0] = pmf0
    for s in range(1, size):
        pmf[..., s] = pmf[..., s - 1] * means / s
    big = means >= LOG_SPACE_MEAN
    if np.any(big):
        pmf[big] = _pmf_log_space(means[big], n_tasks)
    lengths = _truncation_lengths(means, pmf, eps, n_tasks)
    pmf[n_range[None, None, :] >= lengths[:, :, None]] = 0.0
    prob_cum = np.cumsum(pmf, axis=-1)
    paid_cum = np.cumsum(pmf * n_range, axis=-1)
    # Head of the payment term covers s = 0 .. min(n-1, length-1); the
    # Poisson tail completes all n remaining tasks (absorbing state).
    k = np.minimum(n_range[None, None, :] - 1, lengths[:, :, None] - 1)
    k_safe = np.maximum(k, 0)
    head_prob = np.where(
        k >= 0, np.take_along_axis(prob_cum, k_safe, axis=-1), 0.0
    )
    head_paid = np.where(
        k >= 0, np.take_along_axis(paid_cum, k_safe, axis=-1), 0.0
    )
    tail = np.maximum(0.0, 1.0 - head_prob)
    return pmf, head_paid + n_range * tail


def _layer_apply_numpy(
    pmf: np.ndarray,
    payment: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference value-dependent half: ``(opt_t, best)``.

    ``prices`` is ``(B, C)``, ``opt_next`` is ``(B, S)``; returns the
    layer's value vector (``opt_t[:, 0] = 0``) and the per-state
    lowest-cost price index (first minimum = lowest price).
    """
    batch, n_tasks = opt_next.shape[0], opt_next.shape[1] - 1
    size = n_tasks + 1
    n_range = np.arange(size)
    # Toeplitz matrix T[b, s, n] = opt_next[b, n - s] (0 for n < s): the
    # continuation of every (instance, price) is one batched matmul.
    # Materialized C-contiguous (the gather alone is not): BLAS output on
    # a strided layout differs in the last ulp from the contiguous
    # product, and the numba twin (plain 2-D ``np.dot``) can only match
    # the contiguous one.
    padded = np.concatenate([np.zeros((batch, n_tasks)), opt_next], axis=1)
    toeplitz = np.ascontiguousarray(
        padded[:, n_range[None, :] - n_range[:, None] + n_tasks]
    )
    conv = pmf @ toeplitz  # (B, C, S)
    costs = prices[:, :, None] * payment + conv
    costs[:, :, 0] = 0.0
    best = np.argmin(costs, axis=1)  # first minimum = lowest price
    opt_t = costs[np.arange(batch)[:, None], best, n_range]
    opt_t[:, 0] = 0.0
    return opt_t, best


def _deadline_layer_numpy(
    means: np.ndarray,
    pmf0: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
    eps: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference layer: both halves, terms computed fresh."""
    pmf, payment = _layer_terms_numpy(means, pmf0, opt_next.shape[1] - 1, eps)
    return _layer_apply_numpy(pmf, payment, prices, opt_next)


def _pmf_log_space(means: np.ndarray, s_max: int) -> np.ndarray:
    """Log-space Poisson pmf rows for means past the recurrence's range."""
    from scipy import special

    s_range = np.arange(s_max + 1, dtype=float)
    m = means[:, None]
    return np.exp(s_range * np.log(m) - m - special.gammaln(s_range + 1.0))


def _truncation_lengths(
    means: np.ndarray, pmf: np.ndarray, eps: float | None, s_max: int
) -> np.ndarray:
    """Per-(instance, price) kept pmf length, matching ``truncated_pmf``.

    The scalar rule: with the Gaussian band ``hi = mean + 12 sqrt(mean) + 20``
    covering the whole head (``s_max + 1 <= hi``) nothing is cut; otherwise
    the head is cut at the smallest ``s0`` with ``Pr(Pois >= s0) < eps``
    (at least 1, at most ``s_max + 1``).
    """
    full = s_max + 1
    if eps is None:
        return np.full(means.shape, full, dtype=int)
    hi = np.floor(means + 12.0 * np.sqrt(means) + 20.0).astype(int)
    cums = np.cumsum(pmf, axis=-1)
    # s0 = 1 + #{s' in 0..s_max-1 : Pr(Pois >= s'+1) = 1 - cdf(s') >= eps}.
    s0 = 1 + np.sum(1.0 - cums[..., : s_max] >= eps, axis=-1)
    s0 = np.clip(s0, 1, full)
    return np.where(full <= hi, full, s0)


def _layer_terms_loops(
    means: np.ndarray,
    pmf0: np.ndarray,
    n_tasks: int,
    eps: float,
    use_eps: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Loop form of :func:`_layer_terms_numpy` (a numba source).

    Every accumulation runs in the same order as the numpy reference —
    the pmf recurrence left to right, the cumulative sums left to right —
    so the jitted function produces bit-identical terms.  Kept importable
    un-jitted so the equivalence suite can prove the *algorithm* exact
    even where numba is not installed.
    """
    batch, n_prices = means.shape
    size = n_tasks + 1
    pmf = np.empty((batch, n_prices, size))
    payment = np.empty((batch, n_prices, size))
    prob_cum = np.empty(size)
    paid_cum = np.empty(size)
    for b in range(batch):
        for c in range(n_prices):
            m = means[b, c]
            pmf[b, c, 0] = pmf0[b, c]
            for s in range(1, size):
                pmf[b, c, s] = pmf[b, c, s - 1] * m / s
            length = size
            if use_eps:
                hi = int(np.floor(m + 12.0 * np.sqrt(m) + 20.0))
                if size > hi:
                    count = 0
                    cum = 0.0
                    for s in range(n_tasks):
                        cum = cum + pmf[b, c, s]
                        if 1.0 - cum >= eps:
                            count += 1
                    length = min(1 + count, size)
            for s in range(length, size):
                pmf[b, c, s] = 0.0
            cum_p = 0.0
            cum_paid = 0.0
            for s in range(size):
                cum_p = cum_p + pmf[b, c, s]
                cum_paid = cum_paid + pmf[b, c, s] * s
                prob_cum[s] = cum_p
                paid_cum[s] = cum_paid
            for n in range(size):
                k = min(n - 1, length - 1)
                if k >= 0:
                    head_prob = prob_cum[k]
                    head_paid = paid_cum[k]
                else:
                    head_prob = 0.0
                    head_paid = 0.0
                tail = 1.0 - head_prob
                if tail < 0.0:
                    tail = 0.0
                payment[b, c, n] = head_paid + n * tail
    return pmf, payment


def _layer_apply_loops(
    pmf: np.ndarray,
    payment: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Loop form of :func:`_layer_apply_numpy` (a numba source).

    The continuation goes through the same BLAS ``dot`` as the batched
    matmul and the argmin keeps the first minimum, so the jitted function
    produces bit-identical layers.
    """
    batch, n_prices, size = pmf.shape
    opt_t = np.empty((batch, size))
    best = np.zeros((batch, size), dtype=np.int64)
    toeplitz = np.zeros((size, size))
    costs = np.empty((n_prices, size))
    for b in range(batch):
        for s in range(size):
            for n in range(s, size):
                toeplitz[s, n] = opt_next[b, n - s]
        conv = np.dot(pmf[b], toeplitz)  # same BLAS call as the batched matmul
        for c in range(n_prices):
            price = prices[b, c]
            costs[c, 0] = 0.0
            for n in range(1, size):
                costs[c, n] = price * payment[b, c, n] + conv[c, n]
        for n in range(size):
            best_c = 0
            best_cost = costs[0, n]
            for c in range(1, n_prices):
                if costs[c, n] < best_cost:  # strict: first minimum wins
                    best_cost = costs[c, n]
                    best_c = c
            best[b, n] = best_c
            opt_t[b, n] = best_cost
        opt_t[b, 0] = 0.0
    return opt_t, best


def _deadline_layer_loops(
    means: np.ndarray,
    pmf0: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
    eps: float,
    use_eps: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Loop form of :func:`_deadline_layer_numpy`: both halves, fresh terms."""
    pmf, payment = _layer_terms_loops(
        means, pmf0, opt_next.shape[1] - 1, eps, use_eps
    )
    return _layer_apply_loops(pmf, payment, prices, opt_next)


if HAVE_NUMBA:  # pragma: no cover - compiled only where numba is installed
    _layer_terms_jit = numba.njit(cache=True, nogil=True)(_layer_terms_loops)
    _layer_apply_jit = numba.njit(cache=True, nogil=True)(_layer_apply_loops)
else:
    _layer_terms_jit = None
    _layer_apply_jit = None


def deadline_layer_terms(
    lam_t: np.ndarray, probs: np.ndarray, n_tasks: int, eps: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """The means-only half of one layer: ``(pmf, payment)`` tensors.

    Parameters
    ----------
    lam_t:
        ``(B,)`` forecast arrivals for the layer's interval.
    probs:
        ``(B, C)`` acceptance probabilities per price.
    n_tasks:
        Batch size ``N``; the tensors are ``(B, C, N + 1)``.
    eps:
        Poisson truncation threshold (``None`` disables truncation).

    The result depends only on ``lam_t`` (given fixed ``probs``, ``n_tasks``
    and ``eps``), so layers sharing a mean vector may share it; pass it to
    :func:`deadline_layer_apply`, which never writes to it.
    """
    means = lam_t[:, None] * probs
    pmf0 = np.exp(-means)
    if (
        _layer_terms_jit is not None
        and active() == "numba"
        and not np.any(means >= LOG_SPACE_MEAN)
    ):
        return _layer_terms_jit(
            np.ascontiguousarray(means),
            np.ascontiguousarray(pmf0),
            n_tasks,
            eps if eps is not None else 0.0,
            eps is not None,
        )
    return _layer_terms_numpy(means, pmf0, n_tasks, eps)


def deadline_layer_apply(
    terms: tuple[np.ndarray, np.ndarray],
    prices: np.ndarray,
    opt_next: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The value-dependent half of one layer: ``(opt_t, best)``.

    ``terms`` comes from :func:`deadline_layer_terms`, ``prices`` is
    ``(B, C)`` and ``opt_next`` the next layer's ``(B, S)`` value vectors;
    returns the layer's ``(B, S)`` value vectors and price indices.
    """
    pmf, payment = terms
    if _layer_apply_jit is not None and active() == "numba":
        return _layer_apply_jit(
            pmf,
            payment,
            np.ascontiguousarray(prices),
            np.ascontiguousarray(opt_next),
        )
    return _layer_apply_numpy(pmf, payment, prices, opt_next)


def deadline_layer(
    lam_t: np.ndarray,
    probs: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
    eps: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One backward-induction layer of the batched deadline solve.

    Both halves with fresh terms; arguments as in
    :func:`deadline_layer_terms` and :func:`deadline_layer_apply`
    (``opt_next`` is ``(B, S)`` with ``S = num_tasks + 1``).

    Returns
    -------
    (opt_t, best):
        The layer's ``(B, S)`` value vectors and ``(B, S)`` price indices.
    """
    terms = deadline_layer_terms(lam_t, probs, opt_next.shape[1] - 1, eps)
    return deadline_layer_apply(terms, prices, opt_next)


# ----------------------------------------------------------------------
# Kernel 2: the budget solver's lower convex hull
# ----------------------------------------------------------------------
def _lower_hull_loops(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Monotone-chain lower hull over strictly increasing ``xs``.

    The cross-product expression is written identically to
    :func:`repro.util.convexhull._cross`, so vertex selection — including
    the ``<= 0`` collinear-drop rule — matches the python hull exactly.
    """
    n = xs.shape[0]
    hull = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        while top >= 2:
            o = hull[top - 2]
            a = hull[top - 1]
            cross = (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (
                xs[i] - xs[o]
            )
            if cross <= 0.0:
                top -= 1
            else:
                break
        hull[top] = i
        top += 1
    return hull[:top].copy()


if HAVE_NUMBA:  # pragma: no cover - compiled only where numba is installed
    _lower_hull_jit = numba.njit(cache=True, nogil=True)(_lower_hull_loops)
else:
    _lower_hull_jit = None


def lower_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Lower-convex-hull vertex indices of ``(xs, ys)``.

    Drop-in for :func:`repro.util.convexhull.lower_convex_hull`; the
    compiled path handles the strictly-increasing-x case (what a
    validated price grid always is) and anything else delegates to the
    general python implementation.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if (
        _lower_hull_jit is not None
        and active() == "numba"
        and xs.ndim == 1
        and xs.size > 0
        and bool(np.all(np.diff(xs) > 0))
    ):
        return [int(i) for i in _lower_hull_jit(xs, ys)]
    return lower_convex_hull(xs.tolist(), ys.tolist())


# ----------------------------------------------------------------------
# Kernel 3: the sharded tick's completion application
# ----------------------------------------------------------------------
def _shard_tick_numpy(
    accepted: np.ndarray, remaining: np.ndarray, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference completion pass: cap at open tasks, charge posted price."""
    done = np.minimum(accepted, remaining)
    return done, done * prices


def _shard_tick_loops(
    accepted: np.ndarray, remaining: np.ndarray, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Loop form of :func:`_shard_tick_numpy` (the numba source)."""
    n = accepted.shape[0]
    done = np.empty(n, dtype=np.int64)
    cost = np.empty(n)
    for i in range(n):
        d = accepted[i]
        if remaining[i] < d:
            d = remaining[i]
        done[i] = d
        cost[i] = d * prices[i]
    return done, cost


if HAVE_NUMBA:  # pragma: no cover - compiled only where numba is installed
    _shard_tick_jit = numba.njit(cache=True, nogil=True)(_shard_tick_loops)
else:
    _shard_tick_jit = None


def shard_tick(
    accepted: np.ndarray, remaining: np.ndarray, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one tick's accepted draws to per-campaign open-task counts.

    ``accepted``/``remaining`` are int64 per-campaign arrays, ``prices``
    the posted rewards; returns ``(done, cost)`` where ``done`` caps
    acceptances at the open tasks and ``cost`` is the tick's deadline
    payment ``done * price`` per campaign (semi-static budget campaigns
    are charged by the caller through their price sequence instead).
    """
    if _shard_tick_jit is not None and active() == "numba":
        return _shard_tick_jit(accepted, remaining, prices)
    return _shard_tick_numpy(accepted, remaining, prices)
