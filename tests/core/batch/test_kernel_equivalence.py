"""Exact equality of the compiled kernels against the numpy reference.

The ``REPRO_KERNELS`` contract is *bit-identical results, whichever
backend runs*.  Float tolerance would let the two paths drift apart one
ulp at a time until engine traces diverge, so every comparison here is
**exact** (``np.array_equal``, no ``allclose``): the loop implementations
(what ``numba.njit`` compiles — tested un-jitted where numba is absent,
compiled where it is installed) must reproduce the numpy tensor
arithmetic operation for operation, over randomized shapes.

Also covered: the flag machinery itself — resolution, the warn-once
numpy fallback when numba is requested but absent, the scoped selector —
and end-to-end solver equality under each mode.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.batch import kernels, solve_budget_batch, solve_deadline_batch
from repro.core.batch.budget import BudgetRequest
from repro.core.batch.kernels import (
    _deadline_layer_loops,
    _deadline_layer_numpy,
    _layer_apply_loops,
    _layer_terms_loops,
    _lower_hull_loops,
    _shard_tick_loops,
    _shard_tick_numpy,
)
from repro.market.acceptance import LogitAcceptance
from repro.util.convexhull import lower_convex_hull

from tests.conftest import make_problem
from tests.core.batch.test_batch_deadline import random_problem
from tests.kernel_modes import KERNEL_MODES, kernel_mode


def random_layer(rng: np.random.Generator) -> tuple:
    """One randomized deadline layer: (means, pmf0, prices, opt_next, eps)."""
    batch = int(rng.integers(1, 5))
    n_tasks = int(rng.integers(1, 24))
    n_prices = int(rng.integers(1, 14))
    lam_t = rng.uniform(0.0, 150.0, batch)
    probs = rng.uniform(1e-4, 1.0, (batch, n_prices))
    means = lam_t[:, None] * probs
    prices = np.sort(rng.uniform(0.5, 30.0, (batch, n_prices)), axis=1)
    opt_next = rng.uniform(0.0, 500.0, (batch, n_tasks + 1))
    opt_next[:, 0] = 0.0
    eps = [None, 1e-9, 1e-6, 1e-2][int(rng.integers(4))]
    return means, np.exp(-means), prices, opt_next, eps


class TestDeadlineLayerKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_loops_match_numpy_exactly(self, seed):
        means, pmf0, prices, opt_next, eps = random_layer(
            np.random.default_rng(seed)
        )
        ref_opt, ref_best = _deadline_layer_numpy(
            means, pmf0, prices, opt_next, eps
        )
        loop_opt, loop_best = _deadline_layer_loops(
            means, pmf0, prices, opt_next,
            eps if eps is not None else 0.0, eps is not None,
        )
        assert np.array_equal(ref_best, loop_best)
        assert np.array_equal(ref_opt, loop_opt)  # exact, not allclose

    def test_single_price_single_task_edge(self):
        means = np.array([[3.0]])
        args = (means, np.exp(-means), np.array([[2.0]]),
                np.array([[0.0, 7.0]]), 1e-9)
        ref = _deadline_layer_numpy(*args)
        loop = _deadline_layer_loops(*args[:4], 1e-9, True)
        assert np.array_equal(ref[0], loop[0])
        assert np.array_equal(ref[1], loop[1])

    def test_log_space_means_route_to_numpy(self):
        # A layer containing a mean >= 700 must take the numpy path even
        # under the numba backend (the exactness contract's escape hatch).
        rng = np.random.default_rng(5)
        lam_t = np.array([900.0])
        probs = rng.uniform(0.5, 1.0, (1, 3))
        prices = np.sort(rng.uniform(1.0, 9.0, (1, 3)), axis=1)
        opt_next = rng.uniform(0.0, 50.0, (1, 6))
        with kernel_mode("numpy"):
            ref = kernels.deadline_layer(lam_t, probs, prices, opt_next, 1e-9)
        with kernel_mode("numba"):
            out = kernels.deadline_layer(lam_t, probs, prices, opt_next, 1e-9)
        assert np.array_equal(ref[0], out[0])
        assert np.array_equal(ref[1], out[1])

    @pytest.mark.parametrize("seed", range(4))
    def test_full_batch_solver_identical_across_modes(self, seed):
        rng = np.random.default_rng(100 + seed)
        problems = [random_problem(rng) for _ in range(4)]
        with kernel_mode("numpy"):
            ref = solve_deadline_batch(problems)
        with kernel_mode("numba"):
            out = solve_deadline_batch(problems)
        for a, b in zip(ref, out):
            assert np.array_equal(a.opt, b.opt)
            assert np.array_equal(a.price_index, b.price_index)


def unmemoised_sweep(problems) -> tuple[np.ndarray, np.ndarray]:
    """The batch solve's backward sweep with fresh pmf terms every layer."""
    first = problems[0]
    n_tasks, n_intervals = first.num_tasks, first.num_intervals
    lam = np.stack([p.arrival_means for p in problems])
    prices = np.stack([p.price_grid for p in problems])
    probs = np.stack([p.acceptance_probabilities() for p in problems])
    opt = np.zeros((len(problems), n_tasks + 1, n_intervals + 1))
    price_index = np.zeros((len(problems), n_tasks + 1, n_intervals), dtype=int)
    opt[:, :, n_intervals] = np.stack(
        [p.penalty.terminal_costs(n_tasks) for p in problems]
    )
    for t in range(n_intervals - 1, -1, -1):
        opt_t, best = kernels.deadline_layer(
            lam[:, t], probs, prices, opt[:, :, t + 1], first.truncation_eps
        )
        opt[:, :, t] = opt_t
        price_index[:, 1:, t] = best[:, 1:]
    return opt, price_index


def stationary_group(rng, *, eps=1e-9, low=0.0, high=120.0):
    """Three same-shaped instances, each with one mean for every layer."""
    base = dataclasses.replace(random_problem(rng), truncation_eps=eps)
    return [
        base.with_arrival_means(
            np.full(base.num_intervals, rng.uniform(low, high))
        )
        for _ in range(3)
    ]


class TestLayerTermsMemo:
    """Memoised pmf terms give exactly the unmemoised solve's tables."""

    def assert_memo_exact(self, problems):
        opt, price_index = unmemoised_sweep(problems)
        for b, policy in enumerate(solve_deadline_batch(problems)):
            assert np.array_equal(policy.price_index, price_index[b])
            assert np.array_equal(policy.opt, opt[b])  # exact, not allclose

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_stationary_means(self, mode, seed):
        problems = stationary_group(np.random.default_rng(300 + seed))
        with kernel_mode(mode):
            self.assert_memo_exact(problems)

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_sliced_means_every_layer_distinct(self, mode, seed):
        # A repricer-style suffix: a slice of a non-stationary forecast,
        # scaled by a correction factor; no two layers share a column.
        rng = np.random.default_rng(400 + seed)
        base = random_problem(rng)
        anchor = int(rng.integers(0, base.num_intervals - 1))
        suffix = base.arrival_means[anchor:] * rng.uniform(0.3, 1.7)
        assert np.unique(suffix).size == suffix.size
        with kernel_mode(mode):
            self.assert_memo_exact([base.with_arrival_means(suffix)])

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize("partner", ["repeating", "distinct"])
    def test_repeating_columns_across_gaps(self, mode, partner):
        # Columns that recur after other layers: entries must survive
        # until their lowest layer, then be dropped.  A column is the
        # whole batch's means: with a partner whose means never repeat,
        # no layer may reuse another's terms.
        rng = np.random.default_rng(7)
        base = random_problem(rng)
        pattern = np.resize([40.0, 75.0, 40.0, 10.0, 75.0], base.num_intervals)
        other = (
            pattern * 0.5
            if partner == "repeating"
            else rng.uniform(5.0, 90.0, base.num_intervals)
        )
        with kernel_mode(mode):
            self.assert_memo_exact(
                [base.with_arrival_means(pattern),
                 base.with_arrival_means(other)]
            )

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_log_space_means(self, mode):
        problems = [
            make_problem(num_tasks=12, arrival_means=[lam] * 5, max_price=15.0)
            for lam in (4e5, 80.0)
        ]
        means = 4e5 * problems[0].acceptance_probabilities()
        assert np.any(means >= kernels.LOG_SPACE_MEAN)
        with kernel_mode(mode):
            self.assert_memo_exact(problems)

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_no_truncation(self, mode, seed):
        problems = stationary_group(np.random.default_rng(500 + seed), eps=None)
        with kernel_mode(mode):
            self.assert_memo_exact(problems)

    def test_terms_computed_once_per_distinct_column(self, monkeypatch):
        calls = []
        terms = kernels.deadline_layer_terms

        def counting(lam_t, *args):
            calls.append(lam_t.tobytes())
            return terms(lam_t, *args)

        monkeypatch.setattr(kernels, "deadline_layer_terms", counting)
        rng = np.random.default_rng(11)
        solve_deadline_batch(stationary_group(rng))
        assert len(calls) == 1
        base = random_problem(rng)
        pattern = np.resize([40.0, 75.0, 40.0, 10.0, 75.0], base.num_intervals)
        calls.clear()
        solve_deadline_batch([base.with_arrival_means(pattern)])
        assert len(calls) == len(set(calls)) == np.unique(pattern).size

    @pytest.mark.parametrize("eps", [None, 1e-9, 1e-2])
    @pytest.mark.parametrize("seed", range(4))
    def test_loop_form_reused_terms(self, eps, seed):
        # The numba sources, un-jitted: one set of terms applied to every
        # layer equals fresh terms per layer and the numpy reference.
        rng = np.random.default_rng(600 + seed)
        means, pmf0, prices, opt_next, _ = random_layer(rng)
        n_tasks = opt_next.shape[1] - 1
        use_eps, eps_value = eps is not None, eps if eps is not None else 0.0
        terms = _layer_terms_loops(means, pmf0, n_tasks, eps_value, use_eps)
        for _ in range(4):
            memo_opt, memo_best = _layer_apply_loops(*terms, prices, opt_next)
            loop_opt, loop_best = _deadline_layer_loops(
                means, pmf0, prices, opt_next, eps_value, use_eps
            )
            ref_opt, ref_best = _deadline_layer_numpy(
                means, pmf0, prices, opt_next, eps
            )
            assert np.array_equal(memo_best, loop_best)
            assert np.array_equal(memo_best, ref_best)
            assert np.array_equal(memo_opt, loop_opt)
            assert np.array_equal(memo_opt, ref_opt)
            opt_next = memo_opt + rng.uniform(0.0, 50.0, opt_next.shape)
            opt_next[:, 0] = 0.0


class TestHullKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_loops_match_python_hull(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        xs = np.unique(rng.uniform(0.0, 50.0, n))
        # Mix smooth, duplicate, and exactly-collinear y values so the
        # <=0 collinear-drop rule is exercised.
        ys = np.round(rng.uniform(0.0, 20.0, xs.size), 1)
        assert list(_lower_hull_loops(xs, ys)) == lower_convex_hull(
            xs.tolist(), ys.tolist()
        )

    def test_collinear_points_dropped_identically(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        ys = np.array([4.0, 3.0, 2.0, 1.0, 0.0])  # one straight line
        assert list(_lower_hull_loops(xs, ys)) == lower_convex_hull(
            xs.tolist(), ys.tolist()
        )

    def test_dispatcher_falls_back_on_unsorted_xs(self):
        xs = [3.0, 1.0, 2.0]
        ys = [1.0, 5.0, 0.5]
        with kernel_mode("numba"):
            got = kernels.lower_hull_indices(np.array(xs), np.array(ys))
        assert got == lower_convex_hull(xs, ys)

    @pytest.mark.parametrize("seed", range(4))
    def test_budget_batch_identical_across_modes(self, seed):
        rng = np.random.default_rng(200 + seed)
        acceptance = LogitAcceptance(
            s=float(rng.uniform(2.0, 8.0)),
            b=float(rng.uniform(-1.0, 2.0)),
            m=float(rng.uniform(100.0, 1500.0)),
        )
        grid = np.arange(1.0, float(rng.integers(6, 20)))
        requests = [
            BudgetRequest(
                num_tasks=int(rng.integers(1, 40)),
                budget=float(rng.uniform(40.0, 4000.0) + 40.0 * 40),
                acceptance=acceptance,
                price_grid=grid,
            )
            for _ in range(5)
        ]
        with kernel_mode("numpy"):
            ref = solve_budget_batch(requests)
        with kernel_mode("numba"):
            out = solve_budget_batch(requests)
        assert ref == out


class TestShardTickKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_loops_match_numpy_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        accepted = rng.integers(0, 30, n)
        remaining = rng.integers(0, 30, n)
        prices = rng.uniform(0.5, 20.0, n)
        ref_done, ref_cost = _shard_tick_numpy(accepted, remaining, prices)
        loop_done, loop_cost = _shard_tick_loops(accepted, remaining, prices)
        assert np.array_equal(ref_done, loop_done)
        assert np.array_equal(ref_cost, loop_cost)
        assert np.all(ref_done <= remaining)


class TestKernelFlag:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_kernels("cuda")

    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_kernels()
        with kernels.use_kernels("numpy"):
            assert kernels.active_kernels() == "numpy"

    def test_env_var_read_on_none(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "numpy")
        with kernels.use_kernels(None):
            assert kernels.active() == "numpy"

    def test_auto_resolves_to_an_available_backend(self):
        with kernels.use_kernels("auto"):
            assert kernels.active() in kernels.available_kernels()

    def test_use_kernels_restores_previous_selection(self):
        before = kernels.active()
        with kernels.use_kernels("numpy"):
            assert kernels.active() == "numpy"
        assert kernels.active() == before

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba is installed here")
    def test_numba_request_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert kernels.set_kernels("numba") == "numpy"
        kernels.set_kernels(None)

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba is installed here")
    def test_auto_without_numba_is_numpy(self):
        with kernels.use_kernels("auto"):
            assert kernels.active() == "numpy"
