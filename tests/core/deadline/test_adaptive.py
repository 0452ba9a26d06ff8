"""Tests for the adaptive re-solving policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deadline import adaptive as adaptive_module
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.core.deadline.vectorized import solve_deadline
from repro.sim.policies import TablePolicyRuntime
from repro.sim.simulator import DeadlineSimulation

from tests.conftest import make_problem
from tests.core.batch.test_batch_deadline import random_problem


@pytest.fixture
def problem():
    return make_problem(
        num_tasks=10,
        arrival_means=[2000.0, 1500.0, 2500.0, 1800.0],
        max_price=15.0,
        penalty=100.0,
    )


class TestNeutralBehaviour:
    def test_matches_static_table_without_observations(self, problem):
        static = solve_deadline(problem)
        adaptive = AdaptiveRepricer(problem)
        for n in (1, 5, 10):
            assert adaptive.price(n, 0) == static.price(n, 0)

    def test_matches_static_when_arrivals_on_forecast(self, problem):
        static = solve_deadline(problem)
        adaptive = AdaptiveRepricer(problem)
        for t in range(problem.num_intervals):
            price_static = static.price(5, t)
            price_adaptive = adaptive.price(5, t)
            assert price_adaptive == price_static
            adaptive.observe(t, float(problem.arrival_means[t]))


class TestAdaptation:
    def test_underdelivery_raises_prices(self, problem):
        static = solve_deadline(problem)
        adaptive = AdaptiveRepricer(problem)
        adaptive.price(10, 0)
        adaptive.observe(0, 0.3 * float(problem.arrival_means[0]))
        adaptive.observe(1, 0.3 * float(problem.arrival_means[1]))
        # Mid-horizon with a big backlog and a learned shortfall.
        assert adaptive.price(10, 2) >= static.price(10, 2)
        assert adaptive.predictor.factor < 1.0

    def test_cache_limits_solves(self, problem):
        adaptive = AdaptiveRepricer(problem)
        for t in range(problem.num_intervals):
            adaptive.price(5, t)
            adaptive.observe(t, float(problem.arrival_means[t]))
        first_pass = adaptive.num_solves
        for t in range(problem.num_intervals):
            adaptive.price(5, t)
        assert adaptive.num_solves == first_pass  # all cached

    def test_resolve_every_reduces_solves(self, problem):
        every = AdaptiveRepricer(problem, resolve_every=1)
        coarse = AdaptiveRepricer(problem, resolve_every=2)
        for t in range(problem.num_intervals):
            every.price(5, t)
            coarse.price(5, t)
            # Feed diverging observations so factors keep moving.
            every.observe(t, 0.5 * float(problem.arrival_means[t]))
            coarse.observe(t, 0.5 * float(problem.arrival_means[t]))
        assert coarse.num_solves <= every.num_solves


class TestEndToEnd:
    def test_rescues_consistent_shortfall(self, problem):
        # True market delivers 40% of the forecast; the static table
        # (trained on the forecast) strands tasks, the adaptive one adapts.
        true_means = problem.arrival_means * 0.4
        sim = DeadlineSimulation(problem.num_tasks, true_means, problem.acceptance)
        static_runtime = TablePolicyRuntime(solve_deadline(problem))
        static_left = []
        adaptive_left = []
        for i in range(30):
            static_left.append(
                sim.run(static_runtime, np.random.default_rng(i)).remaining
            )
            adaptive_left.append(
                sim.run(AdaptiveRepricer(problem), np.random.default_rng(i)).remaining
            )
        assert np.mean(adaptive_left) <= np.mean(static_left)

    def test_validation(self, problem):
        with pytest.raises(ValueError):
            AdaptiveRepricer(problem, resolve_every=0)
        with pytest.raises(ValueError):
            AdaptiveRepricer(problem, factor_quantum=0.0)
        with pytest.raises(ValueError):
            AdaptiveRepricer(problem).price(0, 0)

    def test_repr(self, problem):
        assert "AdaptiveRepricer" in repr(AdaptiveRepricer(problem))


def drive(
    problem, observed, remaining, resolve_every, start=0, stop=None, state=None
):
    """Price and observe intervals ``start..stop-1`` of one run; returns the
    posted prices and the repricer (optionally resumed from ``state``)."""
    repricer = AdaptiveRepricer(problem, resolve_every=resolve_every)
    if state is not None:
        repricer.import_state(state)
    prices = []
    for t in range(start, problem.num_intervals if stop is None else stop):
        prices.append(repricer.price(int(remaining[t]), t))
        repricer.observe(t, float(observed[t]))
    return prices, repricer


def random_run(seed: int):
    """A randomized instance, a drifting arrival trace and a backlog path."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    # Busy enough that the cheaper grid prices are in play.
    problem = problem.with_arrival_means(
        problem.arrival_means * rng.uniform(10.0, 80.0)
    )
    horizon = problem.num_intervals
    drift = np.exp(np.cumsum(rng.normal(0.0, 0.35, horizon)))
    observed = problem.arrival_means * drift * rng.uniform(0.2, 1.8)
    done = rng.integers(0, 3, horizon)
    remaining = np.maximum(problem.num_tasks - np.cumsum(done), 1)
    return problem, observed, remaining


class TestBatchKernelResolves:
    """Re-solves on the batch kernel price exactly like the scalar solver."""

    @pytest.mark.parametrize("resolve_every", [1, 3])
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_vectorized_solver(self, monkeypatch, seed, resolve_every):
        problem, observed, remaining = random_run(seed)
        prices, repricer = drive(problem, observed, remaining, resolve_every)
        with monkeypatch.context() as patch:
            patch.setattr(adaptive_module, "solve_deadline", solve_deadline)
            ref_prices, ref = drive(problem, observed, remaining, resolve_every)
        assert prices == ref_prices
        assert repricer.num_solves == ref.num_solves >= 1
        state, ref_state = repricer.export_state(), ref.export_state()
        assert state["cache"].keys() == ref_state["cache"].keys()
        for key, table in state["cache"].items():
            assert np.array_equal(table, ref_state["cache"][key])

    @pytest.mark.parametrize("resolve_every", [1, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_export_import_round_trip(self, monkeypatch, seed, resolve_every):
        problem, observed, remaining = random_run(100 + seed)
        whole, repricer = drive(problem, observed, remaining, resolve_every)
        split = problem.num_intervals // 2
        _, head = drive(problem, observed, remaining, resolve_every, stop=split)
        state = head.export_state()
        tail, resumed = drive(
            problem, observed, remaining, resolve_every, start=split, state=state
        )
        with monkeypatch.context() as patch:
            patch.setattr(adaptive_module, "solve_deadline", solve_deadline)
            ref_tail, ref = drive(
                problem, observed, remaining, resolve_every,
                start=split, state=state,
            )
        assert tail == whole[split:] == ref_tail
        assert resumed.num_solves == repricer.num_solves == ref.num_solves
