"""The planner's shape memo (``CampaignPlanner.plan``) against fresh builds.

Admission resolves static campaigns through a memo keyed on the spec
fields the request builders read.  The memo must be invisible: a planner
using it admits every batch exactly like a planner whose memo is cleared
before every call (same posted prices, same ``cache_hit`` and
``initial_solves``, same :class:`~repro.engine.cache.PolicyCache` stats),
and every memoised signature equals the one a fresh
``planning_problem(spec)`` / ``budget_request(spec)`` computes — so a key
that dropped a field the request depends on would fail here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignSpec,
    MarketplaceEngine,
    PolicyCache,
    generate_workload,
)
from repro.engine.planning import CampaignPlanner
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 12
#: A forecast that differs per interval, so sliced plans differ by
#: submit interval.
PLANNING_MEANS = 180.0 + 40.0 * np.sin(np.arange(NUM_INTERVALS))


def make_planner(planning: str, max_entries: int) -> CampaignPlanner:
    return CampaignPlanner(
        paper_acceptance_model(),
        PolicyCache(max_entries=max_entries),
        planning=planning,
        planning_means=PLANNING_MEANS,
    )


def random_spec(rng: np.random.Generator, index: int) -> CampaignSpec:
    """A small shape space, so shapes repeat within and across batches."""
    num_tasks = int(rng.choice([3, 5]))
    max_price = int(rng.choice([6, 9]))
    horizon = int(rng.choice([2, 3]))
    submit = int(rng.integers(0, NUM_INTERVALS - horizon + 1))
    roll = rng.random()
    if roll < 0.35:
        return CampaignSpec(
            campaign_id=f"b{index}",
            kind=BUDGET,
            num_tasks=num_tasks,
            submit_interval=submit,
            horizon_intervals=horizon,
            max_price=max_price,
            budget=float(rng.choice([6.0, 6, 7.5])) * num_tasks,
        )
    return CampaignSpec(
        campaign_id=f"d{index}",
        kind=DEADLINE,
        num_tasks=num_tasks,
        submit_interval=submit,
        horizon_intervals=horizon,
        max_price=max_price,
        penalty_per_task=float(rng.choice([0.0, -0.0, 20.0, 35.0])),
        adaptive=bool(roll > 0.9),
    )


def posted_prices(live) -> list[float]:
    """Every price the campaign's runtime would post."""
    spec = live.spec
    if spec.adaptive:
        return [live.runtime.price(spec.num_tasks, 0)]
    return [
        live.runtime.price(remaining, t)
        for remaining in range(1, spec.num_tasks + 1)
        for t in range(spec.horizon_intervals)
    ]


def admission_view(batch) -> list[tuple]:
    return [
        (lc.spec.campaign_id, lc.cache_hit, lc.initial_solves, posted_prices(lc))
        for lc in batch
    ]


def expected_signature(planner: CampaignPlanner, spec: CampaignSpec) -> tuple:
    if spec.kind == BUDGET:
        return planner.budget_request(spec).signature()
    return planner.planning_problem(spec).signature()


@pytest.mark.parametrize("planning", ["sliced", "stationary"])
@pytest.mark.parametrize("max_entries", [0, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memo_admits_like_fresh_builds(planning, max_entries, seed):
    rng = np.random.default_rng([seed, max_entries, planning == "sliced"])
    memo = make_planner(planning, max_entries)
    fresh = make_planner(planning, max_entries)
    index = 0
    for _ in range(8):
        size = int(rng.integers(1, 7))
        specs = [random_spec(rng, index + i) for i in range(size)]
        index += size
        fresh.clear_plans()
        if size == 1 and rng.random() < 0.5:
            got, want = [memo.admit(specs[0])], [fresh.admit(specs[0])]
        else:
            got, want = memo.admit_many(specs), fresh.admit_many(specs)
        assert admission_view(got) == admission_view(want)
        assert memo.cache.stats == fresh.cache.stats
        assert memo.batch_solver.stats == fresh.batch_solver.stats
        for spec in specs:
            signature, request = memo.plan(spec)
            assert signature == expected_signature(memo, spec)
            assert request.signature() == signature


@pytest.mark.parametrize("planning", ["sliced", "stationary"])
def test_memo_key_separates_every_request_field(planning):
    """Shapes differing in one request-relevant field get their own plan."""
    planner = make_planner(planning, 256)
    base = CampaignSpec("d0", DEADLINE, 5, 2, 3, max_price=9, penalty_per_task=20.0)
    variants = [
        base,
        CampaignSpec("d1", DEADLINE, 6, 2, 3, max_price=9, penalty_per_task=20.0),
        CampaignSpec("d2", DEADLINE, 5, 2, 4, max_price=9, penalty_per_task=20.0),
        CampaignSpec("d3", DEADLINE, 5, 2, 3, max_price=8, penalty_per_task=20.0),
        CampaignSpec("d4", DEADLINE, 5, 2, 3, max_price=9, penalty_per_task=21.0),
        CampaignSpec("d5", DEADLINE, 5, 3, 3, max_price=9, penalty_per_task=20.0),
        CampaignSpec("b0", BUDGET, 5, 2, 3, max_price=9, budget=40.0),
        CampaignSpec("b1", BUDGET, 5, 2, 3, max_price=9, budget=41.0),
        CampaignSpec("b2", BUDGET, 6, 2, 3, max_price=9, budget=40.0),
        CampaignSpec("b3", BUDGET, 5, 2, 3, max_price=8, budget=40.0),
    ]
    for spec in variants:
        planner.plan(spec)
    for spec in variants:
        assert planner.plan(spec)[0] == expected_signature(planner, spec)


def test_memo_hits_return_the_same_plan():
    planner = make_planner("stationary", 256)
    a = CampaignSpec("a", DEADLINE, 5, 1, 3, max_price=9)
    b = CampaignSpec("b", DEADLINE, 5, 7, 3, max_price=9)
    assert planner.plan(a) is planner.plan(b)


def test_start_clears_the_memo():
    stream = SharedArrivalStream(np.full(24, 400.0))
    specs = generate_workload(12, stream.num_intervals, seed=3)
    engine = MarketplaceEngine(stream, paper_acceptance_model())
    engine.submit(specs)
    first = engine.run(seed=5)
    assert engine.planner._plans
    engine.start(seed=5)
    assert not engine.planner._plans
    engine.close()
    second = engine.run(seed=5)
    assert second.checksum == first.checksum
    assert second.cache_stats == first.cache_stats
