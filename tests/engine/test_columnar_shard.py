"""The columnar shard against its per-campaign definitions.

:class:`~repro.engine.sharding._Shard` keeps its campaigns as columns, a
price book and batch-seeded generators.  Each shortcut has a reference it
must match exactly:

* **Seeding** — :func:`~repro.engine.sharding._campaign_seed_words`
  replays numpy's ``SeedSequence`` hash for a batch; every generator it
  seeds must have the state and draws of ``default_rng`` on the same
  entropy (:func:`~repro.engine.sharding._campaign_rng`).
* **Prices** — the price-book gather must equal ``runtime.price`` for
  every runtime kind, including clamped ages and open-task counts.
* **Layout** — cancel, export and restore keep the columns aligned.
* **End to end** — a streamed workload large enough to reach the batched
  seeder gives one checksum for every executor and for the per-campaign
  seeding path.  (The golden matrix places 4 campaigns one at a time, so
  it never reaches the batched path.)
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignSpec,
    CampaignTemplate,
    PolicyCache,
    ShardedEngine,
    StreamedWorkload,
)
from repro.engine import sharding
from repro.engine.planning import CampaignPlanner, _LiveCampaign
from repro.engine.sharding import (
    _BATCH_SEED_MIN,
    _CAMPAIGN_STREAM,
    _Shard,
    _SeedWords,
    _campaign_rng,
    _campaign_rngs,
    _campaign_seed_words,
)
from repro.market.acceptance import paper_acceptance_model
from repro.sim.policies import FixedPriceRuntime
from repro.sim.stream import SharedArrivalStream
from repro.util.rngstate import generator_from_state

# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
#: Seeds at every entropy-width boundary: one word, the largest one-word
#: seed, two words, and three words (five entropy words in all, more than
#: SeedSequence's pool of four).
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3)
seeds = st.one_of(
    st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**100)
)
crcs = st.one_of(
    st.sampled_from((0, 2**32 - 1)), st.integers(min_value=0, max_value=2**32 - 1)
)


def _seeded(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _assert_same_generator(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(
        got.integers(0, 2**63, size=8), want.integers(0, 2**63, size=8)
    )
    assert [got.poisson(3.5) for _ in range(8)] == [want.poisson(3.5) for _ in range(8)]


class TestBatchedSeeder:
    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, batch=st.lists(crcs, min_size=1, max_size=6))
    def test_matches_default_rng_state_and_draws(self, seed, batch):
        words = _campaign_seed_words(seed, np.array(batch, dtype=np.uint32))
        assert words.shape == (len(batch), 4)
        for row, crc in zip(words, batch):
            _assert_same_generator(
                _seeded(row), np.random.default_rng([seed, _CAMPAIGN_STREAM, crc])
            )

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_campaign_rngs_batch_matches_reference(self, seed):
        cids = [f"cmp-{i:04d}" for i in range(_BATCH_SEED_MIN + 5)]
        batched = _campaign_rngs(seed, cids)
        for cid, rng in zip(cids, batched):
            _assert_same_generator(rng, _campaign_rng(seed, cid))

    def test_batched_generators_are_independent(self):
        # Each PCG64 copies its words: drawing from one generator of a
        # batch leaves every other one where the reference would be.
        cids = [f"ind-{i:04d}" for i in range(_BATCH_SEED_MIN)]
        batched = _campaign_rngs(11, cids)
        batched[0].random(1000)
        for cid, rng in zip(cids[1:], batched[1:]):
            _assert_same_generator(rng, _campaign_rng(11, cid))

    def test_only_pcg64_words_are_served(self):
        with pytest.raises(ValueError):
            _SeedWords(np.zeros(4, dtype=np.uint64)).generate_state(8)


# ----------------------------------------------------------------------
# Prices
# ----------------------------------------------------------------------
HORIZON = 4
STREAM_MEANS = np.full(12, 150.0)


def _planner() -> CampaignPlanner:
    return CampaignPlanner(
        paper_acceptance_model(),
        PolicyCache(),
        planning="stationary",
        planning_means=STREAM_MEANS,
    )


def _spec(cid, kind, num_tasks=5, submit=1, adaptive=False):
    return CampaignSpec(
        campaign_id=cid,
        kind=kind,
        num_tasks=num_tasks,
        submit_interval=submit,
        horizon_intervals=HORIZON if kind == DEADLINE else 8,
        max_price=9,
        penalty_per_task=20.0,
        # 23 cents for 4 tasks allocates (6, 6, 6, 5): a sequence whose
        # order shows in every row.
        budget=5.75 * num_tasks if kind == BUDGET else None,
        adaptive=adaptive,
    )


def _mixed_lives() -> list[_LiveCampaign]:
    """Table, semi-static, fixed and adaptive runtimes (two tables shared)."""
    planner = _planner()
    lives = planner.admit_many([
        _spec("dl-a", DEADLINE),
        _spec("dl-b", DEADLINE, submit=0),
        _spec("dl-c", DEADLINE, num_tasks=3),
        _spec("bg-a", BUDGET, num_tasks=4),
        _spec("bg-b", BUDGET, num_tasks=4, submit=0),
        _spec("ad-a", DEADLINE, adaptive=True),
    ])
    fixed = _LiveCampaign(
        _spec("fx-a", DEADLINE), FixedPriceRuntime(7.0), cache_hit=False,
        initial_solves=0,
    )
    return [*lives, fixed]


def _assert_prices_match(shard: _Shard, t: int):
    posted = shard.prices(t)
    want = [
        live.runtime.price(live.remaining, t - live.spec.submit_interval)
        for live in shard.lives
    ]
    assert posted.dtype == np.float64
    assert posted.tolist() == want


class TestPriceBook:
    @pytest.mark.parametrize("open_tasks", ["all", "one", "some", "none"])
    def test_gather_equals_runtime_price(self, open_tasks):
        lives = _mixed_lives()
        if open_tasks == "none":
            # Static runtimes clamp zero open tasks to one; the repricer
            # refuses them.
            lives = [live for live in lives if not live.spec.adaptive]
        for live in lives:
            n = live.spec.num_tasks
            live.remaining = {
                "all": n, "one": 1, "some": max(n - 2, 1), "none": 0
            }[open_tasks]
        shard = _Shard(0)
        shard.attach(lives, [None] * len(lives))
        # Every age in the horizon, then ages past it (table clamps).
        for t in range(1, 1 + HORIZON + 3):
            _assert_prices_match(shard, t)

    def test_shared_shapes_intern_once(self):
        lives = _mixed_lives()
        shard = _Shard(0)
        shard.attach(lives, [None] * len(lives))
        by_id = {live.spec.campaign_id: i for i, live in enumerate(shard.lives)}
        assert shard.base[by_id["dl-a"]] == shard.base[by_id["dl-b"]]
        assert shard.base[by_id["bg-a"]] == shard.base[by_id["bg-b"]]
        assert shard.base[by_id["dl-a"]] != shard.base[by_id["dl-c"]]
        # Adaptive and fixed runtimes are priced per call.
        assert shard.rows[by_id["ad-a"]] == 0
        assert shard.rows[by_id["fx-a"]] == 0

    def test_rebuilt_book_drops_retired_tables(self, monkeypatch):
        monkeypatch.setattr(sharding, "_BOOK_SLACK", 0)
        planner = _planner()
        shard = _Shard(0)
        for wave in range(6):
            # Fresh policy objects every wave, as unpickled placements are.
            planner.cache.clear()
            lives = planner.admit_many(
                [_spec(f"w{wave}-{n}", DEADLINE, num_tasks=n) for n in (3, 4, 5)]
            )
            shard.attach(lives, [None] * len(lives))
            keep = np.zeros(len(shard.lives), dtype=bool)
            keep[-3:] = True
            shard._keep(keep)
            _assert_prices_match(shard, 2)
        live_floats = sum(
            (live.spec.num_tasks + 1) * HORIZON for live in shard.lives
        )
        assert shard.book.size <= 1 + 3 * live_floats


# ----------------------------------------------------------------------
# Layout round trips
# ----------------------------------------------------------------------
def _placed_shard(seed=5) -> _Shard:
    lives = _mixed_lives()
    shard = _Shard(0)
    shard.place(lives, seed)
    return shard


def _tick(shard: _Shard, t: int):
    """One engine tick on a lone shard: its totals and retired ids."""
    posted = shard.prices(t)
    accept = np.full(len(shard.lives), 0.004)
    totals = shard.step(t, 200.0, accept, accept * 2, posted)
    shard.observe(t, 40)
    _, outcomes = shard.retire(t)
    return totals, [o.spec.campaign_id for o in outcomes]


def _snapshot(shard: _Shard):
    return [
        (live.spec.campaign_id, live.remaining, live.total_cost)
        for live in shard.lives
    ]


class TestRoundTrips:
    def test_step_draws_accepted_then_declined_per_campaign(self):
        shard = _placed_shard(seed=9)
        twins = [_campaign_rng(9, live.spec.campaign_id) for live in shard.lives]
        posted = shard.prices(1)
        n = len(shard.lives)
        accept = np.linspace(0.001, 0.02, n)
        consider = accept * np.linspace(1.0, 3.0, n)
        before = shard.remaining.copy()
        considered, accepted = shard.step(1, 300.0, accept, consider, posted)
        want_accepted = [
            twin.poisson(300.0 * a) for twin, a in zip(twins, accept.tolist())
        ]
        want_declined = [
            twin.poisson(300.0 * max(c - a, 0.0))
            for twin, a, c in zip(twins, accept.tolist(), consider.tolist())
        ]
        assert accepted == sum(want_accepted)
        assert considered == sum(want_accepted) + sum(want_declined)
        assert shard.remaining.tolist() == [
            max(rem - got, 0) for rem, got in zip(before.tolist(), want_accepted)
        ]

    def test_columns_track_the_lives(self):
        shard = _placed_shard()
        for t in range(1, 4):
            _tick(shard, t)
            assert shard.remaining.tolist() == [live.remaining for live in shard.lives]

    def test_cancel_keeps_columns_aligned(self):
        shard = _placed_shard()
        _tick(shard, 1)
        before = [live.spec.campaign_id for live in shard.lives]
        position, outcome = shard.cancel("bg-a")
        assert outcome.cancelled and outcome.spec.campaign_id == "bg-a"
        assert before[position] == "bg-a"
        del before[position]
        assert [live.spec.campaign_id for live in shard.lives] == before
        assert shard.cancel("bg-a") is None
        assert len(shard.rngs) == len(shard.remaining) == len(shard.lives)
        assert shard.remaining.tolist() == [live.remaining for live in shard.lives]
        _assert_prices_match(shard, 2)

    def test_export_restore_continues_bit_identically(self):
        clean, interrupted = _placed_shard(), _placed_shard()
        assert _tick(clean, 1) == _tick(interrupted, 1)
        entries = interrupted.export()
        restored = _Shard(0)
        restored.attach(
            [live for live, _ in entries],
            [generator_from_state(state) for _, state in entries],
        )
        for t in range(2, 2 + HORIZON):
            assert _tick(restored, t) == _tick(clean, t)
            assert _snapshot(restored) == _snapshot(clean)
            assert restored.remaining.tolist() == clean.remaining.tolist()

    def test_retire_returns_positions_and_outcomes(self):
        shard = _placed_shard()
        expected = sorted(live.spec.campaign_id for live in shard.lives)
        last = max(live.spec.end_interval for live in shard.lives)
        seen = []
        for t in range(1, last):
            posted = shard.prices(t)
            accept = np.full(len(shard.lives), 0.004)
            shard.step(t, 200.0, accept, accept * 2, posted)
            before = [live.spec.campaign_id for live in shard.lives]
            positions, outcomes = shard.retire(t)
            assert [before[i] for i in positions] == [
                o.spec.campaign_id for o in outcomes
            ]
            seen.extend(o.spec.campaign_id for o in outcomes)
        assert not shard.lives and shard.remaining.size == 0
        assert sorted(seen) == expected


# ----------------------------------------------------------------------
# End to end: the batched seeder inside whole runs
# ----------------------------------------------------------------------
DIFF_TEMPLATES = (
    CampaignTemplate("cs-dl", DEADLINE, num_tasks=6, horizon_intervals=5,
                     max_price=12, penalty_per_task=20.0),
    CampaignTemplate("cs-bg", BUDGET, num_tasks=8, horizon_intervals=6,
                     max_price=10, per_task_budget=6.0),
)
DIFF_CAMPAIGNS = 1_000
DIFF_WAVE = 250
DIFF_INTERVALS = DIFF_CAMPAIGNS // DIFF_WAVE + 8


def _streamed_checksum(num_shards: int, executor: str) -> str:
    engine = ShardedEngine(
        SharedArrivalStream(np.full(DIFF_INTERVALS, 400.0)),
        paper_acceptance_model(),
        num_shards=num_shards,
        executor=executor,
    )
    engine.submit_source(StreamedWorkload(
        DIFF_CAMPAIGNS,
        DIFF_INTERVALS,
        seed=23,
        templates=DIFF_TEMPLATES,
        budget_fraction=0.25,
        campaigns_per_wave=DIFF_WAVE,
        id_prefix="cs",
    ))
    try:
        result = engine.run(seed=23, keep_outcomes=False)
    finally:
        engine.close()
    assert result.num_campaigns == DIFF_CAMPAIGNS
    return result.checksum


def test_batched_seeding_is_invisible_end_to_end(monkeypatch):
    calls = []
    batched = sharding._campaign_seed_words

    def counted(seed, crcs):
        calls.append(len(crcs))
        return batched(seed, crcs)

    monkeypatch.setattr(sharding, "_campaign_seed_words", counted)
    checksums = {
        "1 serial": _streamed_checksum(1, "serial"),
        "3 thread": _streamed_checksum(3, "thread"),
    }
    assert calls and min(calls) >= _BATCH_SEED_MIN
    checksums["2 process"] = _streamed_checksum(2, "process")
    monkeypatch.setattr(sharding, "_BATCH_SEED_MIN", DIFF_CAMPAIGNS + 1)
    calls.clear()
    checksums["1 serial, per-campaign seeding"] = _streamed_checksum(1, "serial")
    assert not calls
    assert len(set(checksums.values())) == 1, checksums
