"""The benchmark's three workloads: seeded inputs, one timed episode, checks.

Each workload turns ``--seed`` into a fixed set of inputs and runs them as
*episodes*: a fresh engine (or gateway) is built and started, which is the
timed set-up, then driven to completion, which is the timed run.  The
engine only ever receives the generated specs, source or request trace.

* ``adaptive-reprice`` — the default template pool with a quarter of the
  deadline campaigns re-planning online, on one serial shard, submitted
  so that re-solves land on every tick.  The paper's MDP re-solve
  (``AdaptiveRepricer`` calling ``solve_deadline``) dominates; IPC,
  outcome folding and the observability sinks do not appear.
* ``cheap-ticks`` — a streamed workload of tiny non-adaptive templates on
  one process shard per core with an aggregate-only outcome sink:
  per-campaign admission, IPC and the outcome fold dominate, and the
  repricer never runs.
* ``serve-mixed`` — an open-loop, quote/query-heavy request trace from
  three weighted tenants served through a pooled-engine ``Gateway`` with
  an ``EventLog`` and a ``MetricsRegistry`` attached, offered tick by
  tick as a closed loop.

The adaptive workload's composition is stratified rather than drawn
campaign by campaign: every block holds the same campaigns per template
and exactly one adaptive campaign in four per deadline template, and
blocks arrive at a fixed cadence, their campaigns spread over the
block's ticks.  With independent draws (``generate_workload``) the
number and shape of the adaptive campaigns, and with them the solve
work, varied by +-15% from seed to seed at this size, which is wider
than any bound a regression gate could use.  The seed still decides the
campaign ids, their order and ticks within each block (the adaptive
campaigns' ticks aside), and every arrival draw.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import os
import pathlib
import time
from typing import Callable

import numpy as np

from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignTemplate,
    DEFAULT_TEMPLATES,
    MarketplaceEngine,
    ShardedEngine,
    StreamedWorkload,
)
from repro.market.acceptance import paper_acceptance_model
from repro.obs.eventlog import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve import ClientMix, Gateway, LoadGenerator
from repro.serve.requests import is_mutating, request_kind
from repro.sim.stream import SharedArrivalStream

#: Worker processes of the process-sharded workload: one per core, so the
#: slowest shard sets each tick (``shard.skew``).
PROCESS_SHARDS = os.cpu_count() or 1

#: The tiny shapes of the streaming scale bench: each campaign's policy is
#: a cache hit after the first wave, so per-campaign overhead shows.
SCALE_TEMPLATES = (
    CampaignTemplate("sc-dl", DEADLINE, num_tasks=6, horizon_intervals=5,
                     max_price=12, penalty_per_task=20.0),
    CampaignTemplate("sc-bg", BUDGET, num_tasks=8, horizon_intervals=6,
                     max_price=10, per_task_budget=6.0),
)


@dataclasses.dataclass
class Episode:
    """What one timed episode measured.

    ``ticks`` are wall seconds of ``EngineCore.tick`` less its
    tick-boundary hooks (the gateway's queue drain), ``reads`` wall
    seconds of ``Gateway.offer`` for reads, and ``writes``
    offer-to-resolution seconds of mutating requests.  ``statuses``
    tallies responses by ``(kind, status)``.
    """

    setup_s: float
    wall_s: float
    ticks: list[float]
    retired: int
    checksum: str
    attempted: int
    failed: int
    reads: list[float] = dataclasses.field(default_factory=list)
    writes: list[float] = dataclasses.field(default_factory=list)
    statuses: dict = dataclasses.field(default_factory=dict)
    #: Engine counters of the episode (cache and batch-solver stats).
    counters: dict = dataclasses.field(default_factory=dict)
    #: Deepest mutating-request queue seen at a tick boundary.
    depth_max: int = 0


@dataclasses.dataclass
class Reference:
    """What every measured episode of a workload must reproduce."""

    checksum: str
    retired: int
    statuses: dict | None = None


def _arrival_means(num_intervals: int, level: float, swing: float, waves: float):
    return level + swing * np.sin(
        np.linspace(0.0, waves * 2.0 * np.pi, num_intervals)
    )


class Workload:
    """Base class: seeded inputs plus the episode and reference runners."""

    name = ""
    #: Set-ups timed back to back for one ``setup_s`` sample, so a sample
    #: lasts well above the timer's and the scheduler's noise.
    setup_batch = 1
    #: Wall seconds of one episode on the machine the benchmark was sized
    #: on (two cores, Python 3.11, numpy 2.4); it turns ``--seconds`` into
    #: a fixed episode count.
    nominal_episode_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> dict:
        """The input parameters, for the run record."""
        raise NotImplementedError

    def episode(self, tracer=None) -> Episode:
        """Build, start (timed set-up) and run (timed) one episode."""
        raise NotImplementedError

    def setup_only(self) -> float:
        """Time one set-up and tear it down again without running."""
        raise NotImplementedError

    def reference(self) -> Reference:
        """The expected outputs, from an independent reference run."""
        raise NotImplementedError

    def check(self, episode: Episode, reference: Reference) -> list[str]:
        """Differences between an episode's outputs and the reference."""
        errors = []
        if episode.checksum != reference.checksum:
            errors.append(
                f"{self.name}: retirement checksum {episode.checksum[:16]} != "
                f"reference {reference.checksum[:16]}"
            )
        if episode.retired != reference.retired:
            errors.append(
                f"{self.name}: {episode.retired} campaigns retired, "
                f"reference retired {reference.retired}"
            )
        if reference.statuses is not None and episode.statuses != reference.statuses:
            errors.append(
                f"{self.name}: response tally {sorted(episode.statuses.items())} "
                f"!= reference {sorted(reference.statuses.items())}"
            )
        return errors


# ----------------------------------------------------------------------
# Engine workloads (batch jobs)
# ----------------------------------------------------------------------
class _EngineWorkload(Workload):
    num_shards = 1
    executor = "serial"
    keep_outcomes = True

    def _stream(self) -> SharedArrivalStream:
        raise NotImplementedError

    def _load(self, engine) -> None:
        """Hand the generated inputs to a fresh engine."""
        raise NotImplementedError

    def _engine(self, num_shards: int, executor: str) -> ShardedEngine:
        engine = ShardedEngine(
            self._stream(),
            paper_acceptance_model(),
            num_shards=num_shards,
            executor=executor,
            planning="stationary",
        )
        self._load(engine)
        return engine

    def _start(self):
        started = time.perf_counter()
        engine = self._engine(self.num_shards, self.executor)
        core = engine.start(seed=self.seed, keep_outcomes=self.keep_outcomes)
        if self.executor == "process":
            # Workers fork lazily at the first placement; spawn them here
            # so the cost lands in set-up, not in the first tick.
            core.backend._ensure_workers()
        return engine, core, time.perf_counter() - started

    def setup_only(self) -> float:
        engine, _, setup_s = self._start()
        engine.close()
        return setup_s

    def episode(self, tracer=None) -> Episode:
        if tracer is not None:
            tracer.before_start()
        engine, core, setup_s = self._start()
        try:
            if tracer is not None:
                tracer.attach_engine(engine, core)
            ticks = []
            tick = core.tick
            clock = time.perf_counter
            started = clock()
            while not core.done:
                t0 = clock()
                tick()
                ticks.append(clock() - t0)
            wall_s = clock() - started
            result = core.result()
        finally:
            if tracer is not None:
                tracer.detach()
            engine.close()
        return Episode(
            setup_s=setup_s,
            wall_s=wall_s,
            ticks=ticks,
            retired=result.num_campaigns,
            checksum=result.checksum,
            attempted=self.num_campaigns,
            failed=self.num_campaigns - result.num_campaigns,
            counters=_engine_counters(result),
        )

    def reference(self) -> Reference:
        engine = self._engine(1, "serial")
        try:
            result = engine.run(seed=self.seed, keep_outcomes=False)
        finally:
            engine.close()
        return Reference(result.checksum, result.num_campaigns)


def _engine_counters(result) -> dict:
    stats = result.cache_stats
    batch = result.batch_stats
    return {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "batch_batches": batch.batches if batch else 0,
        "batch_instances": batch.instances if batch else 0,
    }


class AdaptiveReprice(_EngineWorkload):
    """Default template pool, 1 in 4 deadline campaigns adaptive, 1 serial shard."""

    name = "adaptive-reprice"
    #: A set-up here builds one in-process engine (~0.15 ms).
    setup_batch = 128
    nominal_episode_s = 2.6
    #: Per block: campaigns per deadline template (one of them adaptive)
    #: and per budget template.
    DEADLINE_PER_BLOCK = 4
    BUDGET_PER_BLOCK = 3
    #: Ticks per block; equal to the campaigns' default ``resolve_every``.
    #: A campaign re-solves every ``resolve_every`` ticks from its own
    #: submission, so each block's adaptive campaigns are submitted one
    #: per tick of the block, rotating by template from block to block:
    #: every tick then carries re-solves, and the tick median is the
    #: re-solving tick the workload exists to measure.
    BLOCK_STRIDE = 4

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        self.blocks = 1 if smoke else 6
        self.num_intervals = self.blocks * self.BLOCK_STRIDE + max(
            t.horizon_intervals for t in DEFAULT_TEMPLATES
        )
        self.specs = self._generate()
        self.num_campaigns = len(self.specs)

    def _generate(self):
        rng = np.random.default_rng([self.seed, 0xADA])
        specs = []
        stride = self.BLOCK_STRIDE
        for block in range(self.blocks):
            deck = []
            deadlines = 0
            for template in DEFAULT_TEMPLATES:
                if template.kind == DEADLINE:
                    # The adaptive campaign's tick within the block.
                    adaptive_tick = (deadlines + block) % stride
                    deadlines += 1
                    flags = [True] + [False] * (self.DEADLINE_PER_BLOCK - 1)
                else:
                    adaptive_tick = 0
                    flags = [False] * self.BUDGET_PER_BLOCK
                deck.extend((template, adaptive, adaptive_tick) for adaptive in flags)
            for position, j in enumerate(rng.permutation(len(deck))):
                template, adaptive, adaptive_tick = deck[j]
                offset = adaptive_tick if adaptive else position % stride
                specs.append(template.spec(
                    campaign_id=f"ar{len(specs):04d}-{rng.integers(1 << 32):08x}",
                    submit_interval=block * stride + offset,
                    adaptive=adaptive,
                ))
        return specs

    def _stream(self) -> SharedArrivalStream:
        return SharedArrivalStream(
            _arrival_means(self.num_intervals, 1500.0, 600.0, 3.0)
        )

    def _load(self, engine) -> None:
        engine.submit(self.specs)

    def describe(self) -> dict:
        return {
            "campaigns": self.num_campaigns,
            "adaptive": sum(s.adaptive for s in self.specs),
            "intervals": self.num_intervals,
            "shards": "1 serial",
            "planning": "stationary",
        }


class CheapTicks(_EngineWorkload):
    """Streamed tiny templates, one process shard per core, aggregate-only sink."""

    name = "cheap-ticks"
    #: A set-up here forks the worker processes (~10 ms).
    setup_batch = 4
    nominal_episode_s = 1.8
    num_shards = PROCESS_SHARDS
    executor = "process"
    keep_outcomes = False
    CAMPAIGNS_PER_WAVE = 250

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        self.num_campaigns = 1_000 if smoke else 7_000
        waves = -(-self.num_campaigns // self.CAMPAIGNS_PER_WAVE)
        self.num_intervals = waves + 8

    def _stream(self) -> SharedArrivalStream:
        return SharedArrivalStream(np.full(self.num_intervals, 400.0))

    def _load(self, engine) -> None:
        engine.submit_source(self._source())

    def _source(self) -> StreamedWorkload:
        return StreamedWorkload(
            self.num_campaigns,
            self.num_intervals,
            seed=self.seed,
            templates=SCALE_TEMPLATES,
            budget_fraction=0.25,
            adaptive_fraction=0.0,
            campaigns_per_wave=self.CAMPAIGNS_PER_WAVE,
            id_prefix="ct",
        )

    def describe(self) -> dict:
        return {
            "campaigns": self.num_campaigns,
            "campaigns_per_wave": self.CAMPAIGNS_PER_WAVE,
            "intervals": self.num_intervals,
            "shards": f"{PROCESS_SHARDS} process",
            "sink": "aggregate-only",
        }


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    """A read-heavy three-tenant trace through a gateway with sinks attached."""

    name = "serve-mixed"
    #: A set-up here opens an event log and starts its writer (~6 ms).
    setup_batch = 4
    nominal_episode_s = 4.3
    RATE = 480.0
    MIX = ClientMix(submit=0.015, quote=0.595, cancel=0.01, query=0.38)
    TENANT_WEIGHTS = {"gold": 3.0, "silver": 2.0, "bronze": 1.0}
    #: Per-boundary drain budget, above the ~12 mutations a tick brings,
    #: so the queue stays bounded while bursts still wait a tick.
    MAX_DRAIN = 16

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        self.num_intervals = 30 if smoke else 64
        rate = 60.0 if smoke else self.RATE
        self.trace = LoadGenerator(
            self.num_intervals,
            seed=seed,
            clients=9,
            rate=rate,
            mix=self.MIX,
            adaptive_fraction=0.0,
            tenants=tuple(self.TENANT_WEIGHTS),
        ).trace("open")
        self.workdir = _default_workdir()
        self._episodes = 0

    def describe(self) -> dict:
        kinds = collections.Counter(
            request_kind(r.request) for r in self.trace.requests
        )
        return {
            "requests": self.trace.num_requests,
            "kinds": dict(sorted(kinds.items())),
            "intervals": self.num_intervals,
            "tenants": self.TENANT_WEIGHTS,
            "max_drain": self.MAX_DRAIN,
            "engine": "pooled",
        }

    def _gateway(self, sinks: bool):
        engine = MarketplaceEngine(
            SharedArrivalStream(
                _arrival_means(self.num_intervals, 1200.0, 400.0, 2.0)
            ),
            paper_acceptance_model(),
            planning="stationary",
        )
        log = registry = None
        if sinks:
            self._episodes += 1
            self.workdir.mkdir(parents=True, exist_ok=True)
            log = EventLog(self.workdir / f"events-{os.getpid()}-{self._episodes}.db")
            registry = MetricsRegistry()
        gateway = Gateway(
            engine,
            max_drain=self.MAX_DRAIN,
            tenant_weights=self.TENANT_WEIGHTS,
            event_log=log,
            metrics=registry,
        )
        gateway.start(seed=self.seed)
        return gateway, log

    def _close(self, gateway, log) -> None:
        gateway.close()
        if log is not None:
            log.close()
            for path in self.workdir.glob(log.path.name + "*"):
                path.unlink()
            try:
                self.workdir.rmdir()
            except OSError:
                pass  # another run's log is still there

    def setup_only(self) -> float:
        started = time.perf_counter()
        gateway, log = self._gateway(sinks=True)
        setup_s = time.perf_counter() - started
        self._close(gateway, log)
        return setup_s

    def episode(self, tracer=None) -> Episode:
        started = time.perf_counter()
        gateway, log = self._gateway(sinks=True)
        setup_s = time.perf_counter() - started
        try:
            if tracer is not None:
                tracer.attach_gateway(gateway, log)
            episode = self._drive(gateway, tracer)
            episode.setup_s = setup_s
            core = gateway.core
            result = core.result()
            episode.retired = result.num_campaigns
            episode.checksum = result.checksum
            episode.counters = _engine_counters(result)
            episode.depth_max = max(
                gateway.telemetry.serve["queue_depth"], default=0
            )
        finally:
            if tracer is not None:
                tracer.detach()
            self._close(gateway, log)
        return episode

    def _drive(self, gateway, tracer) -> Episode:
        """``Gateway.replay`` of the trace, with every offer and tick timed.

        ``offer`` and ``step`` are replaced on the gateway instance, which
        ``replay`` calls them through.
        """
        clock = time.perf_counter
        core = gateway.core
        reads: list[float] = []
        writes: list[float] = []
        ticks: list[float] = []
        # Tallied on resolution, so no response outlives its request: a
        # loop that kept every ticket would grow the heap the cyclic
        # garbage collector scans and slow the gateway it measures.
        statuses: collections.Counter = collections.Counter()
        offer = gateway.offer if tracer is None else tracer.timed_offer(gateway)
        if tracer is not None:
            tracer.trace_step(gateway)
        # Tick latency is the engine clock's pricing decision, as on the
        # batch workloads: EngineCore.tick less its tick-boundary hook, the
        # gateway's queue drain, which is timed apart (admission.drain_s)
        # because it applies requests rather than prices campaigns.
        tick = core.tick
        drain = gateway._drain_hook
        if tracer is not None:
            drain = tracer.wrap("serve.admission:drain", drain)
        drained = 0.0

        def timed_drain(hook_core):
            nonlocal drained
            t0 = clock()
            try:
                drain(hook_core)
            finally:
                drained += clock() - t0

        def timed_tick():
            nonlocal drained
            drained = 0.0
            t0 = clock()
            try:
                return tick()
            finally:
                ticks.append(clock() - t0 - drained)

        core.remove_tick_boundary_hook(gateway._drain_hook)
        core.add_tick_boundary_hook(timed_drain)
        core.tick = timed_tick

        def resolved(offered_at, ticket):
            writes.append(clock() - offered_at)
            statuses[ticket.response.kind, ticket.response.status] += 1

        def timed_offer(request, client, tenant):
            t0 = clock()
            ticket = offer(request, client, tenant)
            if is_mutating(request):
                ticket.add_done_callback(functools.partial(resolved, t0))
            else:
                reads.append(clock() - t0)
                statuses[ticket.response.kind, ticket.response.status] += 1
            # No ticket for replay's list to keep.

        gateway.offer = timed_offer
        started = clock()
        delivered = len(gateway.replay(self.trace))
        wall_s = clock() - started
        failed = sum(c for (_, status), c in statuses.items() if status != "ok")
        return Episode(
            setup_s=0.0,
            wall_s=wall_s,
            ticks=ticks,
            retired=0,
            checksum="",
            attempted=delivered,
            failed=failed,
            reads=reads,
            writes=writes,
            statuses=dict(statuses),
        )

    def reference(self) -> Reference:
        """The same trace replayed through a gateway with no sinks."""
        gateway, log = self._gateway(sinks=False)
        try:
            tickets = gateway.replay(self.trace)
            result = gateway.core.result()
        finally:
            self._close(gateway, log)
        return Reference(result.checksum, result.num_campaigns, _tally(tickets))


def _tally(tickets) -> dict:
    return dict(
        collections.Counter(
            (t.response.kind, t.response.status) for t in tickets
        )
    )


def _default_workdir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent / ".work"


WORKLOADS: dict[str, Callable[..., Workload]] = {
    AdaptiveReprice.name: AdaptiveReprice,
    CheapTicks.name: CheapTicks,
    ServeMixed.name: ServeMixed,
}
