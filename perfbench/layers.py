"""Per-layer tracing from outside the program: wrappers, spans, the table.

A :class:`LayerTracer` wraps the public entry points of each layer of one
running episode — instance attributes of that episode's engine, planner,
backend, router, sink, gateway and event log, plus a few module and class
attributes (the repricer's ``solve_deadline``, the metric instruments,
``StreamedWorkload.iterate``) — and times every call on the main
thread.  Spans nest on a stack, so each layer gets its total and its self
time (total minus the time of traced calls it made).  :meth:`detach`
restores every attribute it replaced.  Span names are
``"<layer>:<call>"``, with the layer named after the repository module.
"""

from __future__ import annotations

import collections
import statistics
import threading
import time
from multiprocessing.reduction import ForkingPickler

import repro.core.deadline.adaptive as adaptive_module
from repro.engine import StreamedWorkload
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.serve.requests import request_kind

_MISSING = object()

#: Clock phases recorded by ``PhaseTimings``.
PHASES = ("admission", "price", "split", "observe", "retire")


class _CountingConn:
    """A pipe ``Connection`` that counts the pickled bytes it moves.

    ``send``/``recv`` pickle exactly as ``Connection.send``/``recv`` do,
    so the bytes counted are the bytes on the pipe.
    """

    def __init__(self, conn, tracer: "LayerTracer"):
        self._conn = conn
        self._tracer = tracer

    def send(self, obj) -> None:
        buf = ForkingPickler.dumps(obj)
        self._tracer.count_message(len(buf))
        self._conn.send_bytes(buf)

    def recv(self):
        buf = self._conn.recv_bytes()
        self._tracer.count_message(len(buf))
        return ForkingPickler.loads(buf)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class LayerTracer:
    """Spans and counters for the layers of the episodes it is attached to."""

    def __init__(self) -> None:
        self._thread = threading.get_ident()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.total: dict[str, float] = collections.defaultdict(float)
        self.self_time: dict[str, float] = collections.defaultdict(float)
        self.calls: dict[str, int] = collections.defaultdict(int)
        self.units: dict[str, int] = collections.defaultdict(int)
        self.top_level = 0.0
        self.phases: dict[str, float] = collections.defaultdict(float)
        self.counters: dict[str, float] = collections.defaultdict(float)
        self.episodes = 0
        self.wall = 0.0
        self.ticks = 0
        self.depth_max = 0
        self.shard_compute = 0.0
        self.shard_ipc = 0.0
        self.shard_mean = 0.0
        self.messages = 0
        self.bytes = 0
        self.other_threads_cpu = 0.0
        self._cpu_mark = (0.0, 0.0)
        self._step_wall = 0.0
        self._core = None
        self._own_timings = False
        self.backend_layer = "engine.sharding"

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, units=None):
        """``fn`` timed as span ``name``; ``units(args)`` counts work items."""

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                self.calls[name] += 1
                if units is not None:
                    self.units[name] += units(args)
                if self._stack:
                    self._stack[-1] += elapsed
                else:
                    self.top_level += elapsed

        return traced

    def _patch(self, owner, attr: str, name: str, units=None, wrapper=None) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`detach`."""
        original = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr)
        traced = wrapper(current) if wrapper else self.wrap(name, current, units)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count_message(self, size: int) -> None:
        """One pipe message of ``size`` bytes, seen at the coordinator."""
        self.messages += 1
        self.bytes += size

    # ------------------------------------------------------------------
    # Attaching to one episode
    # ------------------------------------------------------------------
    def before_start(self) -> None:
        """Patches that must be in place before the session starts."""
        original = StreamedWorkload.iterate
        pull = "engine.source:pull"

        def iterate(source, skip=0):
            advance = self.wrap(pull, original(source, skip).__next__)
            while True:
                try:
                    spec = advance()
                except StopIteration:
                    return
                yield spec

        self._undo.append((StreamedWorkload, "iterate", original))
        StreamedWorkload.iterate = iterate

    def attach_engine(self, engine, core) -> None:
        """Wrap the layers of one started engine session."""
        self._core = core
        self._cpu_mark = (time.process_time(), time.thread_time())
        self._own_timings = core.phase_timings is None
        if self._own_timings:
            core.enable_phase_timings()
        planner = engine.planner
        self._patch(planner, "admit_many", "engine.planning:admit_many",
                    units=lambda args: len(args[0]))
        solver = planner.batch_solver
        for kind in ("deadline", "budget"):
            self._patch(solver, f"solve_{kind}_many", f"core.batch:{kind}",
                        units=lambda args: len(args[0]))
        self._patch(adaptive_module, "solve_deadline", "core.deadline:resolve")
        router = engine.router
        self._patch(router, "fractions", "engine.routing:fractions")
        self._patch(router, "split", "engine.routing:split")
        backend = core.backend
        layer = self.backend_layer = {
            "_ProcessBackend": "engine.procpool",
            "_FactoredBackend": "engine.sharding",
        }.get(type(backend).__name__, "engine.engine")
        self._patch(backend, "place", f"{layer}:place")
        step_name = f"{layer}:step"

        def timed_step(step):
            traced = self.wrap(step_name, step)

            def run(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._step_wall += time.perf_counter() - started

            return run

        self._patch(backend, "step", step_name, wrapper=timed_step)
        self._patch(backend, "retire", f"{layer}:retire")
        workers = getattr(backend, "_workers", None)
        if workers:
            self._undo.append((backend, "_workers", workers))
            backend._workers = [
                (proc, _CountingConn(conn, self)) for proc, conn in workers
            ]
        self._patch(core.sink, "extend", "engine.outcomes:fold")
        self._patch(core, "tick", "engine.clock:tick", wrapper=self._timed_tick)

    def _timed_tick(self, tick):
        traced = self.wrap("engine.clock:tick", tick)
        timings = self._core.phase_timings

        def run():
            before = {s: sum(v.values()) for s, v in timings.shard_totals.items()}
            self._step_wall = 0.0
            report = traced()
            deltas = [
                sum(v.values()) - before.get(s, 0.0)
                for s, v in timings.shard_totals.items()
            ]
            self.ticks += 1
            if deltas and self._step_wall:
                slowest = max(deltas)
                self.shard_compute += slowest
                self.shard_ipc += self._step_wall - slowest
                self.shard_mean += statistics.fmean(deltas)
            return report

        return run

    def attach_gateway(self, gateway, log) -> None:
        """Wrap one started gateway, its engine session and its sinks."""
        core = gateway.core
        self.attach_engine(gateway.engine, core)
        self._patch(log, "log", "obs.eventlog:log")
        self._patch(log, "flush", "obs.eventlog:flush")
        for cls, attrs in ((Counter, ("inc",)), (Gauge, ("set", "inc", "dec")),
                           (Histogram, ("observe",))):
            for attr in attrs:
                self._patch(cls, attr, "obs.metrics:update")

    def timed_offer(self, gateway):
        """``gateway.offer`` timed per request kind."""
        original = gateway.offer
        by_kind = {}

        def offer(request, client, tenant):
            kind = request_kind(request)
            fn = by_kind.get(kind)
            if fn is None:
                fn = by_kind[kind] = self.wrap(f"serve.gateway:{kind}", original)
            return fn(request, client, tenant)

        return offer

    def trace_step(self, gateway) -> None:
        """Time ``gateway.step`` as a span until :meth:`detach`."""
        self._patch(gateway, "step", "serve.gateway:step")

    def detach(self) -> None:
        """Undo every patch and fold the session's phase timings in."""
        core = self._core
        if core is not None:
            # CPU this process spent off the main thread: the event-log
            # writer, which runs beside the layers and contends for the GIL.
            process_cpu, thread_cpu = self._cpu_mark
            self.other_threads_cpu += max(0.0, (time.process_time() - process_cpu) - (
                time.thread_time() - thread_cpu))
        if core is not None and core.phase_timings is not None:
            for phase, seconds in core.phase_timings.totals.items():
                self.phases[phase] += seconds
            if self._own_timings:
                core.disable_phase_timings()
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._core = None

    def end_episode(self, episode) -> None:
        """Count one finished traced episode."""
        self.episodes += 1
        self.wall += episode.wall_s
        self.depth_max = max(self.depth_max, episode.depth_max)
        for key, value in episode.counters.items():
            self.counters[key] += value

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_rows(self) -> list[tuple[str, float, float, int]]:
        """``(layer, total_s, self_s, calls)`` per layer, per episode.

        The ``bench.loop`` row is the traced wall time no layer span
        covers (the benchmark's own loop), so the self times sum to the
        wall.
        """
        n = max(self.episodes, 1)
        totals = collections.defaultdict(lambda: [0.0, 0.0, 0])
        for span, seconds in self.total.items():
            row = totals[span.split(":", 1)[0]]
            row[0] += seconds / n
            row[1] += self.self_time[span] / n
            row[2] += self.calls[span]
        rows = [(layer, t, s, round(c / n)) for layer, (t, s, c) in totals.items()]
        rows.sort(key=lambda row: -row[2])
        loop = (self.wall - self.top_level) / n
        rows.append(("bench.loop", loop, loop, 0))
        return rows

    def dominant_layer(self) -> tuple[str, float]:
        """The layer with the largest self time, and its share of the wall."""
        rows = [row for row in self.layer_rows() if row[0] != "bench.loop"]
        if not rows or self.wall <= 0:
            return "none", 0.0
        layer, _, self_s, _ = max(rows, key=lambda row: row[2])
        return layer, self_s * self.episodes / self.wall

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of ``BENCHMARK.json``, per episode."""
        n = max(self.episodes, 1)

        def span(*names):
            return sum(self.total.get(name, 0.0) for name in names) / n

        def layer_total(layer):
            return sum(
                t for name, t in self.total.items() if name.startswith(layer + ":")
            ) / n

        admitted = self.units.get("engine.planning:admit_many", 0)
        admit_s = span("engine.planning:admit_many")
        hits = self.counters["cache_hits"]
        misses = self.counters["cache_misses"]
        batches = self.counters["batch_batches"]
        instances = self.counters["batch_instances"]
        tick_s = span("engine.clock:tick")
        drain_s = span("serve.admission:drain")
        phase_s = {p: self.phases[p] / n for p in PHASES}
        ticks = max(self.ticks, 1)
        m = {
            "planning.admit_s": (admit_s, "s"),
            "planning.admit_us_per_campaign": (
                1e6 * admit_s * n / admitted if admitted else 0.0, "us"),
            "cache.hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "cache.misses": (misses / n, "count"),
            "batch.solve_s": (span("core.batch:deadline", "core.batch:budget"), "s"),
            "batch.instances": (instances / n, "count"),
            "batch.mean_batch": (instances / batches if batches else 0.0, "count"),
            "repricer.solve_s": (span("core.deadline:resolve"), "s"),
            "repricer.solves": (
                self.calls.get("core.deadline:resolve", 0) / n, "count"),
            "repricer.share": (
                self.total.get("core.deadline:resolve", 0.0) / self.wall
                if self.wall else 0.0, "ratio"),
            "routing.fractions_s": (
                span("engine.routing:fractions", "engine.routing:split"), "s"),
        }
        for phase in PHASES:
            m[f"clock.{phase}_s"] = (phase_s[phase], "s")
        m["clock.other_s"] = (tick_s - sum(phase_s.values()) - drain_s, "s")
        m.update({
            "shard.place_s": (span(f"{self.backend_layer}:place"), "s"),
            "shard.compute_s": (self.shard_compute / n, "s"),
            "shard.ipc_s": (self.shard_ipc / n, "s"),
            "shard.skew": (
                self.shard_compute / self.shard_mean if self.shard_mean else 0.0,
                "ratio"),
            "shard.msgs_per_tick": (self.messages / ticks, "msgs/tick"),
            "shard.bytes_per_tick": (self.bytes / ticks, "B/tick"),
            "outcomes.fold_s": (span("engine.outcomes:fold"), "s"),
            "source.pull_s": (span("engine.source:pull"), "s"),
            "gateway.quote_s": (span("serve.gateway:quote"), "s"),
            "gateway.query_s": (span("serve.gateway:query-telemetry"), "s"),
            "gateway.step_s": (span("serve.gateway:step"), "s"),
            "admission.drain_s": (drain_s, "s"),
            "admission.depth_max": (float(self.depth_max), "count"),
            "eventlog.log_s": (span("obs.eventlog:log"), "s"),
            "eventlog.flush_s": (span("obs.eventlog:flush"), "s"),
            "eventlog.events": (self.calls.get("obs.eventlog:log", 0) / n, "count"),
            "eventlog.writer_cpu_s": (self.other_threads_cpu / n, "s"),
            "metrics.update_s": (layer_total("obs.metrics"), "s"),
            "metrics.updates": (self.calls.get("obs.metrics:update", 0) / n, "count"),
        })
        return m

    def table(self) -> str:
        """The per-layer table: per-episode seconds and share of the wall."""
        lines = [
            f"traced: {self.episodes} episodes, {self.wall:.3f}s wall, "
            f"{self.ticks} ticks",
            f"  {'layer':<18} {'total s/ep':>11} {'self s/ep':>11} "
            f"{'self share':>10} {'calls/ep':>9}",
        ]
        n = max(self.episodes, 1)
        wall = self.wall / n if self.wall else 1.0
        for layer, total_s, self_s, calls in self.layer_rows():
            lines.append(
                f"  {layer:<18} {total_s:11.4f} {self_s:11.4f} "
                f"{self_s / wall:10.1%} {calls:9d}"
            )
        lines.append("  clock phases (inside engine.clock:tick, per episode):")
        m = self.metrics()
        keys = [f"clock.{p}_s" for p in PHASES] + ["clock.other_s", "admission.drain_s"]
        for key in keys:
            value = m[key][0]
            lines.append(f"    {key:<20} {value:9.4f}s {value / wall:7.1%}")
        lines.append(
            f"  off the main thread (event-log writer), concurrent: "
            f"{m['eventlog.writer_cpu_s'][0]:.4f} CPU s/ep"
        )
        layer, share = self.dominant_layer()
        lines.append(
            f"  dominant layer: {layer} ({share:.1%} of traced wall, self time)"
        )
        return "\n".join(lines)
