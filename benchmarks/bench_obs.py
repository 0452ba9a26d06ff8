"""Event-log overhead: the durable log must not tax the tick loop.

The observability contract (docs/observability.md) is that the event log
rides *off* the tick path — appends go into a bounded in-memory buffer
and a background writer batches them into sqlite, so the deterministic
tick loop never waits on the disk.  This file measures that claim on the
scenario tick loop: the same churn-heavy scenario run twice, without and
with an :class:`~repro.obs.eventlog.EventLog` wired into the
:class:`~repro.scenario.driver.ScenarioDriver`, best-of-``REPEATS``
wall-clock each way.  The acceptance bar is **< 5% overhead** in full
mode; the result is recorded under the ``"obs"`` key of
``BENCH_engine.json``.

A second, ungated arm measures the serving path, where the log is busiest:
a quote/query-heavy gateway trace replayed with and without an event log
(every request logs a request row and a response row from the serving
thread).  It records events per second and the logged/unlogged throughput
ratio under ``BENCH_engine.json["obs"]["serve"]``.

Smoke mode: set ``REPRO_BENCH_SMOKE=1`` (CI does, via ``make
obs-smoke``) to shrink the horizon and loosen the bar — a contended CI
runner can't resolve single-digit percent differences over a tiny run,
so smoke mode only guards against pathological regressions (log on the
hot path, a blocking flush); the committed ``BENCH_engine.json`` record
is only rewritten by full (non-smoke) runs.

Run:  pytest benchmarks/bench_obs.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sqlite3
import statistics
import tempfile
import time

import numpy as np

from repro.engine import MarketplaceEngine, generate_workload
from repro.market.acceptance import paper_acceptance_model
from repro.obs import EventLog
from repro.scenario import ScenarioDriver, canned_scenario
from repro.serve import ClientMix, Gateway, LoadGenerator
from repro.sim.stream import SharedArrivalStream

#: CI smoke mode: tiny horizon, same code paths.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_INTERVALS = 32 if SMOKE else 96
BASE_CAMPAIGNS = 8 if SMOKE else 24
SEED = 29
REPEATS = 2 if SMOKE else 3
#: The acceptance bar: logged vs unlogged tick-loop wall-clock.  Full
#: mode holds the documented < 5%; smoke mode exists to catch a log
#: moved onto the hot path, not to flake on runner contention.
REQUIRED_MAX_OVERHEAD = 0.50 if SMOKE else 0.05

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def make_engine(num_intervals: int) -> MarketplaceEngine:
    means = 1200.0 + 400.0 * np.sin(
        np.linspace(0.0, 4.0 * np.pi, num_intervals)
    )
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary",
    )


def make_driver(event_log=None) -> ScenarioDriver:
    engine = make_engine(NUM_INTERVALS)
    engine.submit(generate_workload(BASE_CAMPAIGNS, NUM_INTERVALS, seed=SEED))
    scenario = canned_scenario("black-friday", NUM_INTERVALS, seed=SEED)
    return ScenarioDriver(engine, scenario, event_log=event_log)


def timed_run(event_log=None) -> tuple[float, ScenarioDriver]:
    """One full scenario run; returns (tick-loop seconds, driver)."""
    driver = make_driver(event_log=event_log)
    driver.start()
    started = time.perf_counter()
    while not driver.done:
        driver.step()
    seconds = time.perf_counter() - started
    core = driver.core
    assert core is not None
    core.close()
    return seconds, driver


def test_event_log_overhead(emit):
    """Logged vs unlogged scenario loop -> BENCH_engine.json 'obs'."""
    # Warm-up once (policy cache, numpy dispatch, CPU frequency), then
    # best-of-REPEATS for each arm, the arms alternating so frequency
    # scaling and cache drift hit both equally.
    timed_run()
    baseline_seconds = []
    logged_seconds = []
    events_written = 0
    ticks = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(REPEATS):
            baseline_seconds.append(timed_run()[0])
            log = EventLog(pathlib.Path(tmp) / f"events-{i}.sqlite")
            seconds, driver = timed_run(event_log=log)
            log.sync()
            events_written = log.last_seq
            ticks = driver.telemetry.num_ticks
            log.close()
            logged_seconds.append(seconds)
    baseline = min(baseline_seconds)
    logged = min(logged_seconds)
    overhead = logged / baseline - 1.0
    assert overhead <= REQUIRED_MAX_OVERHEAD, (
        f"event log added {overhead:+.1%} to the scenario tick loop "
        f"(bar: {REQUIRED_MAX_OVERHEAD:.0%}); the writer may have landed "
        "on the tick path"
    )
    # The log must actually have been exercised for the number to mean
    # anything: every tick writes at least its summary row.
    assert events_written > ticks

    lines = [
        f"event-log overhead: {ticks} ticks, {events_written} events"
        f"{' (smoke)' if SMOKE else ''}",
        "",
        f"baseline   : {baseline:8.3f}s tick loop (best of {REPEATS})",
        f"logged     : {logged:8.3f}s with durable event log",
        f"overhead   : {overhead:+8.1%} (bar: {REQUIRED_MAX_OVERHEAD:.0%})",
    ]
    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record.setdefault("obs", {}).update({
            "workload": {
                "scenario": "black-friday",
                "stream_intervals": NUM_INTERVALS,
                "base_campaigns": BASE_CAMPAIGNS,
                "seed": SEED,
            },
            "baseline_seconds": round(baseline, 4),
            "logged_seconds": round(logged, 4),
            "overhead_fraction": round(overhead, 4),
            "required_max_overhead": REQUIRED_MAX_OVERHEAD,
            "events_written": events_written,
        })
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("obs_overhead", "\n".join(lines))


# ----------------------------------------------------------------------
# Serve-path arm (ungated)
# ----------------------------------------------------------------------
SERVE_INTERVALS = 16 if SMOKE else 48
#: Mean requests per tick: the read-heavy mix of the serving benchmark.
SERVE_RATE = 60.0 if SMOKE else 360.0
SERVE_PAIRS = 2 if SMOKE else 7


def serve_trace():
    return LoadGenerator(
        SERVE_INTERVALS,
        seed=SEED,
        clients=9,
        rate=SERVE_RATE,
        mix=ClientMix(submit=0.015, quote=0.595, cancel=0.01, query=0.38),
        adaptive_fraction=0.0,
    ).trace("open")


def timed_replay(trace, event_log=None) -> tuple[float, int]:
    """One served replay; returns (seconds, requests answered).

    With a log, the clock stops once every event is committed, so the
    writer's backlog is charged to the logged arm.
    """
    gateway = Gateway(make_engine(SERVE_INTERVALS), event_log=event_log)
    gateway.start(seed=SEED)
    started = time.perf_counter()
    tickets = gateway.replay(trace)
    if event_log is not None:
        event_log.sync()
    seconds = time.perf_counter() - started
    gateway.close()
    return seconds, len(tickets)


def test_serve_event_log_throughput(emit):
    """Gateway replay with vs without the log -> 'obs' / 'serve'."""
    trace = serve_trace()
    timed_replay(trace)  # warm-up: policy cache, numpy dispatch
    base_seconds, logged_seconds, ratios = [], [], []
    events = answered = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(SERVE_PAIRS):
            base, answered = timed_replay(trace)
            log = EventLog(pathlib.Path(tmp) / f"serve-{i}.sqlite")
            logged, _ = timed_replay(trace, event_log=log)
            events = log.last_seq
            log.close()
            base_seconds.append(base)
            logged_seconds.append(logged)
            ratios.append(base / logged)
    # Two rows (request, response) per answered request, plus run markers.
    assert events >= 2 * answered
    base = statistics.median(base_seconds)
    logged = statistics.median(logged_seconds)
    ratio = statistics.median(ratios)
    events_per_s = events / logged
    lines = [
        f"serve-path event log: {answered} requests, {events} events, "
        f"{SERVE_PAIRS} pairs{' (smoke)' if SMOKE else ''}",
        "",
        f"unlogged   : {answered / base:10,.0f} req/s (median)",
        f"logged     : {answered / logged:10,.0f} req/s, "
        f"{events_per_s:,.0f} events/s committed",
        f"ratio      : {ratio:.3f} logged/unlogged throughput "
        f"(pairs: {min(ratios):.3f} .. {max(ratios):.3f}; not gated)",
    ]
    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record.setdefault("obs", {})["serve"] = {
            "workload": {
                "requests": answered,
                "stream_intervals": SERVE_INTERVALS,
                "rate_per_tick": SERVE_RATE,
                "seed": SEED,
                "pairs": SERVE_PAIRS,
            },
            "unlogged_requests_per_second": round(answered / base, 1),
            "logged_requests_per_second": round(answered / logged, 1),
            "events": events,
            "events_per_second": round(events_per_s, 1),
            "throughput_ratio": round(ratio, 4),
            "throughput_ratio_range": [round(min(ratios), 4),
                                       round(max(ratios), 4)],
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "sqlite": sqlite3.sqlite_version,
            },
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("obs_serve_overhead", "\n".join(lines))
