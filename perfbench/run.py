"""Layer-by-layer benchmark of the marketplace engine and serving gateway.

One run measures one workload for about ``--seconds`` and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Untraced runs (``--trace 0``) report the end-to-end metrics
of ``BENCHMARK.json``; traced runs (``--trace 1``) spend the first half of
the time untraced and the second half with every layer wrapped, and report
the per-layer metrics, the untraced half's tick p90, campaign throughput,
serving latencies and failure share, and ``trace.overhead_frac`` (the
traced episodes' median wall over the untraced ones', minus one).

A run measures a fixed number of episodes, set by ``--seconds`` and the
workload's nominal episode time (and raised until the samples hold every
reported percentile), so a slower or faster build is measured with the
same statistic; the values are medians and percentiles over every
episode.  After measuring, a run replays its inputs once on the reference
configuration (one serial shard for the engine workloads; the gateway
with no sinks for ``serve-mixed``), and every measured episode must
reproduce that run's retirement checksum (and, when serving, its
response-status tally).  A mismatch prints ``"correct": false`` and exits 1.

Usage, from the repository root::

    python3 perfbench/run.py --workload cheap-ticks --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload serve-mixed --seed 2 --record base.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

``--workload all`` runs every workload untraced and traced, each in a
fresh process (peak RSS is per process).  ``--record FILE`` appends the
run's record (workload, seed, inputs, environment and result) as one JSON
line; ``--compare`` reads two such files.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: The program under test, imported from source.
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402

#: Fewest ``setup_s`` samples per run; each times a batch of set-ups.
SETUP_SAMPLES = 15
#: ``setup_s`` samples taken before each untraced episode.  Spread over
#: the run, they see the machine's slow and fast spells alike: on the
#: two-core machine the benchmark was sized on, back-to-back batches of
#: set-ups ran 1.5x faster or slower together for seconds at a time.
SETUPS_PER_EPISODE = 2
#: Fewest measured episodes per phase, whatever ``--seconds`` says.
MIN_EPISODES = 3
#: A phase stops adding episodes once it has run this many times its
#: budget, which only a build more than twice as slow as the one the
#: nominal episode times were measured on reaches; it bounds a run's time.
MAX_BUDGET_FACTOR = 2.5


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns ``(result, record, report_text)``."""
    from layers import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, smoke=smoke)
    # The generated inputs (a serving trace is ~200k objects) live for the
    # whole run, which a deployed engine's would not; keep them out of the
    # cyclic collector's full scans so its pauses reflect the program.
    gc.collect()
    gc.freeze()
    setups: list[float] = []
    budget = seconds / 2 if trace else seconds
    episodes = _episodes(workload, budget, setups=setups)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(workload))
    tracer = None
    traced = []
    if trace:
        tracer = LayerTracer()
        traced = _episodes(workload, budget, tracer)
    rss_mib = peak_rss_mib()
    gc.unfreeze()
    # Run after measuring, so its peak memory is not the measured one.
    reference = workload.reference()
    errors = [
        error
        for episode in episodes + traced
        for error in workload.check(episode, reference)
    ]
    attempted = sum(e.attempted for e in episodes + traced)
    failed = sum(e.failed for e in episodes + traced)
    e2e = end_to_end(episodes, setups, rss_mib)
    client = client_metrics(episodes)
    if trace:
        metrics = tracer.metrics()
        metrics.update({k: (v[0], v[1]) for k, v in client.items()})
        walls = [e.wall_s for e in traced]
        base = statistics.median(e.wall_s for e in episodes)
        metrics["trace.overhead_frac"] = (
            statistics.median(walls) / base - 1.0, "ratio"
        )
    else:
        metrics = {k: (v[0], v[1]) for k, v in e2e.items()}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(value), "unit": unit}
            for k, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": workload.describe(),
        "env": report.environment(ROOT),
        "samples": {k: v[3] for k, v in {**e2e, **client}.items()},
        "episodes": {"untraced": len(episodes), "traced": len(traced)},
        "result": result,
    }
    text = _report_text(name, seed, e2e, client, result, errors, tracer)
    return result, record, text


def _setup_sample(workload) -> float:
    """Mean set-up time over one batch of ``workload.setup_batch`` set-ups."""
    batch = workload.setup_batch
    return sum(workload.setup_only() for _ in range(batch)) / batch


def _episodes(workload, budget: float, tracer=None, setups=None) -> list:
    """``episode_count(workload, budget)`` episodes, the first sizing it;
    ``setups``, when given, gets set-up samples taken between them."""
    cap = time.perf_counter() + MAX_BUDGET_FACTOR * budget
    episodes = []
    floor = count = MIN_EPISODES
    while len(episodes) < count:
        if len(episodes) >= floor and time.perf_counter() > cap:
            break
        if setups is not None:
            setups.extend(
                _setup_sample(workload) for _ in range(SETUPS_PER_EPISODE)
            )
        episode = workload.episode(tracer)
        if tracer is not None:
            tracer.end_episode(episode)
        episodes.append(episode)
        if len(episodes) == 1:
            floor, count = episode_count(workload, budget, episode)
    return episodes


def episode_count(workload, budget: float, first) -> tuple[int, int]:
    """``(floor, count)``: the fewest episodes that hold enough samples for
    every reported percentile, and the episodes for ``budget`` seconds at
    the workload's nominal episode time, at least that floor.

    Every episode of a workload replays the same inputs, so each yields as
    many ticks, reads and writes as the first; neither number depends on
    how fast the build under test is.
    """
    floor = MIN_EPISODES
    while not _enough_samples([first] * floor):
        floor += 1
    return floor, max(floor, round(budget / workload.nominal_episode_s))


def _enough_samples(episodes) -> bool:
    """Enough ticks for a p90, and (when serving) reads and writes for a p99."""
    def count(field):
        return sum(len(getattr(e, field)) for e in episodes)

    ticks, reads, writes = count("ticks"), count("reads"), count("writes")
    p90, p99 = 10 * report.MIN_BEYOND, 100 * report.MIN_BEYOND
    return (
        ticks >= p90
        and (reads == 0 or reads >= p99)
        and (writes == 0 or writes >= p99)
    )


def peak_rss_mib() -> float:
    """Peak resident memory of the measured configuration, in MiB.

    This process's peak plus the largest peak of its reaped children: the
    shard workers of the process-sharded workload, the only children a
    run starts before it reads this.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(episodes, setups, rss_mib) -> dict:
    """``name -> (value, unit, per-episode samples, sample count)`` of the
    end-to-end metrics, over every episode.

    ``requests_per_s`` counts what the workload's clients asked for: the
    trace's requests when serving, and one submission per campaign on the
    batch workloads, where it equals campaigns retired per second.
    """
    ticks = [t for e in episodes for t in e.ticks]
    rates = [e.attempted / e.wall_s for e in episodes]
    return {
        "requests_per_s": (statistics.median(rates), "1/s", rates, len(rates)),
        "tick_p50_ms": (
            1e3 * report.percentile(ticks, 50), "ms",
            [1e3 * statistics.median(e.ticks) for e in episodes], len(ticks)),
        "setup_s": (statistics.median(setups), "s", setups, len(setups)),
        "peak_rss_mib": (rss_mib, "MiB", [rss_mib], 1),
    }


def _p90(samples) -> float:
    return sorted(samples)[int(0.9 * (len(samples) - 1))]


def client_metrics(episodes) -> dict:
    """Tick tail, campaign throughput, serving latencies, failure share.

    Reported by traced runs beside the per-layer metrics, ungated: the
    tick p90 spread by 0.26-0.40 over ten seeds on serve-mixed whenever
    the host's hypervisor steal rose, beyond the largest bound a gate may
    use.  The serving latencies are zero on the batch workloads, which
    have no gateway.
    """
    ticks = [t for e in episodes for t in e.ticks]
    reads = [r for e in episodes for r in e.reads]
    writes = [w for e in episodes for w in e.writes]
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    cps = [e.retired / e.wall_s for e in episodes]

    def pct(samples, q, scale):
        return scale * report.percentile(samples, q) if samples else 0.0

    return {
        "tick_p90_ms": (
            1e3 * report.percentile(ticks, 90), "ms",
            [1e3 * _p90(e.ticks) for e in episodes], len(ticks)),
        "campaigns_per_s": (statistics.median(cps), "1/s", cps, len(cps)),
        "read_p50_us": (pct(reads, 50, 1e6), "us", [], len(reads)),
        "read_p99_us": (pct(reads, 99, 1e6), "us", [], len(reads)),
        "write_p99_ms": (pct(writes, 99, 1e3), "ms", [], len(writes)),
        "failed_frac": (failed / attempted, "ratio", [], attempted),
    }


def _report_text(name, seed, e2e, client, result, errors, tracer) -> str:
    lines = [
        f"== {name} (seed {seed})",
        "end-to-end, untraced (value: over every episode; median and quartiles:",
        "of the per-episode (set-up: per-batch) values; n: samples in value)",
        f"  {'metric':<16} {'unit':<5} {'value':>11} {'median':>11} "
        f"{'q1 .. q3':>25} {'n':>7}",
    ]
    for metric, (value, unit, samples, n) in {**e2e, **client}.items():
        q1, med, q3 = report.quartiles(samples) if samples else (value,) * 3
        lines.append(
            f"  {metric:<16} {unit:<5} {value:11.5g} {med:11.5g} "
            f"{q1:11.5g} .. {q3:<11.5g} {n:7d}"
        )
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  operations: {attempted} attempted, {failed} failed "
                 f"({failed / attempted:.3%})")
    if tracer is not None:
        lines.append(tracer.table())
        overhead = result["metrics"]["trace.overhead_frac"]["value"]
        lines.append(f"  trace.overhead_frac: {overhead:+.1%} "
                     "(median traced episode wall over untraced, minus one)")
    lines.append("correctness: " + ("ok" if not errors else "FAILED"))
    lines.extend(f"  {error}" for error in errors)
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.record:
                cmd += ["--record", args.record]
            sys.stdout.flush()
            status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two record files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        print(report.compare(*args.compare, spec))
        return 0
    try:
        import repro
        import workloads
    except ImportError as exc:
        return report.fail(f"cannot import the program under test: {exc}")
    if pathlib.Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        return report.fail(f"imported {repro.__file__}, not the one in {ROOT / 'src'}")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"--workload must be one of {sorted(workloads.WORKLOADS)} or 'all'"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, record, text = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(text)
    print("record: " + json.dumps(record, sort_keys=True))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
