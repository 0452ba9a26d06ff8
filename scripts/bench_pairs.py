"""Paired parent/change runs of the layer benchmark, with the gain rule.

Runs ``perfbench/run.py --trace 0 --record`` alternately from a base
checkout (usually the parent commit) and from this checkout, one pair per
seed, swapping which side runs first on every other pair.  Then it prints
the benchmark's own ``--compare`` table (``perfbench/report.compare``:
medians, quartiles and verdict per metric) and, per end-to-end metric,
the paired win count and whether a gain may be claimed: the change wins at least nine tenths of the pairs
(ties count for neither side) and the medians differ by more than the
base runs' interquartile range.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --base ../parent --workload cheap-ticks \\
        --pairs 10 --seed 61 --seconds 25
    make bench-pairs BASE=../parent WORKLOAD=cheap-ticks PAIRS=10

Records land in ``--out`` (default ``benchmarks/results/pairs-<workload>``)
as ``base.jsonl`` and ``new.jsonl``; both are rewritten on every call.
Exits 1 when any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: The benchmark's statistics and compare table, read, never edited.
sys.path.insert(0, str(ROOT / "perfbench"))

import report  # noqa: E402


def run_side(checkout: pathlib.Path, args, seed: int, record: pathlib.Path) -> bool:
    """One untraced benchmark run from ``checkout``; True if it succeeded."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
        "--record", str(record),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    summary = f"exit {proc.returncode}"
    if proc.returncode in (0, 1):
        # The run's last line is its result object.
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary += f", correct {result['correct']}, failed {result['failed']}/"
        summary += f"{result['attempted']}, " + ", ".join(
            f"{name} {entry['value']:.4g}"
            for name, entry in result["metrics"].items()
        )
    else:
        sys.stderr.write(proc.stderr[-2000:])
    print(f"  {record.stem:<4} seed {seed}: {summary}", flush=True)
    return proc.returncode == 0


def by_seed(path: pathlib.Path) -> dict[int, dict]:
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return {r["seed"]: r["result"]["metrics"] for r in records}


def gain_rule(base: dict, new: dict, spec: dict) -> list[str]:
    """Per end-to-end metric: paired wins, medians, base IQR, verdict."""
    seeds = sorted(set(base) & set(new))
    lines = [
        f"{'metric':<16} {'better':<7} {'wins':>6} {'losses':>6} "
        f"{'base med':>11} {'base IQR':>11} {'new med':>11} {'change':>8}  gain?"
    ]
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [
            (base[s][name]["value"], new[s][name]["value"])
            for s in seeds if name in base[s] and name in new[s]
        ]
        if not pairs:
            continue
        wins = sum((n > b) if higher else (n < b) for b, n in pairs)
        losses = sum((n < b) if higher else (n > b) for b, n in pairs)
        bq = report.quartiles([b for b, _ in pairs])
        new_med = statistics.median(n for _, n in pairs)
        diff = new_med - bq[1]
        claim = (
            wins >= 0.9 * len(pairs)
            and (diff if higher else -diff) > bq[2] - bq[0]
        )
        change = diff / abs(bq[1]) if bq[1] else 0.0
        lines.append(
            f"{name:<16} {metric['better']:<7} {wins:>3}/{len(pairs):<2} "
            f"{losses:>6} {bq[1]:>11.5g} {bq[2] - bq[0]:>11.5g} "
            f"{new_med:>11.5g} {change:+8.1%}  {'yes' if claim else 'no'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, type=pathlib.Path,
                        help="checkout to compare against (holds perfbench/run.py)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    base_root = args.base.resolve()
    if not (base_root / "perfbench" / "run.py").is_file():
        parser.error(f"{base_root} holds no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or ROOT / "benchmarks" / "results" / f"pairs-{args.workload}"
    out.mkdir(parents=True, exist_ok=True)
    records = {"base": out / "base.jsonl", "new": out / "new.jsonl"}
    for path in records.values():
        path.unlink(missing_ok=True)
    sides = {"base": base_root, "new": ROOT}

    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        print(f"pair {i + 1}/{args.pairs}", flush=True)
        for side in order:
            ok = run_side(sides[side], args, seed, records[side]) and ok
    if not all(path.is_file() for path in records.values()):
        print("bench-pairs: a side recorded no run", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(report.compare(records["base"], records["new"], spec))
    print()
    print("\n".join(gain_rule(by_seed(records["base"]), by_seed(records["new"]), spec)))
    print(f"records: {records['base']} {records['new']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
