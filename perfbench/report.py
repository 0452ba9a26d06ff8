"""Statistics, the environment stamp, and the compare mode.

Percentiles follow one rule: a run reports a named percentile only from a
sample with at least ten values beyond it (p90 needs 100 samples, p99
1000); :func:`percentile` raises otherwise, so an undersized run fails
loudly instead of reporting a maximum under a percentile's name.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import numpy as np

#: Fewest samples a percentile may leave beyond itself.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``."""
    n = len(samples)
    if n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs at least {MIN_BEYOND} samples beyond it, "
            f"the run has {n} samples"
        )
    return float(np.percentile(samples, q))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def environment(root: pathlib.Path) -> dict:
    """The machine and software a record was measured on."""
    import numpy
    import scipy

    from repro.core.batch import kernels
    from repro.engine.procpool import START_METHOD_ENV

    method = os.environ.get(START_METHOD_ENV)
    if method is None:
        method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_start_method()
        )
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels": kernels.active(),
        "start_method": method,
        "commit": _commit(root),
    }


def _commit(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def load_records(path) -> list[dict]:
    """Run records from a JSON-lines file written with ``--record``."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(base_path, new_path, spec: dict) -> str:
    """Median and quartiles per metric and workload, base against new.

    An end-to-end row is ``unresolved`` when either side's spread exceeds
    the metric's bound (unless every new run beats every base run),
    ``worse`` when the median moved the wrong way by more than the bound,
    ``improved`` when it moved the right way by more than the base runs'
    own spread, and ``within`` otherwise.  Per-layer metrics carry no
    bound: they are ``changed`` or ``same`` by the same spread test.
    """
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = _group(load_records(base_path))
    new = _group(load_records(new_path))
    lines = [
        f"{'workload':<17} {'metric':<30} {'base q1/med/q3':>30} "
        f"{'new q1/med/q3':>30} {'change':>8}  verdict"
    ]
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        lower = metrics.get(metric, {}).get("better", "lower") == "lower"
        gain = -change if lower else change
        bound = metrics.get(metric, {}).get("bound")
        if bound is None:
            verdict = "changed" if abs(change) > spread(b) else "same"
        else:
            beats_all = max(n) < min(b) if lower else min(n) > max(b)
            if max(spread(b), spread(n)) > bound and not beats_all:
                verdict = "unresolved"
            elif -gain > bound:
                verdict = "worse"
            elif gain > spread(b):
                verdict = "improved"
            else:
                verdict = "within"
        lines.append(
            f"{workload:<17} {metric:<30} "
            f"{_fmt(bq):>30} {_fmt(nq):>30} {change:+8.1%}  {verdict}"
        )
    return "\n".join(lines)


def _group(records) -> dict:
    out: dict = {}
    for record in records:
        for metric, entry in record["result"]["metrics"].items():
            out.setdefault((record["workload"], metric), []).append(entry["value"])
    return out


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def fail(message: str) -> int:
    """Report a fatal problem on stderr; the exit code for it."""
    print(f"perfbench: {message}", file=sys.stderr)
    return 2
