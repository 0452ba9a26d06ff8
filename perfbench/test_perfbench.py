"""Smoke-size tests of the benchmark itself.

Run with ``python -m pytest perfbench -q`` from the repository root.  The
workloads run at their smoke sizes and the percentile sample rule is
relaxed, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import report
import run
import workloads

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


@pytest.fixture(autouse=True)
def small_samples(monkeypatch, tmp_path):
    monkeypatch.setattr(report, "MIN_BEYOND", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "MIN_EPISODES", 2)
    monkeypatch.setattr(workloads, "_default_workdir", lambda: tmp_path / "work")


def test_spec_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_unit_and_samples(name, trace):
    result, record, text = run.measure(name, seed=3, seconds=0.01, trace=trace,
                                       smoke=True)
    assert result["correct"], text
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in SPEC["end_to_end"]:
        assert record["samples"][metric["name"]] >= 1
        assert metric["name"] in text
    if trace:
        assert "dominant layer:" in text
    assert record["env"]["nproc"] >= 1 and record["seed"] == 3


def _inputs(workload):
    if isinstance(workload, workloads.AdaptiveReprice):
        return workload.specs
    if isinstance(workload, workloads.CheapTicks):
        return list(workload._source())
    return list(workload.trace.requests)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_the_inputs(name):
    make = workloads.WORKLOADS[name]
    assert _inputs(make(1, smoke=True)) == _inputs(make(1, smoke=True))
    assert _inputs(make(1, smoke=True)) != _inputs(make(2, smoke=True))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_reference_checksum_fails_the_check(name, monkeypatch, capsys):
    cls = workloads.WORKLOADS[name]
    honest = cls.reference

    def corrupted(self):
        reference = honest(self)
        reference.checksum = "0" * len(reference.checksum)
        return reference

    monkeypatch.setattr(cls, "reference", corrupted)
    result, _, text = run.measure(name, seed=1, seconds=0.01, trace=False,
                                  smoke=True)
    assert not result["correct"]
    assert "checksum" in text
    monkeypatch.setattr(run, "measure", lambda *a, **k: (result, {}, text))
    assert run.main(["--workload", name, "--seconds", "0.01"]) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == result


def test_compare_marks_each_difference(tmp_path):
    def records(path, values):
        with open(path, "w") as f:
            for v in values:
                f.write(json.dumps({
                    "workload": "w",
                    "result": {"metrics": {
                        "requests_per_s": {"value": v, "unit": "1/s"},
                        "tick_p50_ms": {"value": v, "unit": "ms"},
                        "planning.admit_s": {"value": v, "unit": "s"},
                    }},
                }) + "\n")

    records(tmp_path / "a", [100, 101, 99, 100, 100])
    records(tmp_path / "b", [130, 131, 129, 130, 130])
    rows = report.compare(tmp_path / "a", tmp_path / "b", SPEC).splitlines()
    verdicts = {row.split()[1]: row.split()[-1] for row in rows[1:]}
    assert verdicts == {
        "requests_per_s": "improved",
        "tick_p50_ms": "worse",
        "planning.admit_s": "changed",
    }
    records(tmp_path / "c", [60, 140, 100, 70, 130])
    rows = report.compare(tmp_path / "a", tmp_path / "c", SPEC).splitlines()
    verdicts = {row.split()[1]: row.split()[-1] for row in rows[1:]}
    assert verdicts["requests_per_s"] == verdicts["tick_p50_ms"] == "unresolved"
