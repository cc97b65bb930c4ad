"""Tests of the end-to-end benchmark harness.

Run from the repository root with ``pytest benchmarks/e2e -q`` (about a
minute; the library is imported from ``src/``).
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _load(name: str):
    # by path: ``trace`` is also the name of a standard-library module
    spec = importlib.util.spec_from_file_location(
        f"e2e_test_{name}", HERE / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load("run")
trace = _load("trace")
compare = _load("compare")
wl = run._sibling("workloads")

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics that are counts, so must repeat exactly
EXACT_UNITS = {"count", "bytes", "count/call", "ratio"}


def _bench(tmp_path: Path, name: str, *args: str) -> tuple[dict, str]:
    out = tmp_path / f"{name}.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(out.read_text()), completed.stdout


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {trace_flag: _bench(tmp, f"trace{trace_flag}", "--trace", trace_flag)
            for trace_flag in ("0", "1")}


def test_quick_mode_emits_every_declared_metric(quick_runs):
    for trace_flag, group in (("0", "end_to_end"), ("1", "per_layer")):
        records, stdout = quick_runs[trace_flag]
        declared = {metric["name"] for metric in DECLARED[group]}
        assert {r["workload"] for r in records["runs"]} == {
            w["name"] for w in DECLARED["workloads"]
        }
        for record in records["runs"]:
            assert record["correct"], record["errors"]
            assert set(record["metrics"]) == declared, record["workload"]
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0


def test_end_to_end_metrics_are_never_zero(quick_runs):
    records, _ = quick_runs["0"]
    for record in records["runs"]:
        for name, entry in record["metrics"].items():
            assert entry["value"] > 0, (record["workload"], name)


def test_traced_and_untraced_passes_explore_identically(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    workload = wl.WORKLOADS["sweep-reduced"]
    prepared = workload.prepare(3, True, expected, str(tmp_path))
    simulator = sys.modules["repro.runtime.simulator"]
    original = simulator.SimulationRun.advance
    untraced = workload.unit(prepared, wl.no_span)
    tracer = trace.Tracer().install()
    try:
        traced = workload.unit(prepared, tracer.span)
    finally:
        tracer.uninstall()
    assert workload.identity(traced) == workload.identity(untraced)
    assert all(r.error is None for r in traced.requests)
    assert tracer.calls("fingerprint.state") > 0
    assert tracer.calls("independence.classify") > 0
    assert tracer.absent == []
    assert simulator.SimulationRun.advance is original


def test_self_time_subtracts_child_spans():
    now = [0.0]

    class Work:
        def outer(self):
            now[0] += 1
            self.inner()
            now[0] += 2
            self.inner()
            now[0] += 1

        def inner(self):
            now[0] += 3

    tracer = trace.Tracer(clock=lambda: now[0])
    Work.outer = tracer.wrap(Work.outer, "outer")
    Work.inner = tracer.wrap(Work.inner, "inner")
    with tracer.span("root"):
        Work().outer()
    assert tracer.totals["root"] == [1, 10.0, 0.0]
    assert tracer.totals["outer"] == [1, 10.0, 4.0]
    assert tracer.totals["inner"] == [2, 6.0, 6.0]
    by_layer = {layer: (sid, parent) for sid, parent, layer, *_ in tracer.spans}
    assert by_layer["outer"][1] == by_layer["root"][0]
    assert by_layer["inner"][1] == by_layer["outer"][0]


def test_missing_targets_are_reported_absent():
    tracer = trace.Tracer()
    assert not tracer.patch("repro.no_such_module", "f", "x")
    assert not tracer.patch("repro.runtime.explorer", "NoSuchClass.f", "y")
    assert tracer.absent == [
        "repro.no_such_module:f", "repro.runtime.explorer:NoSuchClass.f",
    ]


def test_deterministic_counts_repeat_exactly(quick_runs, tmp_path):
    names = ("sweep-unreduced", "sweep-reduced", "orbit-checkpoint")
    again, _ = _bench(tmp_path, "again", "--trace", "1",
                      *(arg for name in names for arg in ("--workload", name)))
    first = {r["workload"]: r for r in quick_runs["1"][0]["runs"]}
    for record in again["runs"]:
        counts = {
            name: entry["value"]
            for name, entry in record["metrics"].items()
            if entry["unit"] in EXACT_UNITS and not name.startswith("trace.")
        }
        before = {
            name: first[record["workload"]]["metrics"][name]["value"]
            for name in counts
        }
        assert counts == before, record["workload"]
        assert counts["explorer.expansions"] > 0


def test_a_wrong_answer_fails_the_run(tmp_path, monkeypatch, capsys):
    expected = json.loads(run.EXPECTED.read_text())
    expected["catalog"]["urb-n2-p0@3"]["violations_digest"] = "0" * 32
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", tampered)
    status = run.main(["--workload", "sweep-unreduced", "--quick",
                       "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert not last["correct"] and last["failed"] == 1


def test_expected_covers_every_input():
    expected = json.loads(run.EXPECTED.read_text())
    assert set(expected["catalog"]) == {c.id for c in wl.catalog()}
    assert len(expected["catalog"]) == 23
    assert set(expected["orbit"]) == {wl.ORBIT.id, wl.ORBIT_QUICK.id}
    pool_ids = [key for key, _ in wl.pool()]
    assert len(pool_ids) == len(set(pool_ids)) == 306
    assert set(expected["pool"]) == set(pool_ids)
    for group in expected.values():
        assert all(entry["exhausted"] for entry in group.values())


def test_compare_rules():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [value * 0.8 for value in parent]
    assert compare.judge(parent, faster, True, 0.1, True).startswith(
        "claim holds")
    assert compare.judge(parent, faster[:9], True, 0.1, True).startswith(
        "claim NOT MET")
    assert compare.judge(parent, [v * 1.2 for v in parent], True, 0.1,
                         False) == "REGRESSION"
    assert compare.judge(parent, [v * 1.05 for v in parent], True, 0.1,
                         False) == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0]
    assert compare.judge(noisy, [16.0], True, 0.1, False) == "unresolved"


def test_refuses_to_run_without_the_library(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep-reduced",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
