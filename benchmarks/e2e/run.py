"""End-to-end performance benchmark of the schedule explorer and service.

Usage, from the repository root::

    python benchmarks/e2e/run.py [--workload W]... [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
    python benchmarks/e2e/run.py --regen-expected

The library is imported from ``src/`` next to this directory, so no
``PYTHONPATH`` is needed.  With one ``--workload`` the workload runs in
this process; with several (or none: all four) each runs in a fresh
interpreter, one at a time.  Every metric is printed as a line
``workload metric value unit``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

A run sets the workload up three times and imports the library in five
fresh interpreters (``setup_s`` adds the two medians), then makes as
many passes as fit ``--seconds`` on the reference machine (at least
one).  Times are calibrated against a fixed reference routine (see
:mod:`workloads`).
``--trace 1`` instead sets up once, runs one pass untraced and one pass
with :mod:`trace`'s wrappers installed, and reports the per-layer
metrics of the traced pass; the raw spans go to
``benchmarks/e2e/.traces/``.  Workload inputs come from ``--seed``;
``--quick`` shrinks every input for the harness tests.  The exit status
is 1 when any request failed its check.  See ``README.md`` for the
metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"
TRACES = HERE / ".traces"

WORKLOAD_NAMES = (
    "sweep-unreduced", "sweep-reduced", "orbit-checkpoint", "service-zipf",
)
DEFAULT_SECONDS = 8
#: Set-ups and fresh-interpreter imports per untraced run.  An import
#: takes ~0.2 s and varies by ~20% between interpreters; over eight runs
#: the median of five varied by 8–14%, the median of seven by 3–5%,
#: but each probe costs about half a second of wall time.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

#: Layers reported with calls and self time, and those with self time only.
TIMED_LAYERS = (
    "simulator.advance", "simulator.choices", "simulator.fork",
    "simulator.result", "fingerprint.state", "fingerprint.orbit",
    "independence.classify", "property.observe", "property.at_terminal",
    "checkpoint.write", "checkpoint.read", "server.memo.get",
    "server.memo.put",
)
SELF_ONLY_LAYERS = (
    "property.fork", "server.descriptor", "server.digest",
    "server.jobs.submit",
)


def _sibling(name: str):
    """Import ``name``.py from this directory by path.

    By path because ``trace`` would otherwise resolve to the standard
    library module of that name.
    """
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", HERE / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(wl, workload, units, setup_s: float) -> dict:
    """The user-visible metrics of an untraced run: name → (value, unit)."""
    latencies = [s * 1e3 for u in units for s in workload.latencies(u)]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(u.seconds for u in units), "s"),
        "request_ms_p50": (wl.percentile(latencies, 50), "ms"),
        "request_ms_p99": (wl.percentile(latencies, 99), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def layer_metrics(wl, tracer, traced, untraced_seconds: float) -> dict:
    """The per-layer metrics of a traced pass: name → (value, unit)."""
    metrics: dict = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls(layer), "count")
        metrics[f"{layer}.self_s"] = (tracer.self_seconds(layer), "s")
    for layer in SELF_ONLY_LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_seconds(layer), "s")

    # results of every exploration the pass ran (service: one per job)
    cold = [r for r in traced.requests if not r.memo_hit and r.summary]
    explored = list({r.job or id(r): r.summary for r in cold}.values())

    def total(name: str) -> int:
        return sum(summary[name] for summary in explored)

    lookups = (total("schedules_explored") + total("states_deduped")
               + total("states_merged_symmetry"))
    memo = traced.extras.get("memo", {})
    service_cold = [r for r in cold if r.job]
    metrics.update({
        "simulator.events_executed": (total("events_executed"), "count"),
        "simulator.events_replayed": (total("events_replayed"), "count"),
        "fingerprint.orbit.encodings_per_call": (
            _ratio(total("orbit_encodings"),
                   tracer.calls("fingerprint.orbit")), "count/call"),
        "independence.memo_hit_ratio": (
            _ratio(total("memo_hits"), total("memo_queries")), "ratio"),
        "independence.sleep_pruned": (total("states_pruned_sleep"), "count"),
        "explorer.expansions": (total("schedules_explored"), "count"),
        "explorer.terminals": (total("terminal_schedules"), "count"),
        "explorer.cache_states": (total("states_seen"), "count"),
        "explorer.cache_hit_ratio": (
            _ratio(lookups - total("schedules_explored"), lookups), "ratio"),
        "explorer.unattributed_s": (
            tracer.self_seconds("explorer.explore"), "s"),
        "checkpoint.write.bytes": (
            tracer.counters.get("checkpoint.write.bytes", 0), "bytes"),
        "server.memo.hit_ratio": (
            _ratio(memo.get("hits", 0),
                   memo.get("hits", 0) + memo.get("misses", 0)), "ratio"),
        "server.memo.evictions": (memo.get("evictions", 0), "count"),
        "server.jobs.explore_s": (
            sum({r.job: r.cost_seconds for r in service_cold}.values(), 0.0),
            "s"),
        "server.jobs.dispatch_ms_p50": (
            statistics.median(
                (r.raw_seconds - r.cost_seconds) * 1e3 for r in service_cold
            ) if service_cold else 0.0, "ms"),
        # one pair of passes: indicative only, since two untraced passes
        # already differ by several percent (below 1 is such noise)
        "trace.overhead_ratio": (
            _ratio(traced.seconds, untraced_seconds), "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


#: Run in a fresh interpreter: import the workloads module, and so the
#: library, and print the calibrated import time.
_IMPORT_PROBE = """\
import importlib.util, sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
spec = importlib.util.spec_from_file_location("workloads", sys.argv[2])
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
elapsed = time.perf_counter() - started
print(elapsed * workloads.REFERENCE_CALIBRATION_S / workloads.calibrate())
"""


def import_seconds(repeats: int) -> float:
    """Median calibrated import time, over fresh interpreters."""
    samples = []
    for _ in range(repeats):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC),
             str(HERE / "workloads.py")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    wl = _sibling("workloads")  # imports the library
    workload = wl.WORKLOADS[name]
    expected = json.loads(EXPECTED.read_text())
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # a traced run reports no setup_s: it sets up once
        repeats = 1 if quick or trace else SETUP_REPEATS
        meter = wl.Meter()
        setups = []
        for _ in range(repeats):
            started = time.perf_counter()
            prepared = workload.prepare(seed, quick, expected, str(workdir))
            setups.append(time.perf_counter() - started)
        setup_s = statistics.median(setups) * meter.pause()
        absent: list[str] = []
        if trace:
            untraced = workload.unit(prepared, wl.no_span)
            tracer = _sibling("trace").Tracer().install()
            try:
                traced = workload.unit(prepared, tracer.span)
            finally:
                tracer.uninstall()
            TRACES.mkdir(exist_ok=True)
            tracer.dump(str(TRACES / f"{name}-seed{seed}.json"))
            absent = tracer.absent
            units = [untraced, traced]
            metrics = layer_metrics(wl, tracer, traced, untraced.seconds)
            details = {}
        else:
            units = _measure(workload, prepared, seconds, wl.no_span)
            setup_s += import_seconds(1 if quick else IMPORT_REPEATS)
            metrics = end_to_end_metrics(wl, workload, units, setup_s)
            details = workload.details(units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    requests = [r for u in units for r in u.requests]
    errors = [f"{r.key}: {r.error}" for r in requests if r.error]
    attempted = len(requests)
    if trace:
        # telemetry must not change what is explored
        attempted += 1
        if workload.identity(untraced) != workload.identity(traced):
            errors.append("the traced pass explored differently")
    failed = len(errors)
    details["error_rate"] = (_ratio(failed, attempted), "ratio")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "absent": absent,
        "errors": errors[:20],
    }


def _measure(workload, prepared, seconds: float, span) -> list:
    """As many passes as fit ``seconds`` on the reference machine.

    The count depends on ``seconds`` only, not on how fast this machine
    runs, so every run of a workload measures the same work.
    """
    passes = max(1, round(seconds / workload.nominal_pass_s))
    return [workload.unit(prepared, span) for _ in range(passes)]


# ---------------------------------------------------------------------------
# Several workloads, one fresh interpreter each
# ---------------------------------------------------------------------------


def run_children(names, args) -> list[dict]:
    WORK.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        out = WORK / f"child-{name}-{os.getpid()}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out),
        ] + (["--quick"] if args.quick else [])
        completed = subprocess.run(command, stdout=sys.stderr)
        try:
            records.extend(json.loads(out.read_text())["runs"])
        except (OSError, ValueError, KeyError):
            records.append({
                "workload": name, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "details": {}, "absent": [],
                "errors": [f"child exited with code {completed.returncode}"],
            })
        finally:
            out.unlink(missing_ok=True)
    return records


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def regen_expected() -> None:
    """Write ``expected.json`` from unreduced (plain DFS) searches.

    Takes about 25 minutes, nearly all of it the 3-sender orbit config.
    """
    wl = _sibling("workloads")
    from repro.runtime import explore_schedules
    from repro.server.descriptor import JobDescriptor

    def reference(result) -> dict:
        summary = wl.summarize(result.to_json())
        if not summary["exhausted"]:
            raise SystemExit("reference search was not exhaustive")
        return {
            "violations_digest": summary["digest"],
            "exhausted": True,
            "terminals": summary["terminal_schedules"],
        }

    expected: dict = {"catalog": {}, "orbit": {}, "pool": {}}
    for config in wl.catalog():
        simulator, scripts, prop, crash = config.build()
        expected["catalog"][config.id] = reference(
            explore_schedules(simulator, scripts, prop, crash_schedule=crash)
        )
        print(f"catalog {config.id}", file=sys.stderr)
    for key, descriptor in wl.pool():
        job = JobDescriptor.from_json(descriptor)
        simulator, scripts, prop, crash, _ = job.build()
        expected["pool"][key] = reference(explore_schedules(
            simulator, scripts, prop, crash_schedule=crash,
            max_schedules=job.max_schedules, max_depth=job.max_depth,
        ))
    print("pool done", file=sys.stderr)
    for config in (wl.ORBIT_QUICK, wl.ORBIT):
        simulator, scripts, prop = config.build()
        expected["orbit"][config.id] = reference(explore_schedules(
            simulator, scripts, prop, max_schedules=10**12,
        ))
        print(f"orbit {config.id}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _print_record(record: dict) -> None:
    name = record["workload"]
    for group in ("metrics", "details"):
        for metric, entry in record.get(group, {}).items():
            print(f"{name} {metric} {entry['value']} {entry['unit']}")
    for target in record.get("absent", []):
        print(f"# {name}: trace target absent: {target}")
    for error in record.get("errors", []):
        print(f"# {name}: failed: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (harness tests)")
    parser.add_argument("--out", help="also write the full records as JSON")
    parser.add_argument("--regen-expected", action="store_true",
                        help="recompute expected.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library is missing (no {SRC / 'repro'}); run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.regen_expected:
        regen_expected()
        return 0

    names = args.workload or list(WORKLOAD_NAMES)
    if len(names) == 1:
        records = [run_workload(names[0], args.seed, args.seconds,
                                bool(args.trace), args.quick)]
        _print_record(records[0])
    else:
        records = run_children(names, args)
        for record in records:
            _print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v
            for r in records for k, v in r["metrics"].items()
        }
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
