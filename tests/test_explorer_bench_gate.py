"""The exact-count gate of ``benchmarks/check_explorer_bench.py``.

``compare(baseline, candidate)`` is what keeps ``BENCH_explorer.json``
honest: every deterministic counter must match, and nothing the
baseline records may silently go missing from a fresh report unless
the caller asked for a subset.
"""

import copy
import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    "benchmarks",
    "check_explorer_bench.py",
)
_spec = importlib.util.spec_from_file_location("check_explorer_bench", _PATH)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def run(label, workers=1, **overrides):
    row = {
        "label": label,
        "workers": workers,
        "seconds": 0.1,
        "terminal_schedules": 58,
        "schedules_explored": 321,
        "max_depth_seen": 8,
        "events_executed": 398,
        "events_replayed": 0,
        "states_seen": 321,
        "states_deduped": 67,
        "states_pruned_sleep": 442,
        "states_merged_symmetry": 0,
        "orbit_encodings": 0,
        "violations_digest": "d41d8cd9",
        "independence_stats": {"dynamic": 10, "conservative": 12},
    }
    row.update(overrides)
    return row


@pytest.fixture
def report():
    return {
        "benchmark": "explorer",
        "schema": 8,
        "configs": [
            {
                "name": "depth8",
                "runs": [
                    run("dedup", terminal_schedules=2520),
                    run("dedup-sleep"),
                ],
                "sleep_terminal_reduction": 0.977,
            },
            {"name": "urb", "runs": [run("dedup")]},
        ],
    }


def test_identical_reports_pass(report):
    errors, warnings = check.compare(report, copy.deepcopy(report))
    assert errors == []
    assert warnings == []


def test_counter_drift_fails(report):
    fresh = copy.deepcopy(report)
    fresh["configs"][0]["runs"][1]["events_executed"] += 1
    errors, _ = check.compare(report, fresh)
    assert len(errors) == 1
    assert "events_executed" in errors[0]


def test_independence_stats_drift_fails(report):
    fresh = copy.deepcopy(report)
    fresh["configs"][0]["runs"][1]["independence_stats"]["dynamic"] = 11
    errors, _ = check.compare(report, fresh)
    assert any("independence_stats" in e for e in errors)


def test_missing_row_fails(report):
    fresh = copy.deepcopy(report)
    del fresh["configs"][0]["runs"][1]
    errors, _ = check.compare(report, fresh)
    assert errors == ["depth8: runs missing: [('dedup-sleep', 1)]"]


def test_missing_config_fails(report):
    fresh = copy.deepcopy(report)
    del fresh["configs"][1]
    errors, _ = check.compare(report, fresh)
    assert errors == ["configs missing from fresh run: ['urb']"]


def test_missing_derived_field_fails(report):
    fresh = copy.deepcopy(report)
    del fresh["configs"][0]["sleep_terminal_reduction"]
    errors, _ = check.compare(report, fresh)
    assert errors == [
        "depth8: sleep_terminal_reduction missing from fresh run"
    ]


def test_derived_field_drift_fails(report):
    fresh = copy.deepcopy(report)
    fresh["configs"][0]["sleep_terminal_reduction"] = 0.5
    errors, _ = check.compare(report, fresh)
    assert len(errors) == 1
    assert "sleep_terminal_reduction" in errors[0]


def test_allow_subset_tolerates_missing_rows_and_fields(report):
    fresh = copy.deepcopy(report)
    del fresh["configs"][1]
    del fresh["configs"][0]["runs"][1]
    del fresh["configs"][0]["sleep_terminal_reduction"]
    errors, _ = check.compare(report, fresh, allow_subset=True)
    assert errors == []


def test_allow_subset_still_fails_on_drift(report):
    fresh = copy.deepcopy(report)
    del fresh["configs"][1]
    fresh["configs"][0]["runs"][0]["states_seen"] = 1
    errors, _ = check.compare(report, fresh, allow_subset=True)
    assert len(errors) == 1
    assert "states_seen" in errors[0]


def test_cross_variant_violation_mismatch_fails(report):
    fresh = copy.deepcopy(report)
    fresh["configs"][0]["runs"][1]["violations_digest"] = "ffff0000"
    errors, _ = check.compare(fresh, fresh)
    assert any("disagree on the violation set" in e for e in errors)


def test_worker_count_drift_fails(report):
    sharded = run("dedup", workers=4, terminal_schedules=2520)
    report["configs"][0]["runs"].append(sharded)
    fresh = copy.deepcopy(report)
    assert check.compare(report, fresh) == ([], [])
    fresh["configs"][0]["runs"][2]["events_replayed"] = 60
    errors, _ = check.compare(fresh, fresh)
    assert errors == [
        "depth8 ('dedup', 4): events_replayed = 60, the workers=1 row "
        "has 0 — the worker count changed the answer"
    ]


def test_worker_count_independence_stats_compared_whole(report):
    # no verdict counter is exempt, not even the old memo's hit count
    sharded = run("dedup", workers=4, terminal_schedules=2520)
    sharded["independence_stats"]["memo_hits"] = 3
    report["configs"][0]["runs"].append(sharded)
    errors, _ = check.compare(report, report)
    assert errors == [
        "depth8 ('dedup', 4): independence_stats = {'dynamic': 10, "
        "'conservative': 12, 'memo_hits': 3}, the workers=1 row has "
        "{'dynamic': 10, 'conservative': 12} — the worker count changed "
        "the answer"
    ]


def test_slower_timing_only_warns(report):
    fresh = copy.deepcopy(report)
    fresh["configs"][0]["runs"][0]["seconds"] = 10.0
    errors, warnings = check.compare(report, fresh)
    assert errors == []
    assert len(warnings) == 1
