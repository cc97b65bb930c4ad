"""Diff a fresh explorer benchmark report against the committed baseline.

The schedule trees the benchmark explores are deterministic, so every
count the engines report (terminals, expansions, distinct states,
replayed events, orbit encodings) must match the committed
``BENCH_explorer.json`` exactly — a difference means the explorer's
behaviour changed and the baseline must be regenerated deliberately.
In particular a drift in ``states_seen`` under a symmetry variant means
the canonical-labelling search stopped landing on the orbit floor among
branch points (the distinct orbits of the states with two or more
enabled events, the only nodes the dedup cache keys), and a drift in
``orbit_encodings`` means the invariant profiles stopped separating
pids.  That counter sums, over keyed nodes, the residual candidates of
each node's canonical-labelling pass; a search runs the pass once per
distinct raw state and a repeat adds the stored count, so it counts
candidates per node, not encodings computed.  Wall-clock timings are
the one machine-dependent quantity: regressions beyond the tolerance
only *warn*, they never fail CI.

Usage::

    PYTHONPATH=src python benchmarks/run_explorer_bench.py \
        --output BENCH_explorer.fresh.json
    python benchmarks/check_explorer_bench.py \
        BENCH_explorer.json BENCH_explorer.fresh.json

Beyond the baseline diff, the checker enforces two *internal*
invariants of the fresh report.  Every engine variant of a
configuration must agree on the violation-set digest — the reductions
(sleep sets, renaming symmetry, crash-aware commutation) are only
admissible because they preserve violations, so a cross-engine mismatch
is a reduction bug and always fails.  And a ``workers=N`` row must
report exactly the deterministic counters of the ``workers=1`` row with
the same config and label — the worker count changes speed, never the
answer — ``independence_stats`` included, compared whole.

A config, run or derived per-config field present in the baseline but
absent from the fresh report is an error; ``--allow-subset`` tolerates
the absences (for partial local runs), never a mismatch.

Exit status: 0 when the reports agree on everything deterministic
(timing warnings allowed), 1 on any schema, determinism, missing-field,
cross-engine violation or worker-count mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Per-run fields that must match exactly between baseline and fresh run.
DETERMINISTIC_RUN_FIELDS = (
    "terminal_schedules",
    "schedules_explored",
    "max_depth_seen",
    "events_executed",
    "events_replayed",
    "states_seen",
    "states_deduped",
    "states_pruned_sleep",
    "states_merged_symmetry",
    "orbit_encodings",
    "violations_digest",
    "independence_stats",
)

#: Per-config derived metrics that are pure functions of the counts.
DETERMINISTIC_CONFIG_FIELDS = (
    "state_revisit_reduction",
    "expanded_vs_terminals_reduction",
    "sleep_terminal_reduction",
    "rename_state_reduction",
    "orbit_encodings_per_lookup",
    "composed_state_reduction",
)


def _run_key(run: dict) -> tuple:
    return (run["label"], run["workers"])


def _cross_engine_violations(report: dict) -> list[str]:
    """Soundness errors: engine variants of one config must agree.

    The reductions (sleep sets, renaming symmetry) are only admissible
    because they preserve the violation set — so within a single
    configuration, every engine variant's ``violations_digest`` must be
    identical.  A mismatch is a reduction bug, not a baseline drift,
    and is reported regardless of what the baseline says.
    """
    errors: list[str] = []
    for config in report.get("configs", []):
        digests: dict[str, list[str]] = {}
        for run in config["runs"]:
            digest = run.get("violations_digest")
            if digest is not None:
                digests.setdefault(digest, []).append(
                    str(_run_key(run))
                )
        if len(digests) > 1:
            groups = "; ".join(
                f"{digest[:8]}… from {', '.join(runs)}"
                for digest, runs in sorted(digests.items())
            )
            errors.append(
                f"{config['name']}: engine variants disagree on the "
                f"violation set ({groups}) — a reduction dropped or "
                f"invented violations"
            )
    return errors


def _worker_count_drift(report: dict) -> list[str]:
    """Errors: a sharded row must report its sequential row's counters."""
    errors: list[str] = []
    for config in report.get("configs", []):
        sequential = {
            run["label"]: run for run in config["runs"] if run["workers"] == 1
        }
        for run in config["runs"]:
            base = sequential.get(run["label"])
            if run["workers"] == 1 or base is None:
                continue
            for field in DETERMINISTIC_RUN_FIELDS:
                mine, theirs = run.get(field), base.get(field)
                if mine != theirs:
                    errors.append(
                        f"{config['name']} {_run_key(run)}: {field} = "
                        f"{mine}, the workers=1 row has {theirs} — the "
                        f"worker count changed the answer"
                    )
    return errors


def compare(
    baseline: dict,
    candidate: dict,
    *,
    tolerance: float = 1.5,
    allow_subset: bool = False,
) -> tuple[list[str], list[str]]:
    """Return (errors, warnings) from diffing ``candidate`` vs ``baseline``."""
    errors: list[str] = []
    warnings: list[str] = []

    errors.extend(_cross_engine_violations(candidate))
    errors.extend(_worker_count_drift(candidate))
    for field in ("benchmark", "schema"):
        if baseline.get(field) != candidate.get(field):
            errors.append(
                f"schema mismatch: {field} is {candidate.get(field)!r}, "
                f"baseline has {baseline.get(field)!r}"
            )
    if errors:
        return errors, warnings  # different shape entirely: stop here

    base_configs = {c["name"]: c for c in baseline["configs"]}
    cand_configs = {c["name"]: c for c in candidate["configs"]}
    missing = base_configs.keys() - cand_configs.keys()
    if missing and not allow_subset:
        errors.append(f"configs missing from fresh run: {sorted(missing)}")
    for extra in sorted(cand_configs.keys() - base_configs.keys()):
        errors.append(
            f"config {extra!r} not in baseline: regenerate "
            f"BENCH_explorer.json"
        )

    for name in sorted(base_configs.keys() & cand_configs.keys()):
        base, cand = base_configs[name], cand_configs[name]
        base_runs = {_run_key(r): r for r in base["runs"]}
        cand_runs = {_run_key(r): r for r in cand["runs"]}
        run_missing = base_runs.keys() - cand_runs.keys()
        if run_missing and not allow_subset:
            errors.append(f"{name}: runs missing: {sorted(run_missing)}")
        for extra_key in sorted(cand_runs.keys() - base_runs.keys()):
            errors.append(
                f"{name}: run {extra_key} not in baseline: regenerate "
                f"BENCH_explorer.json"
            )
        for key in sorted(base_runs.keys() & cand_runs.keys()):
            base_run, cand_run = base_runs[key], cand_runs[key]
            for field in DETERMINISTIC_RUN_FIELDS:
                if base_run.get(field) != cand_run.get(field):
                    errors.append(
                        f"{name} {key}: {field} = {cand_run.get(field)}, "
                        f"baseline has {base_run.get(field)} — the "
                        f"explored tree changed"
                    )
            if cand_run["seconds"] > base_run["seconds"] * tolerance:
                warnings.append(
                    f"{name} {key}: {cand_run['seconds']}s vs baseline "
                    f"{base_run['seconds']}s "
                    f"(>{tolerance}x slower; machines differ — not fatal)"
                )
        for field in DETERMINISTIC_CONFIG_FIELDS:
            if field not in base:
                continue
            if field not in cand:
                if not allow_subset:
                    errors.append(f"{name}: {field} missing from fresh run")
            elif base[field] != cand[field]:
                errors.append(
                    f"{name}: {field} = {cand[field]}, baseline has "
                    f"{base[field]}"
                )
    return errors, warnings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_explorer.json")
    parser.add_argument("candidate", help="freshly generated report")
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="warn when a timing exceeds baseline by this factor",
    )
    parser.add_argument(
        "--allow-subset", action="store_true",
        help="tolerate configs, runs and derived fields absent from "
             "the fresh report (for partial local runs)",
    )
    args = parser.parse_args()
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.candidate) as handle:
        candidate = json.load(handle)
    errors, warnings = compare(
        baseline,
        candidate,
        tolerance=args.tolerance,
        allow_subset=args.allow_subset,
    )
    for warning in warnings:
        print(f"WARNING: {warning}")
    for error in errors:
        print(f"ERROR: {error}")
    if errors:
        print(
            f"{len(errors)} determinism/schema mismatch(es) against "
            f"{args.baseline}; if the change is intentional, regenerate "
            f"the baseline with benchmarks/run_explorer_bench.py"
        )
        return 1
    print(
        f"benchmark report matches the committed baseline "
        f"({len(warnings)} timing warning(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
