"""Explorer benchmark runner — emits ``BENCH_explorer.json``.

Measures plain depth-first exploration against the dedup cache and the
pre-step reductions (sleep sets, renaming symmetry) on fixed
configurations, and single-worker against multi-worker exploration on
the largest one.
Results (wall-clock plus the engines' own event and state counters) are
written as JSON for CI artifact upload and cross-run comparison;
``benchmarks/check_explorer_bench.py`` diffs a fresh report against the
committed ``BENCH_explorer.json`` baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_explorer_bench.py \
        [--output BENCH_explorer.json] [--workers 4] \
        [--profile PROFILE.txt]

The schedule trees explored are deterministic; only the timings vary
between machines.  The JSON includes per-config invariants (terminal
count, tree depth, distinct-state counts, orbit-encoding counts, a
digest of the violation set) so a regression in *what* is explored
fails loudly — in particular, every engine variant of one configuration
must report the same violation digest, the reduction-soundness check.

Schema 5 additions: the ``orbit_encodings`` per-run counter (residual
candidates of the orbit-key search per keyed node, summed — ~1 per
cache lookup under canonical labelling, versus ``|group|!`` per state
under the old permutation enumeration; a repeated raw state adds its
stored count without encoding again), a ``dedup-rename`` variant isolating the
symmetry reduction, and an ``encoder_microbench`` entry timing the
buffer-reusing canonical encoder against the naive one-hasher-per-node
reference implementation it replaced (since dropped with that
reference; its last figure is in EXPERIMENTS.md).  Schema 5 also changes the
canonical encoding itself (distinct list tag, raw-encoding set
ordering), so digests and state counts are not comparable to schema ≤ 4
baselines.

Schema 6 additions: the crash-aware commutation rows.  The historical
sleep-set variants are pinned to ``crash_aware=False`` (the blanket
"any crash blocks commutation" relation) so they stay the before
baseline, and a ``dedup-sleep-crashaware`` variant runs the default
crash-aware relation on the crash configuration.  Every run row now
carries the oracle's ``independence_stats`` (verdicts by source plus
memo hit counts), and two derived metrics land per config where the
rows exist: ``crash_sleep_reduction`` (terminal evaluations the
crash-aware proof cuts below blanket sleep sets) and
``interned_key_hit_rate`` (fraction of oracle queries answered from
the interned-footprint-pair memo).

Schema 7 drops the superseded rows: the replay engine, the blanket
sleep-set relation and the static commutation table left the library,
so the ``replay``, ``dedup-sleep-static`` and blanket rows go with them
(their last numbers are in EXPERIMENTS.md §P6) and the crash-aware
``dedup-sleep-crashaware`` row is now plain ``dedup-sleep``.  Rows carry
their variant ``label`` only.  ``--profile`` additionally runs the
hottest configuration under :mod:`cProfile` and writes the top-20
cumulative-time entries for CI artifact upload.

Schema 8 drops the verdict memo: the explorer asks the independence
relation directly, so ``independence_stats`` counts verdicts by source
only (``memo_queries``/``memo_hits`` are gone) and the derived
``interned_key_hit_rate`` goes with them.  Every other counter and
digest is unchanged from schema 7.

Schema 9 follows the dedup cache keying branch points only (nodes with
two or more enabled events): ``states_seen`` counts distinct branch
points, ``schedules_explored`` also counts the terminal and
single-event nodes re-expanded on each arrival, ``orbit_encodings``
sums over keyed nodes only, and under dedup plus sleep sets
``terminal_schedules`` can fall.  ``state_revisit_reduction`` now
divides the dedup row's expansions, not its distinct states, by the
incremental row's, and ``orbit_encodings_per_lookup`` divides by the
keyed lookups (first expansions plus hits).  Plain and sharded rows and
every violation digest are unchanged from schema 8.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import time

from repro.broadcasts import SendToAllBroadcast, UniformReliableBroadcast
from repro.runtime import (
    CrashSchedule,
    Simulator,
    channels_property,
    explore_schedules,
    spec_property,
)
from repro.specs import TotalOrderBroadcastSpec


def _simulator(config: dict) -> Simulator:
    algorithm = {
        "send-to-all": SendToAllBroadcast,
        "uniform-reliable": UniformReliableBroadcast,
    }[config["algorithm"]]
    return Simulator(
        config["n"], lambda pid, n: algorithm(pid, n)
    )


def _crash_schedule(config: dict) -> CrashSchedule | None:
    at_step = config.get("crash_at_step")
    if not at_step:
        return None
    return CrashSchedule(at_step=dict(at_step))


def _property(config: dict):
    if config.get("property") == "total-order":
        return spec_property(TotalOrderBroadcastSpec(), assume_complete=False)
    return channels_property(assume_complete=False)


#: Engine variants: label -> explore_schedules keyword arguments.
ENGINE_KWARGS = {
    "incremental": {},
    "dedup": {"dedup": True},
    "incremental-sleep": {"sleep_sets": True},
    "dedup-sleep": {"dedup": True, "sleep_sets": True},
    "dedup-rename": {"dedup": True, "symmetry": "rename"},
    "dedup-sleep-rename": {
        "dedup": True,
        "sleep_sets": True,
        "symmetry": "rename",
    },
}

CONFIGS = [
    {
        "name": "s2a-2senders-n2",
        "algorithm": "send-to-all",
        "n": 2,
        "scripts": {0: ["a"], 1: ["b"]},
        "engines": ["incremental", "dedup"],
        "workers": [],
    },
    {
        # the symmetric depth-8 tree: 2520 terminals over few hundred
        # distinct states — the showcase for the dedup cache and both
        # pre-step reductions
        "name": "s2a-2senders-n3-depth8",
        "algorithm": "send-to-all",
        "n": 3,
        "scripts": {0: ["a"], 1: ["b"]},
        "engines": [
            "incremental",
            "dedup",
            "incremental-sleep",
            "dedup-sleep",
            "dedup-rename",
            "dedup-sleep-rename",
        ],
        "workers": [],
    },
    {
        # a violating configuration: the reduction-soundness rows —
        # every engine variant must report the same violation digest
        "name": "s2a-totalorder-n2",
        "algorithm": "send-to-all",
        "n": 2,
        "scripts": {0: ["x"], 1: ["y"]},
        "property": "total-order",
        "expect_violations": True,
        "engines": ["dedup", "dedup-sleep", "dedup-sleep-rename"],
        "workers": [],
    },
    {
        # crash-heavy tree: sleep sets prune here only through the
        # crash-aware proof, which discharges pending victims outside
        # the adjacent-swap window
        "name": "s2a-crash-n3-depth8",
        "algorithm": "send-to-all",
        "n": 3,
        "scripts": {0: ["a"], 1: ["b"]},
        "crash_at_step": {2: 4},
        "max_depth": 8,
        "engines": ["dedup", "dedup-sleep"],
        "workers": [],
    },
    {
        # largest tree: 16128 terminals, depth 10 — the parallel target
        "name": "urb-2senders-n2",
        "algorithm": "uniform-reliable",
        "n": 2,
        "scripts": {0: ["a"], 1: ["b"]},
        "engines": ["dedup"],
        "workers": [1, "N"],
    },
]


def _violations_digest(result) -> str:
    """Order- and permutation-independent digest of the violation set.

    Hashes the *sorted multiset of problem tuples*: reductions may
    collapse redundant violating interleavings (fewer Violation rows)
    and rename pids (different guides), but the distinct problem sets
    they report must survive — so the digest is over those alone.
    """
    problems = sorted({violation.problems for violation in result.violations})
    return hashlib.md5(repr(problems).encode()).hexdigest()


def run_one(config: dict, *, label: str, workers: int = 1) -> dict:
    simulator = _simulator(config)
    kwargs = dict(ENGINE_KWARGS[label])
    if "max_depth" in config:
        kwargs["max_depth"] = config["max_depth"]
    started = time.perf_counter()
    result = explore_schedules(
        simulator,
        config["scripts"],
        _property(config),
        crash_schedule=_crash_schedule(config),
        workers=workers,
        **kwargs,
    )
    elapsed = time.perf_counter() - started
    assert result.exhausted, f"{config['name']}: exploration not exhaustive"
    if config.get("expect_violations"):
        assert result.violations, f"{config['name']}: expected violations"
    else:
        assert result.ok, f"{config['name']}: unexpected violations"
    return {
        "label": label,
        "workers": workers,
        "seconds": round(elapsed, 4),
        "terminal_schedules": result.terminal_schedules,
        "schedules_explored": result.schedules_explored,
        "max_depth_seen": result.max_depth_seen,
        "events_executed": result.events_executed,
        "events_replayed": result.events_replayed,
        "states_seen": result.states_seen,
        "states_deduped": result.states_deduped,
        "states_pruned_sleep": result.states_pruned_sleep,
        "states_merged_symmetry": result.states_merged_symmetry,
        "orbit_encodings": result.orbit_encodings,
        "violations_digest": _violations_digest(result),
        "independence_stats": {
            key: value
            for key, value in sorted(result.independence_stats.items())
        },
    }


#: The config/variant pair --profile runs: the sleep-set row of the
#: crash configuration — the DFS inner loop with the crash-aware
#: independence relation and choice-keyed sleep sets all hot.
PROFILE_CONFIG = "s2a-crash-n3-depth8"
PROFILE_LABEL = "dedup-sleep"


def _write_profile(path: str, top: int = 20) -> None:
    """Profile the hottest config and write the top cumulative entries."""
    import cProfile
    import io
    import pstats

    config = next(c for c in CONFIGS if c["name"] == PROFILE_CONFIG)
    profiler = cProfile.Profile()
    profiler.enable()
    run_one(config, label=PROFILE_LABEL)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    text = (
        f"cProfile top-{top} (cumulative) — "
        f"{PROFILE_CONFIG} / {PROFILE_LABEL}\n{buffer.getvalue()}"
    )
    with open(path, "w") as handle:
        handle.write(text)
    print(text)
    print(f"wrote profile to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_explorer.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker count for the parallel measurements",
    )
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="run the hottest config under cProfile and write the "
             "top-20 cumulative entries to PATH",
    )
    args = parser.parse_args()

    report = {
        "benchmark": "explorer",
        "schema": 9,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "notes": (
            "schema 9: the dedup cache keys branch points only, so "
            "states_seen counts distinct branch points and "
            "schedules_explored every expansion; independence_stats "
            "counts verdicts by source; rows keyed by label; digests "
            "remain on the schema-5 canonical encoding"
        ),
        "configs": [],
    }
    for config in CONFIGS:
        entry = {"name": config["name"], "runs": []}
        for label in config["engines"]:
            entry["runs"].append(run_one(config, label=label))
        for workers in config["workers"]:
            count = args.workers if workers == "N" else workers
            entry["runs"].append(
                run_one(config, label="incremental", workers=count)
            )
        by_label: dict = {}
        for run in entry["runs"]:
            # pin the first (single-worker) row per variant for ratios
            by_label.setdefault(run["label"], run)
        if "incremental" in by_label and "dedup" in by_label:
            incremental = by_label["incremental"]
            dedup = by_label["dedup"]
            # fraction of the incremental engine's expansions the
            # transposition cache proved redundant
            entry["state_revisit_reduction"] = round(
                1
                - dedup["schedules_explored"]
                / max(1, incremental["schedules_explored"]),
                4,
            )
            # distinct states vs terminal schedules: how symmetric the
            # tree is (the dedup acceptance metric)
            entry["expanded_vs_terminals_reduction"] = round(
                1
                - dedup["states_seen"]
                / max(1, dedup["terminal_schedules"]),
                4,
            )
            entry["dedup_speedup"] = round(
                incremental["seconds"] / max(1e-9, dedup["seconds"]), 2
            )
        if "dedup" in by_label and "dedup-sleep" in by_label:
            dedup = by_label["dedup"]
            slept = by_label["dedup-sleep"]
            # sleep sets cannot reduce *distinct* states (a slept
            # event's target is reachable via the commuted order by
            # construction); what they cut is redundant interleavings —
            # terminal property evaluations and executed events
            entry["sleep_terminal_reduction"] = round(
                1
                - slept["terminal_schedules"]
                / max(1, dedup["terminal_schedules"]),
                4,
            )
        if "dedup" in by_label and "dedup-rename" in by_label:
            dedup = by_label["dedup"]
            renamed = by_label["dedup-rename"]
            entry["rename_state_reduction"] = round(
                1 - renamed["states_seen"] / max(1, dedup["states_seen"]),
                4,
            )
            # canonical labelling's cost metric: encodings per cache
            # lookup (first expansions + hits: without sleep sets every
            # keyed node is one or the other); ~1 means the invariant
            # profiles separate almost every orbit without search,
            # versus |group|! encodings per lookup under enumeration
            lookups = (
                renamed["states_seen"]
                + renamed["states_deduped"]
                + renamed["states_merged_symmetry"]
            )
            entry["orbit_encodings_per_lookup"] = round(
                renamed["orbit_encodings"] / max(1, lookups), 2
            )
        if "dedup" in by_label and "dedup-sleep-rename" in by_label:
            dedup = by_label["dedup"]
            composed = by_label["dedup-sleep-rename"]
            entry["composed_state_reduction"] = round(
                1 - composed["states_seen"] / max(1, dedup["states_seen"]),
                4,
            )
        report["configs"].append(entry)
        print(f"{entry['name']}:")
        for run in entry["runs"]:
            extras = ""
            if run["states_seen"]:
                extras = (
                    f", {run['states_seen']} states seen / "
                    f"{run['states_deduped']} deduped"
                )
            if run["states_pruned_sleep"]:
                extras += f", {run['states_pruned_sleep']} sleep-pruned"
            if run["states_merged_symmetry"]:
                extras += (
                    f", {run['states_merged_symmetry']} symmetry-merged"
                )
            if run["orbit_encodings"]:
                extras += f", {run['orbit_encodings']} orbit encodings"
            print(
                f"  {run['label']}(workers={run['workers']}): "
                f"{run['seconds']}s, {run['terminal_schedules']} terminals, "
                f"{run['events_executed']} events executed, "
                f"{run['events_replayed']} replayed{extras}"
            )
        if "state_revisit_reduction" in entry:
            print(
                f"  state-revisit reduction: "
                f"{entry['state_revisit_reduction']:.1%} of incremental "
                f"expansions pruned; distinct states are "
                f"{entry['expanded_vs_terminals_reduction']:.1%} fewer "
                f"than terminals; dedup speedup "
                f"{entry['dedup_speedup']}x"
            )
        if "sleep_terminal_reduction" in entry:
            print(
                f"  sleep sets: {entry['sleep_terminal_reduction']:.1%} "
                f"fewer terminal evaluations"
            )
        if "rename_state_reduction" in entry:
            print(
                f"  rename symmetry: {entry['rename_state_reduction']:.1%} "
                f"fewer expanded states at "
                f"{entry['orbit_encodings_per_lookup']} canonical "
                f"encodings per cache lookup"
            )
        if "composed_state_reduction" in entry:
            print(
                f"  sleep+rename: {entry['composed_state_reduction']:.1%} "
                f"fewer expanded states"
            )

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")

    if args.profile:
        _write_profile(args.profile)


if __name__ == "__main__":
    main()
