"""Golden digests of every seeded request/response run.

ABD, Paxos over Ω, FloodSet over P and Ben-Or are run with the seeds,
scripts, crash schedules and step budgets that their tests, the
service benchmarks (``bench_perf_abd``, ``bench_paxos``,
``bench_consensus_family``), both examples and Experiment B1
(``experiments/boundaries.py``) use.  Per run, one digest pins the
execution (in the canonical encoding), every history record (process,
operation, target, argument, invocation and response step, result),
quiescence, the number of decisions taken and the blocked map.  Any
drift in how operations are scheduled, stepped, crashed or recorded
changes a digest.  Every execution also round-trips through
``repro.core.serialize``.

Regenerate (after an *intentional* change) with::

    PYTHONPATH=src python - <<'PY'
    import json
    from tests.registers.test_service_runs import GOLDEN, RUNS, run_digest
    GOLDEN.write_text(json.dumps(
        {key: run_digest(RUNS[key]()) for key in RUNS}, indent=1) + "\\n")
    PY
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.agreement import BenOrProcess, FloodSetProcess, PaxosProcess
from repro.core.serialize import dumps, loads
from repro.detectors import Clock, OmegaOracle, PerfectDetector
from repro.registers import AbdRegisterProcess
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.fingerprint import stable_digest
from repro.runtime.service import Invocation

GOLDEN = Path(__file__).parent.parent / "data" / "service_runs.json"


def run_service(n, factory, scripts, *, seed, crash=None, clock=None,
                max_steps=100_000, **options):
    """One seeded run of a request/response emulation."""
    return Simulator(n, factory, seed=seed, **options).run(
        scripts, crash_schedule=crash, max_steps=max_steps, clock=clock
    )


def run_digest(run) -> str:
    """The digest of one run: execution, history and end state."""
    return stable_digest(
        run.execution,
        [
            (
                record.process,
                record.operation,
                record.target,
                record.argument,
                record.invoked_at,
                record.responded_at,
                record.result,
            )
            for record in run.history
        ],
        run.quiescent,
        run.steps_taken,
        sorted(run.blocked.items()),
    )


# -- the four algorithms, as their callers configure them ----------------


def abd(n, scripts, *, seed, crash=None, initial=0, **options):
    def factory(pid, size):
        return AbdRegisterProcess(pid, size, initial=initial)

    return run_service(n, factory, scripts, seed=seed, crash=crash, **options)


def paxos(n, scripts, *, seed, crash=None, stabilize=0,
          stable_leader=None, max_steps, **options):
    crash = crash or CrashSchedule.none()
    clock = Clock()
    omega = OmegaOracle(
        n, crash, clock, stabilize_at=stabilize, stable_leader=stable_leader
    )
    return run_service(
        n,
        lambda pid, size: PaxosProcess(pid, size, omega),
        scripts,
        seed=seed,
        crash=crash,
        clock=clock,
        max_steps=max_steps,
        **options,
    )


def floodset(n, scripts, *, seed, crash=None, **options):
    crash = crash or CrashSchedule.none()
    clock = Clock()
    detector = PerfectDetector(n, crash, clock, lag=0)
    return run_service(
        n,
        lambda pid, size: FloodSetProcess(pid, size, detector),
        scripts,
        seed=seed,
        crash=crash,
        clock=clock,
        max_steps=120_000,
        **options,
    )


def benor(n, scripts, *, seed, crash=None, coin_seed=0, max_steps,
          **options):
    return run_service(
        n,
        lambda pid, size: BenOrProcess(pid, size, coin_seed=coin_seed),
        scripts,
        seed=seed,
        crash=crash,
        max_steps=max_steps,
        **options,
    )


def proposals(op_target, values):
    return {
        p: [Invocation("propose", op_target, value)]
        for p, value in values.items()
    }


def strings(n, prefix="v"):
    return {p: f"{prefix}{p}" for p in range(n)}


# -- the scripts of the callers ------------------------------------------

#: ``tests/registers/test_abd.py``'s mixed workload over five processes.
MIXED = {
    0: [Invocation("write", "R0", 10), Invocation("read", "R1")],
    1: [Invocation("write", "R1", 20), Invocation("read", "R0")],
    2: [Invocation("read", "R0"), Invocation("write", "R0", 30)],
    3: [Invocation("read", "R1"), Invocation("write", "R1", 40)],
    4: [Invocation("read", "R0")],
}


def bench_workload(n, ops_per_process):
    """``benchmarks/bench_perf_abd.py``'s alternating write/read load."""
    return {
        p: [
            Invocation("write" if i % 2 == 0 else "read", f"R{p % 2}",
                       i if i % 2 == 0 else None)
            for i in range(ops_per_process)
        ]
        for p in range(n)
    }


#: The store-buffer litmus of ``examples/register_emulation_gap.py``.
LITMUS = {
    p: [Invocation("write", f"R{p}", 1),
        Invocation("read", f"R{(p + 1) % 3}")]
    for p in range(3)
}

RUNS = {}

# tests/registers/test_abd.py
for seed in range(6):
    RUNS[f"abd/mixed/seed={seed}"] = partial(abd, 5, MIXED, seed=seed)
for seed in range(3):
    RUNS[f"abd/mixed/crash/seed={seed}"] = partial(
        abd, 5, MIXED, seed=seed, crash=CrashSchedule({4: 25, 3: 60})
    )
RUNS["abd/no-majority"] = partial(
    abd, 4, {0: [Invocation("write", "R", 1)]}, seed=0,
    crash=CrashSchedule.initial([1, 2]),
)
RUNS["abd/initial-read"] = partial(
    abd, 3, {0: [Invocation("read", "R")]}, seed=1, initial="ε"
)
# benchmarks/bench_perf_abd.py
for n in (3, 5, 7):
    RUNS[f"abd/bench/n={n}"] = partial(abd, n, bench_workload(n, 2), seed=1)
RUNS["abd/bench/crash"] = partial(
    abd, 5, bench_workload(5, 2), seed=2, crash=CrashSchedule({4: 30})
)
for ops in (6, 10):
    RUNS[f"abd/bench/checker/ops={ops}"] = partial(
        abd, 5, bench_workload(5, ops // 2), seed=3
    )
# examples/register_emulation_gap.py
RUNS["abd/litmus"] = partial(
    abd, 5, LITMUS, seed=7, crash=CrashSchedule({4: 20})
)
RUNS["abd/litmus/no-majority"] = partial(
    abd, 5, {0: [Invocation("write", "R", 1)]}, seed=7,
    crash=CrashSchedule.initial([2, 3, 4]),
)

# tests/detectors/test_oracles_paxos.py
PAXOS_TEST = partial(paxos, max_steps=60_000)
for seed in range(5):
    RUNS[f"paxos/test/seed={seed}"] = partial(
        PAXOS_TEST, 5, proposals("c", strings(5)), seed=seed
    )
RUNS["paxos/test/leader-crash"] = partial(
    PAXOS_TEST, 5, proposals("c", strings(5)), seed=1,
    crash=CrashSchedule({0: 40}), stabilize=120,
)
for seed in range(3):
    RUNS[f"paxos/test/unstable/seed={seed}"] = partial(
        PAXOS_TEST, 5, proposals("c", strings(5)), seed=seed, stabilize=250
    )
RUNS["paxos/test/lone-leader"] = partial(
    PAXOS_TEST, 5, proposals("c", {3: "v3"}), seed=2, stable_leader=3
)
RUNS["paxos/test/lone-follower"] = partial(
    PAXOS_TEST, 5, proposals("c", {3: "v3"}), seed=2, stable_leader=0
)
RUNS["paxos/test/minority-crash"] = partial(
    PAXOS_TEST, 5, proposals("c", strings(5)), seed=4,
    crash=CrashSchedule({4: 10, 3: 20}),
)
RUNS["paxos/test/two-instances"] = partial(
    paxos, 4,
    {
        p: [Invocation("propose", "a", f"a{p}"),
            Invocation("propose", "b", f"b{p}")]
        for p in range(4)
    },
    seed=5, max_steps=80_000,
)
# benchmarks/bench_paxos.py
PAXOS_BENCH = partial(paxos, max_steps=100_000)
for n in (3, 5, 7):
    RUNS[f"paxos/bench/n={n}"] = partial(
        PAXOS_BENCH, n, proposals("slot", strings(n)), seed=1
    )
RUNS["paxos/bench/leader-crash"] = partial(
    PAXOS_BENCH, 5, proposals("slot", strings(5)), seed=2,
    crash=CrashSchedule({0: 40}), stabilize=150,
)
RUNS["paxos/bench/unstable"] = partial(
    PAXOS_BENCH, 5, proposals("slot", strings(5)), seed=4, stabilize=250
)
# examples/consensus_with_omega.py
PAXOS_EXAMPLE = partial(paxos, 5, proposals("slot-0", strings(5)),
                        max_steps=60_000)
RUNS["paxos/example/stable"] = partial(PAXOS_EXAMPLE, seed=11)
RUNS["paxos/example/leader-crash"] = partial(
    PAXOS_EXAMPLE, seed=3, crash=CrashSchedule({0: 40}), stabilize=150
)
RUNS["paxos/example/unstable"] = partial(PAXOS_EXAMPLE, seed=7, stabilize=300)
# src/repro/experiments/boundaries.py (Experiment B1's Paxos rows)
for n in (3, 5):
    for seed in (0, 1):
        RUNS[f"paxos/b1/n={n}/seed={seed}"] = partial(
            paxos, n, proposals("slot", strings(n)), seed=seed,
            max_steps=80_000,
        )
        RUNS[f"paxos/b1/n={n}/seed={seed}/crash"] = partial(
            paxos, n, proposals("slot", strings(n)), seed=seed,
            crash=CrashSchedule({0: 40}), stabilize=120, max_steps=80_000,
        )

# tests/agreement/test_floodset.py
for seed in range(5):
    RUNS[f"floodset/test/seed={seed}"] = partial(
        floodset, 4, proposals("c", strings(4)), seed=seed
    )
RUNS["floodset/test/minimum"] = partial(
    floodset, 4, proposals("c", {0: "z", 1: "a", 2: "m", 3: "q"}), seed=1
)
RUNS["floodset/test/cascade"] = partial(
    floodset, 4, proposals("c", strings(4)), seed=1,
    crash=CrashSchedule({1: 10, 2: 25, 3: 45}),
)
for seed in range(3):
    RUNS[f"floodset/test/crash/seed={seed}"] = partial(
        floodset, 4, proposals("c", strings(4)), seed=seed,
        crash=CrashSchedule({3: 15}),
    )
# benchmarks/bench_consensus_family.py
for n in (3, 5):
    RUNS[f"floodset/bench/n={n}"] = partial(
        floodset, n, proposals("c", strings(n)), seed=1
    )

# tests/agreement/test_benor.py
BENOR_TEST = partial(benor, max_steps=150_000)
for seed in range(6):
    RUNS[f"benor/test/seed={seed}"] = partial(
        BENOR_TEST, 5, proposals("bit", {p: p % 2 for p in range(5)}),
        seed=seed,
    )
for bit in (0, 1):
    RUNS[f"benor/test/unanimous={bit}"] = partial(
        BENOR_TEST, 5, proposals("bit", {p: bit for p in range(5)}), seed=2
    )
RUNS["benor/test/crash"] = partial(
    BENOR_TEST, 5, proposals("bit", {p: p % 2 for p in range(5)}), seed=3,
    crash=CrashSchedule({4: 30, 3: 60}),
)
for coin_seed in (0, 1, 2):
    RUNS[f"benor/test/coin={coin_seed}"] = partial(
        BENOR_TEST, 5, proposals("bit", {p: p % 2 for p in range(5)}),
        seed=4, coin_seed=coin_seed,
    )
RUNS["benor/test/n=3"] = partial(
    BENOR_TEST, 3, proposals("bit", {0: 0, 1: 1, 2: 1}), seed=5
)
# benchmarks/bench_consensus_family.py
for n in (3, 5):
    RUNS[f"benor/bench/n={n}"] = partial(
        benor, n, proposals("b", {p: p % 2 for p in range(n)}), seed=2,
        max_steps=200_000,
    )


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_run_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert run_digest(RUNS[key]()) == golden[key], (
        f"service run {key} changed — if intentional, regenerate "
        f"{GOLDEN.name} (see module docstring)"
    )


@pytest.mark.parametrize("key", sorted(RUNS))
def test_sanitized_run_matches_golden(key):
    """Each event's footprint stays inside the closed static summary of
    its algorithm (else ``FootprintViolationError``), and checking it
    changes nothing."""
    golden = json.loads(GOLDEN.read_text())
    assert run_digest(RUNS[key](validate_footprints=True)) == golden[key]


@pytest.mark.parametrize("key", sorted(RUNS))
def test_execution_round_trips_through_json(key):
    """Timestamps, ballots and FloodSet's value sets survive the trip."""
    execution = RUNS[key]().execution
    assert loads(dumps(execution)) == execution
