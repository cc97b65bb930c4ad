"""The end-to-end benchmark's 23-config crash catalog, for tests.

Three families under the scripts ``{0: ["a"], 1: ["b"]}``: Send-To-All
over three processes, Uniform Reliable Broadcast and k-Stepped (k = 1)
over two, each without a crash and with one crash of every pid at each
of the family's global step counts — the catalog
``benchmarks/e2e/workloads.py`` sweeps.  Each entry is
``(id, simulator, crash_schedule)``.
"""

from repro.broadcasts import (
    KSteppedKsaBroadcast,
    SendToAllBroadcast,
    UniformReliableBroadcast,
)
from repro.runtime import CrashSchedule, Simulator

SCRIPTS = {0: ["a"], 1: ["b"]}

#: family → (algorithm, n, k, crash steps)
FAMILIES = {
    "s2a": (SendToAllBroadcast, 3, 1, (2, 4, 6, 8)),
    "urb": (UniformReliableBroadcast, 2, 1, (3, 6)),
    "kst": (KSteppedKsaBroadcast, 2, 1, (3, 6)),
}


def catalog():
    """Every catalog config, in the benchmark's order."""
    configs = []
    for family, (algorithm, n, k, steps) in FAMILIES.items():
        crashes = [None] + [(pid, step) for pid in range(n) for step in steps]
        for crash in crashes:
            where = "none" if crash is None else "p%d@%d" % crash
            configs.append(
                (
                    f"{family}-n{n}-{where}",
                    Simulator(n, algorithm, k=k),
                    None
                    if crash is None
                    else CrashSchedule(at_step={crash[0]: crash[1]}),
                )
            )
    return configs
