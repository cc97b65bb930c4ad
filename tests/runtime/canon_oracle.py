"""The whole-state canonical encoder: the orbit-key differential oracle.

:meth:`~repro.runtime.simulator.SimulationRun.canonical_state_digest`
fills cached per-component templates; :func:`canonical_state_digest`
below rebuilds the canonical image of the whole state through the
recursive ``isinstance`` chain of
:func:`tests.runtime.encoding_oracle.canonical_image`, one token table
shared by every component, and encodes it from scratch — no templates,
no cached encodings, and no code of the canonicalizer.  Likewise
:func:`orbit_key` recomputes every per-pid profile from the journal
entries.  The cached path must agree with both byte for byte, at every
node of a symmetric search.
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime import SimulationRun, orbit_digest
from repro.runtime.fingerprint import stable_digest
from repro.runtime.simulator import Gated

from .encoding_oracle import canonical_image


def canonical_state_digest(
    run: SimulationRun, permutation: Sequence[int]
) -> str:
    """The state digest after relabeling pids through ``permutation``."""
    tokens: dict = {}

    def image(value):
        return canonical_image(permutation, value, tokens=tokens)

    n = run.simulator.n
    order = sorted(range(n), key=lambda p: permutation[p])
    journals = [image(run.runtimes[p].journal_entries()) for p in order]
    pool = sorted(
        (
            (
                permutation[item.p2p.sender],
                permutation[item.p2p.receiver],
                item.p2p.seq,
            ),
            item,
        )
        for item in run.network.deliverable(None)
    )
    pool_encoding = [(key, image(item.payload)) for key, item in pool]
    registry_encoding = [
        (
            name,
            {
                permutation[p]: image(obj.proposals[p])
                for p in sorted(obj.proposals, key=lambda p: permutation[p])
            },
            {
                permutation[p]: image(obj.decisions[p])
                for p in sorted(obj.decisions, key=lambda p: permutation[p])
            },
        )
        for name, obj in sorted(run.registry.objects.items())
    ]
    counters = {permutation[p]: c for p, c in run.factory.counters().items()}
    last_sync = [
        None
        if run.last_sync_message[p] is None
        else image(run.last_sync_message[p].uid)
        for p in order
    ]
    remaining = [image(tuple(run.remaining[p])) for p in order]
    return stable_digest(
        "canon-run",
        run.steps,
        sorted(permutation[p] for p in run.alive),
        journals,
        pool_encoding,
        registry_encoding,
        counters,
        last_sync,
        remaining,
    )


def orbit_key(
    run: SimulationRun, groups: Sequence[Sequence[int]]
) -> tuple[str, tuple[int, ...], int]:
    """``run.orbit_key(groups)``, with every profile and encoding fresh."""
    in_degree: dict[int, int] = {}
    out_degree: dict[int, int] = {}
    for item in run.network.deliverable(None):
        out_degree[item.sender] = out_degree.get(item.sender, 0) + 1
        in_degree[item.receiver] = in_degree.get(item.receiver, 0) + 1

    def profile(p: int) -> str:
        return stable_digest(
            (
                p in run.alive,
                tuple(entry[0] for entry in run.runtimes[p].journal_entries()),
                tuple(
                    "gated" if isinstance(entry, Gated) else "plain"
                    for entry in run.remaining[p]
                ),
                run.last_sync_message[p] is not None,
                in_degree.get(p, 0),
                out_degree.get(p, 0),
            )
        )

    return orbit_digest(
        groups,
        run.simulator.n,
        profile,
        lambda permutation: canonical_state_digest(run, permutation),
    )
