"""The whole-state canonical encoder: the orbit-key differential oracle.

:meth:`~repro.runtime.simulator.SimulationRun.canonical_state_digest`
fills per-component templates and memoizes each component's digest
across the search; :func:`canonical_state_digest` below rebuilds the
canonical image of every component through the recursive
``isinstance`` chain of
:func:`tests.runtime.encoding_oracle.canonical_image`, one token table
shared by every component, and digests the images from scratch under
the same layout — no templates, no memo, no cached encodings, and no
code of the canonicalizer.  Likewise :func:`orbit_key` recomputes every
per-pid profile from the journal entries.  The cached path must agree
with both byte for byte, at every node of a symmetric search.

:func:`whole_image_digest` hashes the canonical image of the whole
state in one piece instead, the layout the key had before component
digests.  Its bytes differ, but it must induce the same partition of
states: equal component digests mean equal component images.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from repro.runtime import SimulationRun, orbit_digest
from repro.runtime.fingerprint import stable_digest
from repro.runtime.simulator import Gated

from .encoding_oracle import canonical_image, encoding


def _pool(run: SimulationRun, permutation: Sequence[int]) -> list:
    """The in-flight messages, sorted by mapped point-to-point identity."""
    return sorted(
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


def _registry(run: SimulationRun, permutation: Sequence[int], image) -> list:
    """The k-SA registry's image: objects by name, proposals before
    decisions, each in mapped-pid order."""
    return [
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


def _gates(run: SimulationRun, permutation: Sequence[int], order, image):
    """The message-factory counters and the sync gates' identities."""
    counters = {permutation[p]: c for p, c in run.factory.counters().items()}
    last_sync = [
        None
        if run.last_sync_message[p] is None
        else image(run.last_sync_message[p].uid)
        for p in order
    ]
    return counters, last_sync


def canonical_state_digest(
    run: SimulationRun, permutation: Sequence[int]
) -> str:
    """The state digest after relabeling pids through ``permutation``.

    One hash over the header, the 16-byte digest of each journal's,
    in-flight message's and remaining script's canonical image, and the
    encodings of the registry and the gates.  A message's component is
    the pair ``(p2p, payload)``, a journal's and a script's the tuple of
    their entries.
    """
    tokens: dict = {}

    def image(value):
        return canonical_image(permutation, value, tokens=tokens)

    def digest(values: tuple) -> bytes:
        return hashlib.blake2b(
            encoding(image(values)), digest_size=16
        ).digest()

    order = sorted(range(run.simulator.n), key=lambda p: permutation[p])
    journals = [digest(run.runtimes[p].journal_entries()) for p in order]
    pool = _pool(run, permutation)
    in_flight = [digest(((item.p2p, item.payload),)) for _, item in pool]
    registry = _registry(run, permutation, image)
    counters, last_sync = _gates(run, permutation, order, image)
    remaining = [digest(tuple(run.remaining[p])) for p in order]
    header = (
        "canon-run",
        run.steps,
        sorted(permutation[p] for p in run.alive),
        len(pool),
    )
    return hashlib.blake2b(
        b"".join(
            (
                encoding(*header),
                *journals,
                *in_flight,
                encoding(registry, counters, last_sync),
                *remaining,
            )
        ),
        digest_size=16,
    ).hexdigest()


def whole_image_digest(
    run: SimulationRun, permutation: Sequence[int]
) -> str:
    """The digest of the whole state's canonical image, in one piece."""
    tokens: dict = {}

    def image(value):
        return canonical_image(permutation, value, tokens=tokens)

    order = sorted(range(run.simulator.n), key=lambda p: permutation[p])
    journals = [image(run.runtimes[p].journal_entries()) for p in order]
    pool = [(key, image(item.payload)) for key, item in _pool(run, permutation)]
    registry = _registry(run, permutation, image)
    counters, last_sync = _gates(run, permutation, order, image)
    remaining = [image(tuple(run.remaining[p])) for p in order]
    return stable_digest(
        "canon-run",
        run.steps,
        sorted(permutation[p] for p in run.alive),
        journals,
        pool,
        registry,
        counters,
        last_sync,
        remaining,
    )


def orbit_key(
    run: SimulationRun,
    groups: Sequence[Sequence[int]],
    state_digest: Callable[
        [SimulationRun, Sequence[int]], str
    ] = canonical_state_digest,
) -> tuple[str, tuple[int, ...], int]:
    """``run.orbit_key(groups)``, with every profile and encoding fresh.

    ``state_digest`` is the per-permutation digest minimized; pass
    :func:`whole_image_digest` for the whole-image key.
    """
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
        lambda permutation: state_digest(run, permutation),
    )
