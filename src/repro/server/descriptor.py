"""Declarative job descriptors: what the verification service runs.

A :class:`JobDescriptor` names an algorithm, a property (a spec name or
the SR channel axioms), a system configuration (``n``, ``k``, scripts,
crashes) and the engine options of
:func:`~repro.runtime.explorer.explore_schedules`.  Descriptors are pure
data — JSON in, JSON out — so they travel over the wire, land in the
memo store, and above all *canonicalize*: two descriptors that request
the same exploration (reordered JSON keys, defaults spelled out or
omitted, lists where tuples were meant, script pids as strings, a
worker count on a cached search, which never shards) produce the
**same** :func:`job_digest`, which is the memo key that lets two
users share one exploration.

The digest is :func:`repro.runtime.fingerprint.stable_digest` over the
normalized field values plus :data:`ENGINE_SCHEMA`, the version of the
engine's canonical state encoding and descriptor shape.  Bumping the
schema changes every key at once: results computed under an older
encoding are never served for a newer engine, they just age out of the
store.

Construction is strict about types as well as names: a boolean, integer,
script or crash field of the wrong JSON type (``"n": "3"``,
``"sleep_sets": "false"``, a script given as a string) raises
:class:`DescriptorError` instead of being coerced into some other
request.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Hashable, Mapping, Sequence

from ..broadcasts import (
    CausalBroadcast,
    FifoBroadcast,
    FirstKKsaBroadcast,
    KboAttemptBroadcast,
    KSteppedKsaBroadcast,
    ScdBroadcast,
    SendToAllBroadcast,
    TotalOrderBroadcast,
    TrivialKsaBroadcast,
    UniformReliableBroadcast,
)
from ..core.broadcast_spec import BroadcastSpec
from ..runtime import CrashSchedule, Simulator
from ..runtime.explorer import channels_property, spec_property
from ..runtime.fingerprint import stable_digest
from ..specs import (
    CausalBroadcastSpec,
    FifoBroadcastSpec,
    FirstKBroadcastSpec,
    KboBroadcastSpec,
    KScdBroadcastSpec,
    KSteppedBroadcastSpec,
    MutualBroadcastSpec,
    PairBroadcastSpec,
    ReliableBroadcastSpec,
    ScdBroadcastSpec,
    SendToAllSpec,
    TotalOrderBroadcastSpec,
    UniformReliableBroadcastSpec,
)

__all__ = [
    "ENGINE_SCHEMA",
    "ALGORITHMS",
    "SPECS",
    "DescriptorError",
    "JobDescriptor",
    "job_digest",
]

#: Version of the engine's canonical state encoding and of the
#: descriptor's field set.  Part of every memo key: digests and state
#: counts produced under different encodings are incomparable, so
#: results memoized under an older schema must never satisfy a
#: submission against a newer engine.  Schema 5 is the canonical
#: encoding v2; schema 6 replaces the engine selector with the ``dedup``
#: flag; schema 7 merges sharded runs with a pass of the one DFS, which
#: changes the work counters (and can change ``exhausted``) of
#: budget-capped or aborted ``workers > 1`` results; schema 8 drops the
#: verdict memo, so ``independence_stats`` loses ``memo_queries`` and
#: ``memo_hits``; schema 9 keys only branch points in the dedup cache,
#: which changes ``states_seen``, ``schedules_explored`` and, under
#: dedup plus sleep sets, ``terminal_schedules``.
ENGINE_SCHEMA = 9

#: Algorithm registry: descriptor name → ``factory(pid, n)`` class.
ALGORITHMS: Mapping[str, Callable[[int, int], Any]] = {
    "send-to-all": SendToAllBroadcast,
    "uniform-reliable": UniformReliableBroadcast,
    "fifo": FifoBroadcast,
    "causal": CausalBroadcast,
    "total-order": TotalOrderBroadcast,
    "kbo-attempt": KboAttemptBroadcast,
    "k-stepped": KSteppedKsaBroadcast,
    "scd": ScdBroadcast,
    "trivial-ksa": TrivialKsaBroadcast,
    "first-k": FirstKKsaBroadcast,
}

#: Spec registry: descriptor name → ``factory(k)`` (most specs ignore
#: ``k``; the k-indexed families consume it).  The reserved property
#: name ``"channels"`` selects the SR channel axioms instead of a spec.
SPECS: Mapping[str, Callable[[int], BroadcastSpec]] = {
    "send-to-all": lambda k: SendToAllSpec(),
    "reliable": lambda k: ReliableBroadcastSpec(),
    "uniform-reliable": lambda k: UniformReliableBroadcastSpec(),
    "fifo": lambda k: FifoBroadcastSpec(),
    "causal": lambda k: CausalBroadcastSpec(),
    "total-order": lambda k: TotalOrderBroadcastSpec(),
    "mutual": lambda k: MutualBroadcastSpec(),
    "pair": lambda k: PairBroadcastSpec(),
    "scd": lambda k: ScdBroadcastSpec(),
    "k-scd": lambda k: KScdBroadcastSpec(k),
    "kbo": lambda k: KboBroadcastSpec(k),
    "k-stepped": lambda k: KSteppedBroadcastSpec(k),
    "first-k": lambda k: FirstKBroadcastSpec(k),
}

#: The property name selecting the SR channel axioms.
_CHANNELS = "channels"

_SYMMETRIES = ("none", "rename")

#: Scalar fields by the one type each accepts.  ``bool`` is a subclass
#: of ``int`` in Python, so integer fields reject booleans explicitly.
_BOOL_FIELDS = (
    "assume_complete",
    "sync_broadcasts",
    "dedup",
    "sleep_sets",
    "stop_at_first_violation",
)
_INT_FIELDS = (
    "n", "k", "workers", "max_schedules", "max_depth", "progress_every"
)
_STR_FIELDS = ("algorithm", "spec", "symmetry")


class DescriptorError(ValueError):
    """A job descriptor that cannot be resolved against the registry."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pid(value: Any, what: str) -> int:
    """A process id: an integer, or its decimal string (a JSON key)."""
    if _is_int(value):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise DescriptorError(f"{what} pid must be an integer, got {value!r}")


def _pairs(value: Any, field_name: str) -> list:
    """The ``(key, value)`` items of a mapping or a pair sequence."""
    if isinstance(value, Mapping):
        return list(value.items())
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, (list, tuple)) and len(item) == 2 for item in value
    ):
        return [tuple(item) for item in value]
    raise DescriptorError(
        f"{field_name} must be an object keyed by pid, got {value!r}"
    )


def _normalize_scripts(
    scripts: Any,
) -> tuple[tuple[int, tuple[Hashable, ...]], ...]:
    """Scripts as a pid-sorted tuple of ``(pid, contents)`` pairs.

    Accepts any mapping (JSON object keys arrive as strings) or an
    already-normalized pair sequence; contents become tuples, so
    list-vs-tuple spellings of the same script canonicalize identically.
    Empty scripts are dropped — broadcasting nothing is the default.
    """
    normalized = []
    for pid, contents in _pairs(scripts, "scripts"):
        if not isinstance(contents, (list, tuple)):
            raise DescriptorError(
                f"script of pid {pid!r} must be a list, got {contents!r}"
            )
        entries = tuple(contents)
        for entry in entries:
            try:
                hash(entry)
            except TypeError:
                raise DescriptorError(
                    f"script entry {entry!r} of pid {pid!r} is not hashable"
                ) from None
        if entries:
            normalized.append((_pid(pid, "script"), entries))
    normalized.sort()
    pids = [pid for pid, _ in normalized]
    if len(set(pids)) != len(pids):
        raise DescriptorError(f"duplicate script pids: {pids}")
    return tuple(normalized)


def _normalize_crashes(at_step: Any) -> tuple[tuple[int, int], ...]:
    """``crash_at_step`` as a pid-sorted tuple of ``(pid, step)`` pairs."""
    normalized = []
    for pid, step in _pairs(at_step, "crash_at_step"):
        if not _is_int(step):
            raise DescriptorError(
                f"crash step of pid {pid!r} must be an integer, got {step!r}"
            )
        normalized.append((_pid(pid, "crash"), step))
    return tuple(sorted(normalized))


def _normalize_initial_crashes(pids: Any) -> tuple[int, ...]:
    """``crash_initially`` as a sorted tuple of distinct pids."""
    if not isinstance(pids, (list, tuple, set, frozenset)):
        raise DescriptorError(
            f"crash_initially must be a list of pids, got {pids!r}"
        )
    return tuple(sorted({_pid(p, "initial-crash") for p in pids}))


@dataclass(frozen=True)
class JobDescriptor:
    """One declarative verification job, in canonical form.

    Construction normalizes every field (see the ``_normalize_*``
    helpers), so value equality — and therefore :func:`job_digest` —
    identifies *equivalent requests*, not equal spellings.  Fields left
    at their defaults digest identically to fields spelled out.
    """

    algorithm: str
    n: int
    scripts: tuple[tuple[int, tuple[Hashable, ...]], ...]
    spec: str = _CHANNELS
    k: int = 1
    assume_complete: bool = False
    sync_broadcasts: bool = False
    crash_at_step: tuple[tuple[int, int], ...] = ()
    crash_initially: tuple[int, ...] = ()
    dedup: bool = True
    sleep_sets: bool = False
    symmetry: str = "none"
    workers: int = 1
    max_schedules: int = 100_000
    max_depth: int = 400
    stop_at_first_violation: bool = False
    #: Node expansions between :class:`ProgressSnapshot` emissions.
    #: Telemetry cadence only — deliberately part of the descriptor (it
    #: is what the submitter asked the stream to look like) but see
    #: :meth:`memo_fields`: it is excluded from the memo key, since the
    #: exploration *result* does not depend on it.
    progress_every: int = 1000

    def __post_init__(self) -> None:
        self._check_types()
        object.__setattr__(
            self, "scripts", _normalize_scripts(self.scripts)
        )
        object.__setattr__(
            self, "crash_at_step", _normalize_crashes(self.crash_at_step)
        )
        object.__setattr__(
            self,
            "crash_initially",
            _normalize_initial_crashes(self.crash_initially),
        )
        self._validate()
        if self.dedup:
            # the engine never shards a cached search (one cache sees
            # every state), so any worker count runs as one process
            object.__setattr__(self, "workers", 1)

    def _check_types(self) -> None:
        """Reject scalar fields of the wrong type, naming the field."""
        for names, check, noun in (
            (_BOOL_FIELDS, lambda v: isinstance(v, bool), "a boolean"),
            (_INT_FIELDS, _is_int, "an integer"),
            (_STR_FIELDS, lambda v: isinstance(v, str), "a string"),
        ):
            for name in names:
                value = getattr(self, name)
                if not check(value):
                    raise DescriptorError(
                        f"{name} must be {noun}, got {value!r}"
                    )

    def _validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise DescriptorError(
                f"unknown algorithm {self.algorithm!r}; registered: "
                f"{sorted(ALGORITHMS)}"
            )
        if self.spec != _CHANNELS and self.spec not in SPECS:
            raise DescriptorError(
                f"unknown spec {self.spec!r}; registered: "
                f"{sorted(SPECS)} (or {_CHANNELS!r})"
            )
        if self.n < 1:
            raise DescriptorError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise DescriptorError(f"k must be >= 1, got {self.k}")
        if self.symmetry not in _SYMMETRIES:
            raise DescriptorError(
                f"unknown symmetry {self.symmetry!r}; "
                f"expected one of {_SYMMETRIES}"
            )
        if self.workers < 1:
            raise DescriptorError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.max_schedules < 1 or self.max_depth < 1:
            raise DescriptorError(
                "max_schedules and max_depth must be >= 1"
            )
        if self.progress_every < 1:
            raise DescriptorError(
                f"progress_every must be >= 1, got {self.progress_every}"
            )
        for pid, _ in self.scripts:
            if not 0 <= pid < self.n:
                raise DescriptorError(
                    f"script pid {pid} outside 0..{self.n - 1}"
                )
        for pid, step in self.crash_at_step:
            if not 0 <= pid < self.n:
                raise DescriptorError(
                    f"crash pid {pid} outside 0..{self.n - 1}"
                )
            if step < 0:
                raise DescriptorError(f"crash step {step} negative")
        for pid in self.crash_initially:
            if not 0 <= pid < self.n:
                raise DescriptorError(
                    f"initial-crash pid {pid} outside 0..{self.n - 1}"
                )

    # -- wire format ------------------------------------------------------

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "JobDescriptor":
        """Build a descriptor from its JSON dict; inverse of :meth:`to_json`.

        Unknown keys are rejected loudly — a typoed option that
        silently fell back to a default would memoize the *wrong*
        exploration under the caller's intended key.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DescriptorError(
                f"unknown descriptor keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        missing = {"algorithm", "n", "scripts"} - set(data)
        if missing:
            raise DescriptorError(
                f"missing required descriptor keys {sorted(missing)}"
            )
        return cls(**dict(data))

    def to_json(self) -> dict:
        """The canonical JSON dict of this descriptor."""
        return {
            "algorithm": self.algorithm,
            "spec": self.spec,
            "n": self.n,
            "k": self.k,
            "scripts": {
                str(pid): list(contents) for pid, contents in self.scripts
            },
            "assume_complete": self.assume_complete,
            "sync_broadcasts": self.sync_broadcasts,
            "crash_at_step": {
                str(pid): step for pid, step in self.crash_at_step
            },
            "crash_initially": list(self.crash_initially),
            "dedup": self.dedup,
            "sleep_sets": self.sleep_sets,
            "symmetry": self.symmetry,
            "workers": self.workers,
            "max_schedules": self.max_schedules,
            "max_depth": self.max_depth,
            "stop_at_first_violation": self.stop_at_first_violation,
            "progress_every": self.progress_every,
        }

    # -- resolution -------------------------------------------------------

    def build(
        self,
    ) -> tuple[
        Simulator,
        dict[int, tuple[Hashable, ...]],
        Any,
        CrashSchedule | None,
        dict[str, Any],
    ]:
        """Resolve the descriptor into ``explore_schedules`` arguments.

        Returns ``(simulator, scripts, property, crash_schedule,
        engine_kwargs)`` — everything but the ``progress`` callback,
        which the job runner supplies.
        """
        algorithm = ALGORITHMS[self.algorithm]
        simulator = Simulator(
            self.n,
            lambda pid, n: algorithm(pid, n),
            k=self.k,
            sync_broadcasts=self.sync_broadcasts,
        )
        if self.spec == _CHANNELS:
            prop = channels_property(assume_complete=self.assume_complete)
        else:
            prop = spec_property(
                SPECS[self.spec](self.k),
                assume_complete=self.assume_complete,
            )
        crash: CrashSchedule | None = None
        if self.crash_at_step or self.crash_initially:
            crash = CrashSchedule(
                at_step=dict(self.crash_at_step),
                initially=frozenset(self.crash_initially),
            )
        kwargs: dict[str, Any] = {
            "dedup": self.dedup,
            "sleep_sets": self.sleep_sets,
            "symmetry": self.symmetry,
            "workers": self.workers,
            "max_schedules": self.max_schedules,
            "max_depth": self.max_depth,
            "stop_at_first_violation": self.stop_at_first_violation,
        }
        return simulator, dict(self.scripts), prop, crash, kwargs

    # -- memoization ------------------------------------------------------

    def memo_fields(self) -> tuple[tuple[str, Any], ...]:
        """The (name, value) pairs the memo key is computed over.

        Everything that changes what the engine explores or reports is
        in; ``progress_every`` — pure telemetry cadence — is out, so two
        submissions differing only in how often they want progress
        events still share one exploration.  ``workers`` *is* included
        because the result records it: a sharded run's answer equals
        the sequential one (only ``workers`` differs), but a memo hit
        must return exactly the result its descriptor would compute.
        Under ``dedup`` construction has already set it to 1, the count
        the engine runs and records, so every spelling shares one key.
        """
        return tuple(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name != "progress_every"
        )

    def estimated_cost(self) -> int:
        """A coarse, deterministic size estimate for batching decisions.

        Not a prediction of wall-clock — just a monotone proxy (processes
        times script entries, raised to a capped power standing in for
        tree depth) that lets the job manager group *small* jobs into one
        worker dispatch without ever batching a depth-8 showcase behind
        them.
        """
        total = sum(len(contents) for _, contents in self.scripts)
        return (self.n * max(1, total)) ** min(3, max(1, total))


def job_digest(
    descriptor: JobDescriptor, *, schema: int = ENGINE_SCHEMA
) -> str:
    """The memo key of a descriptor: canonical digest + engine schema.

    Built on :func:`repro.runtime.fingerprint.stable_digest`, the same
    tagged canonical encoding the engine keys states with — stable
    across interpreter runs and machines, which is what lets a
    persisted memo store serve warm restarts.  ``schema`` is baked into
    the digest so entries computed by an incompatible engine version can
    never collide with current keys.
    """
    return stable_digest(
        "repro.server.job", schema, descriptor.memo_fields()
    )
