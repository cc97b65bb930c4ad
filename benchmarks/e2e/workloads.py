"""Inputs and measured passes of the end-to-end benchmark's workloads.

Every workload is a closed loop: one request at a time (the service
workload: two connections, each waiting for its reply before it submits
again).  A *pass* runs the workload's fixed input set once.

``sweep-unreduced``
    The 23-config crash catalog with plain DFS — the reference search
    every reduction must match.  The work sits in the simulator and the
    property tracker; fingerprint, independence oracle, orbit key and
    checkpoint code are never called.
``sweep-reduced``
    The same catalog with ``dedup=True, sleep_sets=True``: the same
    inputs through fingerprint, cache and oracle.  It includes configs
    where the cache costs more than it saves, so work moved from ``fork``
    into ``fingerprint`` shows.
``orbit-checkpoint``
    The symmetric 3-sender send-to-all search under dedup, sleep sets and
    ``symmetry="rename"``, writing checkpoints at the library's default
    cadence while a progress callback copies the file; then a resume from
    the copy nearest half the search.  The only workload that exercises
    ``orbit_key`` and checkpoint writes and reads.
``service-zipf``
    A fresh in-process :class:`~repro.server.service.VerificationService`
    with default settings answers a Zipf(1.0) stream drawn from 306
    distinct descriptors, 1.2× its memo capacity, so memo reads, writes
    and evictions share one store.  The explorations themselves are tiny.

Every request is checked: it must not raise, must be exhaustive, and its
violation set must match the unreduced reference in ``expected.json``
(resumes must match the uninterrupted run; memo hits the cold answer).
Only public API is used, with the spellings ``dedup=True``,
``sleep_sets=True``, ``symmetry="rename"``, ``max_schedules``,
``checkpoint_to``, ``resume_from``, ``progress`` and ``progress_every``;
service descriptors leave ``engine`` at its default.

Times are *calibrated*: the shared machines this runs on alternate
between speeds that differ by up to 2× for minutes at a time, so a
fixed reference routine (:func:`calibrate`, independent of the library)
is timed between requests and every :data:`TICK_S` inside long ones,
and the wall time in between is scaled to a machine on which that
routine takes :data:`REFERENCE_CALIBRATION_S` (:class:`Meter`).  Raw
wall times are kept alongside.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterable, Mapping

from repro.broadcasts import (
    KSteppedKsaBroadcast,
    SendToAllBroadcast,
    UniformReliableBroadcast,
)
from repro.runtime import (
    CrashSchedule,
    Simulator,
    channels_property,
    explore_schedules,
    spec_property,
)
from repro.server.client import ServiceClient
from repro.server.service import VerificationService
from repro.specs import (
    KSteppedBroadcastSpec,
    SendToAllSpec,
    TotalOrderBroadcastSpec,
    UniformReliableBroadcastSpec,
)

Span = Callable[[str], ContextManager[None]]

clock = time.perf_counter


def no_span(layer: str) -> ContextManager[None]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

SCRIPTS = {0: ["a"], 1: ["b"]}

_FAMILIES: dict[str, dict[str, Any]] = {
    # send-to-all checked against total order: violating, so the
    # reference digests are not all empty
    "s2a": {"n": 3, "steps": (2, 4, 6, 8)},
    # no crash at step 9: those four configs are nearly full trees and
    # took half of each sweep, more than the benchmark's run budget allows
    "urb": {"n": 2, "steps": (3, 6)},
    "kst": {"n": 2, "steps": (3, 6)},
}

#: Catalog configs small enough for ``--quick``.
QUICK_CATALOG = ("s2a-n3-p0@2", "urb-n2-p0@3", "kst-n2-p1@3")


@dataclass(frozen=True)
class Config:
    """One catalog entry: an algorithm family, n, and an optional crash."""

    family: str
    n: int
    crash: tuple[int, int] | None

    @property
    def id(self) -> str:
        where = "none" if self.crash is None else "p%d@%d" % self.crash
        return f"{self.family}-n{self.n}-{where}"

    def build(self) -> tuple:
        """``(simulator, scripts, property, crash_schedule)``."""
        if self.family == "s2a":
            simulator = Simulator(self.n, SendToAllBroadcast)
            prop = spec_property(
                TotalOrderBroadcastSpec(), assume_complete=False
            )
        elif self.family == "urb":
            simulator = Simulator(self.n, UniformReliableBroadcast)
            prop = channels_property(assume_complete=False)
        else:
            simulator = Simulator(self.n, KSteppedKsaBroadcast, k=1)
            prop = spec_property(KSteppedBroadcastSpec(1), assume_complete=False)
        crash = (
            None
            if self.crash is None
            else CrashSchedule(at_step={self.crash[0]: self.crash[1]})
        )
        return simulator, SCRIPTS, prop, crash


def catalog() -> list[Config]:
    """The 23-config crash catalog, in its canonical order."""
    configs = []
    for family, shape in _FAMILIES.items():
        n = shape["n"]
        configs.append(Config(family, n, None))
        configs.extend(
            Config(family, n, (pid, step))
            for pid in range(n)
            for step in shape["steps"]
        )
    return configs


#: The sweeps' warm-up search: the smallest catalog config.
WARM_UP = Config("urb", 2, (0, 3))


@dataclass(frozen=True)
class OrbitConfig:
    """The checkpointed symmetric search (and its ``--quick`` stand-in)."""

    id: str
    algorithm: Any
    n: int
    scripts: Mapping[int, list]
    spec: Any

    def build(self) -> tuple:
        """``(simulator, scripts, property)``."""
        return (
            Simulator(self.n, self.algorithm),
            self.scripts,
            spec_property(self.spec),
        )


ORBIT = OrbitConfig(
    "orbit-s2a-n3-3senders", SendToAllBroadcast, 3,
    {0: ["a"], 1: ["b"], 2: ["c"]}, SendToAllSpec(),
)
#: Large enough for two checkpoints at the default cadence.
ORBIT_QUICK = OrbitConfig(
    "orbit-urb-n2-2senders", UniformReliableBroadcast, 2,
    SCRIPTS, UniformReliableBroadcastSpec(),
)
#: The orbit workload's warm-up: a checkpointed search too small for a
#: mid-run checkpoint, so it warms the write path only.
ORBIT_WARM_UP = OrbitConfig(
    "orbit-s2a-n3-2senders", SendToAllBroadcast, 3, SCRIPTS, SendToAllSpec(),
)

#: Registry algorithm → its own spec (``trivial-ksa`` has none).
POOL_SPECS = {
    "send-to-all": "send-to-all",
    "uniform-reliable": "uniform-reliable",
    "fifo": "fifo",
    "causal": "causal",
    "total-order": "total-order",
    "kbo-attempt": "kbo",
    "k-stepped": "k-stepped",
    "scd": "scd",
    "first-k": "first-k",
}

STREAM_LENGTH = 6000
STREAM_LENGTH_QUICK = 100
#: Submissions between two calibrations of the service stream.
SEGMENT = 250
#: Seeds the stream's rank sequence (see :func:`zipf_stream`).
STREAM_RANKS_SEED = 0

#: Warm-up submissions: outside the pool, so they leave its memo cold.
WARM_UP_DESCRIPTORS = (
    {"algorithm": "trivial-ksa", "n": 2, "scripts": {"0": ["w"]},
     "sleep_sets": True},
    {"algorithm": "trivial-ksa", "n": 2, "scripts": {"1": ["w"]},
     "sleep_sets": True},
)


def pool() -> list[tuple[str, dict]]:
    """The 306 distinct service descriptors as ``(id, descriptor)``."""
    entries = []
    for algorithm, spec in POOL_SPECS.items():
        for sender in (0, 1):
            crashes = [None] + [
                (pid, step) for pid in (0, 1) for step in range(1, 9)
            ]
            for crash in crashes:
                descriptor: dict = {
                    "algorithm": algorithm,
                    "spec": spec,
                    "n": 2,
                    "scripts": {str(sender): ["m"]},
                    "sleep_sets": True,
                }
                where = "none"
                if crash is not None:
                    descriptor["crash_at_step"] = {str(crash[0]): crash[1]}
                    where = "p%d@%d" % crash
                entries.append((f"{algorithm}-s{sender}-{where}", descriptor))
    return entries


def zipf_stream(
    entries: list[tuple[str, dict]], seed: int, length: int
) -> list[tuple[str, dict]]:
    """``length`` Zipf(1.0) draws over a seeded permutation of ``entries``.

    The sequence of drawn *ranks* is the same for every seed; the seed
    decides which descriptor holds which rank.  So every seed gives the
    memo the same pattern of repeats, and the number of cold
    submissions does not vary with the seed.
    """
    ranked = list(entries)
    random.Random(seed).shuffle(ranked)
    weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
    ranks = random.Random(STREAM_RANKS_SEED).choices(
        range(len(ranked)), weights=weights, k=length
    )
    return [ranked[rank] for rank in ranks]


# ---------------------------------------------------------------------------
# Calibrated timing
# ---------------------------------------------------------------------------

#: What :func:`calibrate` returns on the reference machine (a 2-vCPU
#: 2.0 GHz Xeon VM with Python 3.11, in its fast state).  Calibrated
#: times read as seconds on that machine.
REFERENCE_CALIBRATION_S = 0.008

#: Longest measured segment inside a request.  The machine's speed
#: changes within a second, so dense single calibrations track it better
#: than sparse best-of-three ones: on nine recorded sweep passes, 0.25 s
#: segments left a pass-time spread of about 4% where 1 s segments left
#: 5–7%.  Each boundary costs one run of the routine (about 8 ms, not
#: measured).
TICK_S = 0.25
#: ``progress_every`` of every exploration: the progress callback is
#: where a long request ends a segment, so it must fire more often than
#: once per :data:`TICK_S` (the orbit search makes ~800 expansions/s).
PROGRESS_EVERY = 100


class _Node:
    __slots__ = ("key", "weight", "digest")

    def __init__(self, key: tuple, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.digest = b""


def _reference_routine() -> None:
    """Fixed work shaped like the explorer's: small objects, dict and
    tuple churn, blake2b digests, a keyed sort.  Never edit it: every
    calibrated time depends on it."""
    table: dict = {}
    nodes = []
    for i in range(3500):
        key = (i % 61, i % 7, "k")
        node = _Node(key, i)
        nodes.append(node)
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = []
        bucket.append(node)
        if i % 5 == 0:
            dict(table).pop(key, None)
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(repr(key).encode())
        hasher.update(b"%d" % i)
        node.digest = hasher.digest()
    nodes.sort(key=lambda n: (n.key[1], n.weight))


def calibrate(repeats: int = 3) -> float:
    """Seconds the reference routine takes now (best of ``repeats``, no
    GC).  A fresh interpreter needs the repeats to warm up; a
    :class:`Meter` calibrates often enough to use single runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(repeats):
            started = clock()
            _reference_routine()
            best = min(best, clock() - started)
        return best
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Calibrated wall time, in segments of :data:`TICK_S` or less.

    A segment's time is scaled by ``REFERENCE_CALIBRATION_S`` over the
    median of the last :data:`WINDOW` calibrations, the one closing the
    segment included: the median damps the jitter of single calibrations
    while still following speed changes within about a second.
    :meth:`pause` closes a segment; time between :meth:`pause` and
    :meth:`resume` (the calibration itself, a checkpoint copy) is not
    measured.  Long explorations call :meth:`tick` from their progress
    callback, so a change of machine speed in the middle of a request is
    tracked (see :data:`TICK_S`).  Calibrations run inside a
    ``benchmark.calibrate`` span, so a trace does not count them as
    explorer time.
    """

    WINDOW = 4

    def __init__(self, span: Span = no_span) -> None:
        self.span = span
        self.raw = self.calibrated = 0.0
        with span("benchmark.calibrate"):
            self._recent = [calibrate()]
        self._mark = clock()

    def pause(self) -> float:
        """Close the running segment; returns its scale factor."""
        elapsed = clock() - self._mark
        with self.span("benchmark.calibrate"):
            self._recent = self._recent[1 - self.WINDOW:] + [calibrate(1)]
        factor = REFERENCE_CALIBRATION_S / statistics.median(self._recent)
        self.raw += elapsed
        self.calibrated += elapsed * factor
        return factor

    def resume(self) -> None:
        self._mark = clock()

    def tick(self, *_: Any) -> None:
        """A segment boundary once a segment has run for :data:`TICK_S`
        (usable as a ``progress`` callback)."""
        if clock() - self._mark >= TICK_S:
            self.pause()
            self.resume()

    def measure(self, key: str, request: Callable[[], Any]
                ) -> tuple["Request", Any]:
        """Run ``request``; an exception becomes the request's error."""
        gc.collect()  # no request pays for the garbage of the previous one
        self.raw = self.calibrated = 0.0
        self.resume()
        try:
            value, error = request(), None
        except Exception as exc:  # counted as a failed request
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.pause()
        return Request(key, self.calibrated, self.raw, error), value


# ---------------------------------------------------------------------------
# Results and checks
# ---------------------------------------------------------------------------

#: Deterministic result counters compared between traced and untraced
#: runs, and summed into the per-layer metrics.
COUNTERS = (
    "schedules_explored",
    "terminal_schedules",
    "states_seen",
    "states_deduped",
    "states_pruned_sleep",
    "states_merged_symmetry",
    "orbit_encodings",
    "events_executed",
    "events_replayed",
)

#: Result fields a resumed run may legitimately report differently (it
#: re-pays its frontier prefix and re-consults the oracle along it).
RESUME_EXEMPT = ("events_executed", "events_replayed", "independence_stats")


def problems_digest(violations: Iterable[Mapping]) -> str:
    """Digest of the distinct violation problem sets.

    Computed here rather than with the library's own encoder, so a
    change to that encoder cannot move the references.
    """
    problems = sorted({tuple(v["problems"]) for v in violations})
    return hashlib.sha256(json.dumps(problems).encode()).hexdigest()[:32]


def summarize(payload: Mapping) -> dict:
    """Counters, coverage and violation digest of a result's JSON."""
    stats = payload.get("independence_stats", {})
    summary = {name: int(payload.get(name, 0)) for name in COUNTERS}
    summary.update(
        exhausted=bool(payload["exhausted"]),
        digest=problems_digest(payload["violations"]),
        memo_queries=int(stats.get("memo_queries", 0)),
        memo_hits=int(stats.get("memo_hits", 0)),
    )
    return summary


def check(summary: Mapping, reference: Mapping | None,
          terminals: bool = False) -> str | None:
    """Why a result is wrong, or ``None`` when it matches ``reference``."""
    if reference is None:
        return "no reference in expected.json"
    if not summary["exhausted"]:
        return "not exhaustive"
    if summary["digest"] != reference["violations_digest"]:
        return "violation set differs from the unreduced reference"
    if terminals and summary["terminal_schedules"] != reference["terminals"]:
        return "terminal count differs from the unreduced reference"
    return None


@dataclass
class Request:
    """One measured request and its verdict."""

    key: str
    #: calibrated seconds (see the module docstring)
    seconds: float
    raw_seconds: float
    error: str | None = None
    summary: dict = field(default_factory=dict)
    #: service only: the reply's memo flag, job id and exploration cost
    memo_hit: bool = False
    job: str = ""
    cost_seconds: float = 0.0


@dataclass
class Unit:
    """One pass: its calibrated and raw time, requests, and extras."""

    seconds: float
    raw_seconds: float
    requests: list[Request]
    extras: dict = field(default_factory=dict)


def _unit(requests: list[Request]) -> Unit:
    """A pass of sequential requests: its time is theirs, summed."""
    return Unit(
        sum(r.seconds for r in requests),
        sum(r.raw_seconds for r in requests),
        requests,
    )


def _explore(span: Span, *args, **kwargs):
    with span("explorer.explore"):
        return explore_schedules(*args, progress_every=PROGRESS_EVERY,
                                 **kwargs)


def percentile(values: Iterable[float], p: int) -> float:
    """The ``p``-th percentile, interpolated between samples (p=50 is
    the median; with two samples it is their mean)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs (:meth:`prepare`), one measured pass (:meth:`unit`), and the
    workload's own summary numbers (:meth:`details`)."""

    name = ""
    #: calibrated seconds of one pass, which sizes a run: a run makes
    #: ``round(seconds / nominal_pass_s)`` passes, at least one
    nominal_pass_s = 1.0

    def prepare(self, seed: int, quick: bool, expected: Mapping,
                workdir: str) -> Any:
        """Build inputs and warm up; the runner times this as set-up."""
        raise NotImplementedError

    def unit(self, prepared: Any, span: Span) -> Unit:
        raise NotImplementedError

    def details(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        return {}

    def identity(self, unit: Unit) -> Any:
        """What a traced pass must reproduce exactly."""
        return [(r.key, r.error, r.summary) for r in unit.requests]

    def latencies(self, unit: Unit) -> list[float]:
        """Calibrated seconds of each request a user waits for."""
        return [r.seconds for r in unit.requests]


class Sweep(Workload):
    def __init__(self, name: str, options: Mapping[str, Any],
                 nominal_pass_s: float) -> None:
        self.name = name
        self.options = dict(options)
        self.nominal_pass_s = nominal_pass_s
        #: plain DFS counts every schedule: its terminal count is fixed
        self.check_terminals = not options

    def prepare(self, seed, quick, expected, workdir):
        configs = catalog()
        if quick:
            configs = [c for c in configs if c.id in QUICK_CATALOG]
        random.Random(seed).shuffle(configs)
        inputs = [(config.id, config.build()) for config in configs]
        references = expected["catalog"]
        self._pass([(WARM_UP.id, WARM_UP.build())], references, no_span)
        return inputs, references

    def unit(self, prepared, span):
        inputs, references = prepared
        return _unit(self._pass(inputs, references, span))

    def _pass(self, inputs, references, span) -> list[Request]:
        meter = Meter(span)
        requests = []
        for key, (simulator, scripts, prop, crash) in inputs:
            request, result = meter.measure(key, lambda: _explore(
                span, simulator, scripts, prop,
                crash_schedule=crash, progress=meter.tick, **self.options,
            ))
            if result is not None:
                request.summary = summarize(result.to_json())
                request.error = check(request.summary, references.get(key),
                                      self.check_terminals)
            requests.append(request)
        return requests

    def details(self, units):
        return {
            "sweep_s": (statistics.median(u.seconds for u in units), "s"),
            "sweep_raw_s": (
                statistics.median(u.raw_seconds for u in units), "s"),
            "passes": (len(units), "count"),
        }


class OrbitCheckpoint(Workload):
    name = "orbit-checkpoint"
    nominal_pass_s = 25.0
    options = {
        "dedup": True,
        "sleep_sets": True,
        "symmetry": "rename",
        "max_schedules": 10**12,
    }

    def prepare(self, seed, quick, expected, workdir):
        config = ORBIT_QUICK if quick else ORBIT
        self._cycle(ORBIT_WARM_UP.build(), None, workdir, no_span)
        return config.build(), expected["orbit"].get(config.id), workdir

    def unit(self, prepared, span):
        inputs, reference, workdir = prepared
        return _unit(self._cycle(inputs, reference, workdir, span))

    def _cycle(self, inputs, reference, workdir, span) -> list[Request]:
        """Checkpointed search, then resume from the midpoint copy."""
        simulator, scripts, prop = inputs
        path = os.path.join(workdir, "orbit.ckpt")
        copies: list[tuple[int, str]] = []
        copied = None  # (inode, mtime) of the checkpoint last copied

        def keep_copy(snapshot) -> None:
            nonlocal copied
            try:
                stat = os.stat(path)
            except FileNotFoundError:
                stat = None
            # checkpoints are replaced atomically: a new one, a new inode
            if stat is None or (stat.st_ino, stat.st_mtime_ns) == copied:
                meter.tick()
                return
            # neither measured nor, in a trace, counted as explorer time
            meter.pause()
            with span("benchmark.copy"):
                target = os.path.join(
                    workdir, f"copy-{snapshot.expansions}.ckpt"
                )
                shutil.copyfile(path, target)
                copies.append((snapshot.expansions, target))
                copied = (stat.st_ino, stat.st_mtime_ns)
            meter.resume()

        meter = Meter(span)
        try:
            explore, full = meter.measure("explore", lambda: _explore(
                span, simulator, scripts, prop,
                checkpoint_to=path, progress=keep_copy, **self.options,
            ))
            if full is None:
                return [explore]
            explore.summary = summarize(full.to_json())
            explore.error = check(explore.summary, reference)
            if full.progress_errors:
                explore.error = f"progress callback: {full.progress_errors[0]}"
            if not copies:
                return [explore, Request("resume", 0.0, 0.0,
                                         "no checkpoint was copied")]
            half = full.schedules_explored / 2
            _, source = min(copies, key=lambda c: (abs(c[0] - half), c[0]))
            resume, resumed = meter.measure("resume", lambda: _explore(
                span, simulator, scripts, prop,
                resume_from=source, progress=meter.tick, **self.options,
            ))
            if resumed is not None:
                resume.summary = summarize(resumed.to_json())
                expected_json, resumed_json = full.to_json(), resumed.to_json()
                for name in RESUME_EXEMPT:
                    expected_json.pop(name, None)
                    resumed_json.pop(name, None)
                if resumed_json != expected_json:
                    resume.error = (
                        "resumed result differs from the uninterrupted run"
                    )
            return [explore, resume]
        finally:
            for _, target in copies:
                with contextlib.suppress(OSError):
                    os.unlink(target)
            with contextlib.suppress(OSError):
                os.unlink(path)

    def details(self, units):
        def median_of(key: str, attribute: str) -> float:
            return statistics.median(
                getattr(r, attribute)
                for u in units for r in u.requests if r.key == key
            )

        return {
            "explore_s": (median_of("explore", "seconds"), "s"),
            "resume_s": (median_of("resume", "seconds"), "s"),
            "explore_raw_s": (median_of("explore", "raw_seconds"), "s"),
            "resume_raw_s": (median_of("resume", "raw_seconds"), "s"),
            "cycles": (len(units), "count"),
        }


class ServiceZipf(Workload):
    name = "service-zipf"
    nominal_pass_s = 4.2
    connections = 2

    def prepare(self, seed, quick, expected, workdir):
        length = STREAM_LENGTH_QUICK if quick else STREAM_LENGTH
        stream = zipf_stream(pool(), seed, length)
        # warm-up: start a service, fork a worker, shut down
        asyncio.run(self._stream(
            [(f"warm-up-{i}", d) for i, d in enumerate(WARM_UP_DESCRIPTORS)],
            None,
        ))
        return stream, expected["pool"]

    def unit(self, prepared, span):
        stream, references = prepared
        return asyncio.run(self._stream(stream, references, span))

    async def _stream(self, stream, references, span=no_span) -> Unit:
        """One fresh service answering ``stream`` over two connections.

        The stream is sent in segments of :data:`SEGMENT` submissions;
        the loop drains between segments, while the meter calibrates.
        """
        gc.collect()
        service = VerificationService()
        host, port = await service.serve_tcp("127.0.0.1", 0)
        clients = [ServiceClient(host, port) for _ in range(self.connections)]
        requests: list[Request] = []
        first_digest: dict[str, str] = {}

        async def submit_all(client, feed, out: list[Request]) -> None:
            for key, descriptor in feed:
                started = clock()
                try:
                    reply = await client.submit(descriptor, wait=True)
                except Exception as exc:  # counted as a failed request
                    raw = clock() - started
                    out.append(Request(
                        key, raw, raw, f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                raw = clock() - started
                request = Request(
                    key, raw, raw,
                    memo_hit=bool(reply.get("memo_hit")),
                    job=str(reply.get("job")),
                    cost_seconds=float(reply.get("cost_seconds") or 0.0),
                )
                request.error = self._verdict(
                    reply, request, references, first_digest
                )
                out.append(request)

        try:
            for client in clients:
                await client.connect()
            meter = Meter(span)
            for start in range(0, len(stream), SEGMENT):
                feed = iter(stream[start:start + SEGMENT])
                segment: list[Request] = []
                meter.resume()
                await asyncio.gather(
                    *(submit_all(client, feed, segment) for client in clients)
                )
                factor = meter.pause()
                for request in segment:
                    request.seconds = request.raw_seconds * factor
                requests.extend(segment)
            memo = service.manager.memo.stats()
        finally:
            for client in clients:
                await client.aclose()
            await service.shutdown()
        return Unit(meter.calibrated, meter.raw, requests, {"memo": memo})

    @staticmethod
    def _verdict(reply, request, references, first_digest) -> str | None:
        if reply.get("state") != "done":
            return f"reply state {reply.get('state')!r}: {reply.get('error')}"
        request.summary = summarize(reply["result"])
        if references is None:  # warm-up
            return None
        digest = request.summary["digest"]
        first = first_digest.setdefault(request.key, digest)
        if request.memo_hit and digest != first:
            return "memo hit differs from the cold answer"
        return check(request.summary, references.get(request.key))

    def identity(self, unit):
        # memo hits, coalescing and evictions depend on timing; the
        # answers do not
        return sorted({(r.key, r.error, r.summary.get("digest"))
                       for r in unit.requests})

    def details(self, units):
        requests = [r for u in units for r in u.requests]
        cold = [r.seconds * 1e3 for r in requests if not r.memo_hit]
        hit = [r.seconds * 1e3 for r in requests if r.memo_hit]
        out = {
            "jobs_per_s": (
                len(requests) / sum(u.seconds for u in units), "1/s"),
            "jobs_per_raw_s": (
                len(requests) / sum(u.raw_seconds for u in units), "1/s"),
            "cold_samples": (len(cold), "count"),
            "hit_samples": (len(hit), "count"),
        }
        for label, samples in (("cold", cold), ("hit", hit)):
            if samples:
                out[f"submit_{label}_ms_p50"] = (percentile(samples, 50), "ms")
                out[f"submit_{label}_ms_p90"] = (percentile(samples, 90), "ms")
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Sweep("sweep-unreduced", {}, nominal_pass_s=7.3),
        Sweep("sweep-reduced", {"dedup": True, "sleep_sets": True},
              nominal_pass_s=5.4),
        OrbitCheckpoint(),
        ServiceZipf(),
    )
}
