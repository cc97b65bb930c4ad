"""Job lifecycle: queueing, batching, execution, progress fan-out.

The :class:`JobManager` owns every submission end to end:

* **states** — ``queued → running → done | failed | cancelled``, with
  memo hits materializing directly as ``done`` records that share the
  memo's stored result read-only;
* **priority queueing** — a heap ordered by ``(priority, submission
  sequence)``: lower priority numbers run first, FIFO within a class;
* **batching** — consecutive same-priority jobs whose
  :meth:`~repro.server.descriptor.JobDescriptor.estimated_cost` falls
  under the small-job threshold are dispatched as *one* worker unit,
  amortizing the per-dispatch round trip (pipe, relay thread, loop
  wake-ups) over configurations too small to deserve their own;
* **coalescing** — a submission whose digest matches a queued/running
  job attaches to that job instead of enqueueing a duplicate: the two
  submissions share one exploration, exactly like a memo hit shares a
  past one;
* **progress fan-out** — the engine's
  :class:`~repro.runtime.explorer.ProgressSnapshot` callback is bridged
  from the worker into per-job asyncio subscription queues, so any
  number of watchers stream a live exploration.

Every batch runs through one loop that streams ``start`` /
``progress`` / ``done`` / ``failed`` / ``cancelled`` tuples back to the
manager.  Where the ``fork`` start method exists, the loop runs in one
of at most ``max_workers`` long-lived forked workers per manager: a
worker is forked (on the loop thread) only when a batch is dispatched
and no idle worker exists, then receives batch after batch over its
pipe, ending each with an end-of-batch marker.  Elsewhere the loop
runs on an executor thread.  Each worker owns an anonymous shared
mapping of ``batch_max`` one-byte cancel slots; the i-th job of a batch
reads slot i, and the manager zeroes the slots when it hands the worker
its next batch.  :meth:`JobManager.cancel` sets a job's slot; the
engine (and the shard pool of a ``workers > 1`` descriptor) polls it at
node entry, writes a checkpoint (when checkpointing is on) and returns
with ``interrupted=True``, reported as ``cancelled``; a batch member
whose slot is set before its turn is reported ``cancelled`` without
running.  Nothing terminates a worker: a cancelled job's batch-mates
run on.  End of file on a worker's pipe means the worker died; its
batch is settled by :meth:`JobManager._finalize_batch` and the next
dispatch forks a replacement.  :meth:`JobManager.drain` stops and joins
every worker.

With ``checkpoint_dir`` set, running explorations checkpoint
periodically under ``<dir>/<job digest>.ckpt``.  The digest-keyed path
is the warm-restart contract: a job whose worker died, a
cancelled-then-resumed job, or the same descriptor resubmitted to a
restarted service all find the previous attempt's checkpoint and
resume instead of starting cold.  Checkpoints are deleted when their
job completes (the memo takes over from there).
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import mmap
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing.util import Finalize
from typing import Any, Callable

from ..runtime.checkpoint import CheckpointError, discard_shard_checkpoints
from ..runtime.explorer import explore_schedules
from .descriptor import JobDescriptor, job_digest
from .memo import MemoStore

__all__ = ["JobState", "JobRecord", "JobManager"]

#: Times a job whose worker died is requeued (resuming from its
#: checkpoint) before it is failed for good.  Without a checkpoint a
#: died-worker job still fails on the first death — re-running it cold
#: would repeat whatever killed the worker.
_REQUEUE_CAP = 3


#: Whether batches run in forked worker processes (where the ``fork``
#: start method exists) or on executor threads.
_FORK = "fork" in multiprocessing.get_all_start_methods()


class JobState(Enum):
    """Lifecycle of one submission."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class JobRecord:
    """One tracked job: descriptor, state, result, and its subscribers."""

    job_id: str
    descriptor: JobDescriptor
    digest: str
    priority: int
    state: JobState = JobState.QUEUED
    #: True when the result came from the memo store, not a fresh run.
    memo_hit: bool = False
    #: Submissions answered by this record (coalesced equivalents).
    submissions: int = 1
    #: ``ExplorationResult.to_json()`` payload once done.
    result: dict | None = None
    violations_digest: str | None = None
    error: str | None = None
    #: Seconds the exploration took (memo hits report the original's).
    cost_seconds: float = 0.0
    #: Times this job was requeued after its worker died; bounded by
    #: ``_REQUEUE_CAP``.
    requeues: int = 0
    _subscribers: list[asyncio.Queue] = field(
        default_factory=list, repr=False
    )
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def summary(self) -> dict:
        """The status dict served for this job."""
        return {
            "job": self.job_id,
            "digest": self.digest,
            "state": self.state.value,
            "priority": self.priority,
            "memo_hit": self.memo_hit,
            "submissions": self.submissions,
            "violations_digest": self.violations_digest,
            "error": self.error,
            "cost_seconds": round(self.cost_seconds, 6),
        }

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        await self._done.wait()


# ---------------------------------------------------------------------------
# Worker-side execution (runs in a forked process or an executor thread)
# ---------------------------------------------------------------------------


def _run_descriptor(
    descriptor: JobDescriptor,
    emit: Callable[[dict], None],
    *,
    cancel: Any,
    checkpoint_to: str | None = None,
    checkpoint_every: int = 256,
) -> tuple[dict, str, float]:
    """Execute one descriptor; returns ``(result_json, vdigest, seconds)``.

    ``emit`` receives each :class:`ProgressSnapshot` as its ``to_json``
    dict.  Progress is wired whenever the search runs in one process
    (``workers=1``, which every cached descriptor has); sharded runs
    execute without it.  A run with a checkpoint path resumes from an
    existing file at that path (the digest-keyed warm restart), falling
    back to a cold run — after discarding the file — when it turns out
    stale or corrupt.  A run that ``cancel`` stopped returns its
    partial result; the caller inspects ``payload["interrupted"]``.
    """
    simulator, scripts, prop, crash, kwargs = descriptor.build()
    progress = (
        (lambda s: emit(s.to_json())) if kwargs["workers"] == 1 else None
    )
    kwargs["cancel"] = cancel
    if checkpoint_to is not None:
        kwargs["checkpoint_to"] = checkpoint_to
        kwargs["checkpoint_every"] = checkpoint_every
        if os.path.exists(checkpoint_to):
            kwargs["resume_from"] = checkpoint_to

    def explore() -> Any:
        return explore_schedules(
            simulator,
            scripts,
            prop,
            crash_schedule=crash,
            progress=progress,
            progress_every=descriptor.progress_every,
            **kwargs,
        )

    started = time.perf_counter()
    try:
        result = explore()
    except CheckpointError:
        if not kwargs.pop("resume_from", None):
            raise
        # stale or corrupt at-rest state: this attempt starts cold
        _discard_checkpoint_files(checkpoint_to)
        result = explore()
    elapsed = time.perf_counter() - started
    return result.to_json(), result.violations_digest(), elapsed


def _discard_checkpoint_files(path: str | None) -> None:
    """Remove a job's checkpoint and any per-shard side files."""
    if path is None:
        return
    with contextlib.suppress(OSError):
        os.unlink(path)
    discard_shard_checkpoints(path)


class _CancelToken:
    """A job's cancel token: one byte of a shared mapping, read live."""

    __slots__ = ("_flags", "_slot")

    def __init__(self, flags: mmap.mmap, slot: int) -> None:
        # anonymous shared memory, which a fork shares; a
        # ``multiprocessing.RawValue`` measured slower (EXPERIMENTS.md)
        self._flags = flags
        self._slot = slot

    def set(self) -> None:
        self._flags[self._slot] = 1

    def is_set(self) -> bool:
        return self._flags[self._slot] != 0


def _run_batch_jobs(
    batch: list[tuple[str, JobDescriptor, str | None]],
    cancels: dict[str, _CancelToken],
    emit: Callable[[tuple], None],
    checkpoint_every: int,
) -> None:
    """Run a batch's jobs in order, reporting each through ``emit``.

    A job whose token is already set is reported ``cancelled`` without
    running; any other emits ``start``, its ``progress``, then exactly
    one of ``done``, ``cancelled`` (stopped on its token) or ``failed``.
    """
    for job_id, descriptor, checkpoint_to in batch:
        cancel = cancels[job_id]
        if cancel.is_set():
            emit(("cancelled", job_id))
            continue
        emit(("start", job_id))
        try:
            payload, vdigest, cost = _run_descriptor(
                descriptor,
                lambda snapshot, job_id=job_id: emit(
                    ("progress", job_id, snapshot)
                ),
                cancel=cancel,
                checkpoint_to=checkpoint_to,
                checkpoint_every=checkpoint_every,
            )
        except Exception as exc:
            emit(("failed", job_id, f"{type(exc).__name__}: {exc}"))
            continue
        if payload.get("interrupted"):
            emit(("cancelled", job_id))
        else:
            emit(("done", job_id, payload, vdigest, cost))


def _release_inherited_descriptors(keep: set[int]) -> None:
    """Point every inherited descriptor outside ``keep`` at /dev/null.

    A fork inherits the service's listening socket, its client
    connections and the manager-side pipe ends of the other workers;
    holding those would keep them open after the service closes them,
    and a manager-side end kept alive here would hide the manager's
    death from the worker that owns it.  Each number is re-pointed
    rather than closed because stale Python objects copied by the fork
    still name it: were the number freed and reused, a collected stale
    socket would close the reused descriptor.
    """
    for path in ("/proc/self/fd", "/dev/fd"):
        with contextlib.suppress(OSError):
            descriptors = [int(name) for name in os.listdir(path)]
            break
    else:
        descriptors = list(range(os.sysconf("SC_OPEN_MAX")))
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            if fd not in keep and fd != null:
                with contextlib.suppress(OSError):
                    os.fstat(fd)
                    os.dup2(null, fd)
    finally:
        os.close(null)


def _worker_main(
    conn: Any, flags: mmap.mmap, checkpoint_every: int
) -> None:
    """Forked-worker entry point: run batches until the pipe closes."""
    # The parent's SIGINT/SIGTERM handlers wake its event loop, and a
    # fork inherits them.  Jobs stop through their tokens, never by
    # signal.  A terminal's Ctrl-C reaches the whole process group, so
    # the worker ignores SIGINT and the parent's stop checkpoints it; a
    # SIGTERM sent to the worker itself still kills it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    keep = {0, 1, 2, conn.fileno()}
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, OSError, ValueError):
            keep.add(stream.fileno())
    parent = multiprocessing.parent_process()
    if parent is not None:
        keep.add(parent.sentinel)
    _release_inherited_descriptors(keep)
    tokens = [_CancelToken(flags, slot) for slot in range(len(flags))]
    with conn, contextlib.suppress(EOFError, OSError):
        while True:
            batch = conn.recv()
            cancels = {job[0]: tokens[slot] for slot, job in enumerate(batch)}
            _run_batch_jobs(batch, cancels, conn.send, checkpoint_every)
            conn.send(None)  # end of batch


class _Worker:
    """The manager's handle on one long-lived forked worker."""

    def __init__(self, batch_max: int, checkpoint_every: int) -> None:
        ctx = multiprocessing.get_context("fork")
        #: The worker's cancel slots, allocated before the fork shares
        #: them.
        self.flags = mmap.mmap(-1, batch_max)
        self.conn, child_conn = ctx.Pipe()
        # not a daemon: descriptors with workers > 1 fork their own shard
        # pool inside the worker, which daemons are denied
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.flags, checkpoint_every),
        )
        self.process.start()
        child_conn.close()

    def relay(
        self,
        batch: list[tuple[str, JobDescriptor, str | None]],
        emit: Callable[[tuple], None],
    ) -> int | None:
        """Run ``batch`` on the worker, sending each message to ``emit``.

        Returns None once the worker marks the batch's end, or the
        worker's exit code when its pipe closes first (it died).
        """
        try:
            self.conn.send(batch)
            while (message := self.conn.recv()) is not None:
                emit(message)
            return None
        except (EOFError, OSError):
            return self.stop()

    def stop(self) -> int | None:
        """Close the pipe (the worker exits on end of file) and join.

        Returns the worker's exit code.
        """
        self.conn.close()
        self.process.join()
        exitcode = self.process.exitcode
        self.process.close()
        return exitcode


def _close_pipes(workers: list[_Worker]) -> None:
    """Let every worker see end of file (the manager's finalizer).

    Runs before multiprocessing joins non-daemon children at
    interpreter exit, so an undrained manager's idle workers exit
    instead of blocking that join.
    """
    for worker in workers:
        worker.conn.close()


@dataclass
class _BatchHandle:
    """Parent-side bookkeeping for one dispatched batch."""

    jobs: list[JobRecord]
    #: The forked worker running the batch; None on the thread runner.
    worker: _Worker | None = None
    #: One cooperative cancel token per job: the worker's slots, zeroed
    #: here, or a fresh mapping on the thread runner.
    cancels: dict[str, _CancelToken] = field(init=False)
    started: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.worker is None:
            flags = mmap.mmap(-1, len(self.jobs))
        else:
            flags = self.worker.flags
            flags[:] = bytes(len(flags))
        self.cancels = {
            r.job_id: _CancelToken(flags, slot)
            for slot, r in enumerate(self.jobs)
        }


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class JobManager:
    """Bounded asynchronous execution of verification jobs over a memo.

    ``max_workers`` bounds concurrent batches (the process-pool width),
    ``batch_max`` the number of small jobs grouped per dispatch, and
    ``small_cost`` the :meth:`~JobDescriptor.estimated_cost` threshold
    under which jobs are batchable.  Batches run on at most
    ``max_workers`` long-lived forked workers where the ``fork`` start
    method exists, on executor threads elsewhere (``runner`` says
    which).  ``checkpoint_dir``
    enables digest-keyed job checkpoints (module docstring) written
    every ``checkpoint_every`` node expansions; the directory is created
    on first use.
    """

    def __init__(
        self,
        memo: MemoStore,
        *,
        max_workers: int = 2,
        batch_max: int = 4,
        small_cost: int = 32,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 256,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.memo = memo
        self.max_workers = max_workers
        self.batch_max = batch_max
        self.small_cost = small_cost
        self.runner = "process" if _FORK else "thread"
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self._jobs: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []
        #: digest → job_id of the queued/running job answering it.
        self._active_by_digest: dict[str, str] = {}
        self._batches: dict[str, _BatchHandle] = {}
        self._tasks: set[asyncio.Task] = set()
        self._busy = 0
        #: Live forked workers, and the ones among them awaiting a batch.
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._workers_started = 0
        Finalize(
            self, _close_pipes, (self._workers,), exitpriority=10
        )
        self._seq = 0
        self._draining = False
        self._submitted = 0
        self._memo_hits = 0
        self._coalesced = 0
        self._explorations_run = 0
        self._batches_dispatched = 0
        self._batched_jobs = 0
        self._resumed = 0
        self._requeued_after_death = 0

    def _checkpoint_path(self, digest: str) -> str | None:
        """The digest-keyed checkpoint file for a job, if enabled.

        Keyed by the job digest, not the job id: every attempt at an
        equivalent descriptor — across requeues, cancellations, and
        service restarts — shares one checkpoint, which is what makes
        warm restart a property of the *work*, not of the process that
        happened to start it.
        """
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"{digest}.ckpt")

    # -- submission -------------------------------------------------------

    def submit(
        self, descriptor: JobDescriptor, *, priority: int = 0
    ) -> JobRecord:
        """Queue a job (or answer it from the memo / an in-flight twin).

        Returns the :class:`JobRecord` serving this submission: a fresh
        queued record, an instantly-``done`` memo-hit record, or the
        existing record of an equivalent queued/running job (coalesced —
        one exploration, many submitters).
        """
        if self._draining:
            raise RuntimeError("manager is draining; submissions refused")
        digest = job_digest(descriptor)
        self._submitted += 1
        active_id = self._active_by_digest.get(digest)
        if active_id is not None:
            record = self._jobs[active_id]
            record.submissions += 1
            self._coalesced += 1
            return record
        self._seq += 1
        job_id = f"job-{self._seq}"
        entry = self.memo.lookup(digest)
        if entry is not None:
            # every hit on this digest shares the stored result: replies
            # only serialize it
            memoized = entry.payload
            record = JobRecord(
                job_id,
                descriptor,
                digest,
                priority,
                state=JobState.DONE,
                memo_hit=True,
                result=memoized["result"],
                violations_digest=memoized["violations_digest"],
                cost_seconds=float(memoized.get("cost_seconds", 0.0)),
            )
            record._done.set()
            self._jobs[job_id] = record
            self._memo_hits += 1
            return record
        record = JobRecord(job_id, descriptor, digest, priority)
        self._jobs[job_id] = record
        self._active_by_digest[digest] = job_id
        heapq.heappush(self._heap, (priority, self._seq, job_id))
        self._maybe_dispatch()
        return record

    def get(self, job_id: str) -> JobRecord:
        """The record for ``job_id`` (:class:`KeyError` when unknown)."""
        return self._jobs[job_id]

    # -- subscriptions ----------------------------------------------------

    def subscribe(self, job_id: str) -> asyncio.Queue:
        """An event queue for ``job_id`` (progress + terminal events).

        Subscribing to an already-finished job immediately delivers its
        terminal event, so late watchers never hang.
        """
        record = self._jobs[job_id]
        queue: asyncio.Queue = asyncio.Queue()
        record._subscribers.append(queue)
        if record.state.terminal:
            queue.put_nowait(self._terminal_event(record))
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        record = self._jobs.get(job_id)
        if record is not None and queue in record._subscribers:
            record._subscribers.remove(queue)

    def _publish(self, record: JobRecord, event: dict) -> None:
        for queue in list(record._subscribers):
            queue.put_nowait(event)

    def _terminal_event(self, record: JobRecord) -> dict:
        if record.state is JobState.DONE:
            return {
                "event": "done",
                "job": record.job_id,
                "memo_hit": record.memo_hit,
                "violations_digest": record.violations_digest,
                "cost_seconds": round(record.cost_seconds, 6),
                "result": record.result,
            }
        if record.state is JobState.FAILED:
            return {
                "event": "failed",
                "job": record.job_id,
                "error": record.error,
            }
        return {"event": "cancelled", "job": record.job_id}

    # -- dispatch ---------------------------------------------------------

    def _maybe_dispatch(self) -> None:
        while (
            self._busy < self.max_workers
            and self._heap
            and not self._draining
        ):
            batch = self._pop_batch()
            if not batch:
                return
            # Running and cancellable from here on: a cancel before the
            # task starts sets the job's token, and the loop skips it.
            handle = _BatchHandle(batch, self._take_worker())
            for record in batch:
                record.state = JobState.RUNNING
                self._batches[record.job_id] = handle
            self._busy += 1
            self._batches_dispatched += 1
            if len(batch) > 1:
                self._batched_jobs += len(batch)
            task = asyncio.create_task(self._run_batch(handle))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _pop_batch(self) -> list[JobRecord]:
        """The next batch: one job, or several *small* same-priority jobs."""
        batch: list[JobRecord] = []
        while self._heap and not batch:
            _, _, job_id = heapq.heappop(self._heap)
            record = self._jobs[job_id]
            if record.state is JobState.QUEUED:
                batch.append(record)  # else: lazily-deleted (cancelled)
        if not batch:
            return batch
        lead = batch[0]
        if lead.descriptor.estimated_cost() > self.small_cost:
            return batch
        while len(batch) < self.batch_max and self._heap:
            priority, _, job_id = self._heap[0]
            record = self._jobs.get(job_id)
            if record is None or record.state is not JobState.QUEUED:
                heapq.heappop(self._heap)
                continue
            if (
                priority != lead.priority
                or record.descriptor.estimated_cost() > self.small_cost
            ):
                break
            heapq.heappop(self._heap)
            batch.append(record)
        return batch

    def _take_worker(self) -> _Worker | None:
        """An idle live worker for the next batch, forking one if none.

        Runs on the loop thread: a fork from an executor thread could
        copy a lock the loop thread holds.  None on the thread runner.
        """
        if self.runner != "process":
            return None
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            self._workers.remove(worker)
            worker.stop()
        worker = _Worker(self.batch_max, self.checkpoint_every)
        self._workers.append(worker)
        self._workers_started += 1
        return worker

    async def _run_batch(self, handle: _BatchHandle) -> None:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def emit(message: tuple | None) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, message)

        batch = [
            (r.job_id, r.descriptor, self._checkpoint_path(r.digest))
            for r in handle.jobs
        ]
        worker = handle.worker

        def run() -> int | None:
            """The batch's loop, or its worker's relay; ends with None."""
            try:
                if worker is not None:
                    return worker.relay(batch, emit)
                _run_batch_jobs(
                    batch, handle.cancels, emit, self.checkpoint_every
                )
                return 0
            finally:
                emit(None)

        try:
            finished = loop.run_in_executor(None, run)
            while (message := await queue.get()) is not None:
                self._handle_message(handle, message)
            exitcode = await finished
            self._finalize_batch(handle, exitcode)
            if worker is not None:
                if exitcode is None:
                    self._idle.append(worker)
                else:  # died: the next dispatch forks a replacement
                    self._workers.remove(worker)
        finally:
            for record in handle.jobs:
                self._batches.pop(record.job_id, None)
            self._busy -= 1
            self._maybe_dispatch()

    def _handle_message(self, handle: _BatchHandle, message: tuple) -> None:
        kind = message[0]
        record = self._jobs[message[1]]
        if kind == "start":
            # on start, not dispatch: a job cancelled before its turn
            # goes straight to ``cancelled``
            handle.started.add(record.job_id)
            self._publish(record, {"event": "running", "job": record.job_id})
        elif kind == "progress":
            self._publish(
                record,
                {
                    "event": "progress",
                    "job": record.job_id,
                    "snapshot": message[2],
                },
            )
        elif kind == "done":
            _, _, payload, vdigest, cost = message
            self._complete(record, payload, vdigest, cost)
        elif kind == "failed":
            self._fail(record, message[2])
        elif kind == "cancelled":
            self._cancelled(record)

    def _complete(
        self, record: JobRecord, payload: dict, vdigest: str, cost: float
    ) -> None:
        record.state = JobState.DONE
        record.result = payload
        record.violations_digest = vdigest
        record.cost_seconds = cost
        self._explorations_run += 1
        self.memo.put(
            record.digest,
            {
                "result": payload,
                "violations_digest": vdigest,
                "cost_seconds": cost,
                "descriptor": record.descriptor.to_json(),
            },
            cost=cost,
        )
        self._active_by_digest.pop(record.digest, None)
        # the memo answers this digest from here on; the at-rest search
        # state has nothing left to resume
        _discard_checkpoint_files(self._checkpoint_path(record.digest))
        self._publish(record, self._terminal_event(record))
        record._done.set()

    def _fail(self, record: JobRecord, error: str) -> None:
        record.state = JobState.FAILED
        record.error = error
        self._active_by_digest.pop(record.digest, None)
        self._publish(record, self._terminal_event(record))
        record._done.set()

    def _cancelled(self, record: JobRecord) -> None:
        record.state = JobState.CANCELLED
        self._active_by_digest.pop(record.digest, None)
        self._publish(record, self._terminal_event(record))
        record._done.set()

    def _finalize_batch(
        self, handle: _BatchHandle, exitcode: int | None
    ) -> None:
        """Settle batch members the worker never reported a verdict for.

        After a clean batch every job is terminal.  A worker that died
        (killed by hand or by the kernel's OOM killer) leaves the rest
        unsettled: a job whose token was set becomes ``cancelled``; a
        job that had *started* died with the worker — with a checkpoint
        on disk it is requeued to resume warm (at most ``_REQUEUE_CAP``
        times: a job that keeps killing its worker is failed, not
        retried forever), without one it fails loudly — and jobs the
        worker never reached are requeued.
        """
        for record in handle.jobs:
            if record.state is not JobState.RUNNING:
                continue
            if handle.cancels[record.job_id].is_set():
                self._cancelled(record)
            elif record.job_id in handle.started:
                path = self._checkpoint_path(record.digest)
                if (
                    path is not None
                    and os.path.exists(path)
                    and record.requeues < _REQUEUE_CAP
                ):
                    record.requeues += 1
                    self._requeued_after_death += 1
                    self._requeue(record)
                else:
                    self._fail(
                        record,
                        f"worker process died (exitcode {exitcode})",
                    )
            else:
                self._requeue(record)

    def _requeue(self, record: JobRecord) -> None:
        record.state = JobState.QUEUED
        self._seq += 1
        heapq.heappush(
            self._heap, (record.priority, self._seq, record.job_id)
        )

    # -- cancellation and shutdown ---------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; False once the job ended other than
        ``cancelled``.

        A queued job cancels at once.  A dispatched job has its token
        set: the engine stops at its next node entry, checkpointing
        first when checkpointing is on, and the job reports
        ``cancelled`` — at once if the loop has not reached it yet.  Its
        batch-mates run on.  A search that finishes before the engine
        polls the token still ends ``done``.
        """
        record = self._jobs[job_id]
        if record.state.terminal:
            return record.state is JobState.CANCELLED
        handle = self._batches.get(job_id)
        if handle is None:
            self._cancelled(record)  # heap entry is lazily skipped
        else:
            handle.cancels[job_id].set()
        return True

    def stop_running(self) -> int:
        """Set every running job's token (checkpoint-and-stop shutdown).

        Jobs with checkpointing enabled leave their partial search on
        disk, so a restarted service resumes them warm.  Returns the number of jobs
        interrupted.  Unlike :meth:`drain`, this does not wait — callers
        (the signal path) follow up with :meth:`drain` to let the
        engines write their final checkpoints and settle records.
        """
        stopped = 0
        for job_id, handle in self._batches.items():
            if self._jobs[job_id].state is JobState.RUNNING:
                handle.cancels[job_id].set()
                stopped += 1
        return stopped

    def resume(self, job_id: str) -> JobRecord:
        """Resubmit a cancelled or failed job (warm from its checkpoint).

        Resubmission goes through :meth:`submit` with the original
        descriptor and priority: the digest is unchanged, so the new
        attempt finds the previous attempt's checkpoint (when one was
        written) and continues instead of starting cold.  A job that is
        queued, running, or done is returned as-is — there is nothing
        to resume.
        """
        record = self._jobs[job_id]
        if record.state not in (JobState.CANCELLED, JobState.FAILED):
            return record
        self._resumed += 1
        return self.submit(record.descriptor, priority=record.priority)

    async def drain(self) -> None:
        """Refuse new work, cancel the queue, await running batches,
        then stop and join every worker."""
        self._draining = True
        for record in list(self._jobs.values()):
            if record.state is JobState.QUEUED:
                self._cancelled(record)
        while self._tasks:
            await asyncio.gather(
                *list(self._tasks), return_exceptions=True
            )
        _close_pipes(self._workers)  # all exit at once, then reap each
        while self._workers:
            self._workers.pop().stop()
        self._idle.clear()

    # -- introspection ----------------------------------------------------

    def jobs(self) -> list[dict]:
        """Summaries of every tracked job, in submission order."""
        return [record.summary() for record in self._jobs.values()]

    def stats(self) -> dict:
        """Manager + memo counters for the ``stats`` verb."""
        by_state: dict[str, int] = {state.value: 0 for state in JobState}
        for record in self._jobs.values():
            by_state[record.state.value] += 1
        return {
            "runner": self.runner,
            "max_workers": self.max_workers,
            "batch_max": self.batch_max,
            "small_cost": self.small_cost,
            "submitted": self._submitted,
            "memo_hits": self._memo_hits,
            "coalesced": self._coalesced,
            "explorations_run": self._explorations_run,
            "batches_dispatched": self._batches_dispatched,
            "batched_jobs": self._batched_jobs,
            "workers_started": self._workers_started,
            "checkpoint_dir": self.checkpoint_dir,
            "resumed": self._resumed,
            "requeued_after_death": self._requeued_after_death,
            "jobs_by_state": by_state,
            "memo": self.memo.stats(),
        }
