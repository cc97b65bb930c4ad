"""The asyncio verification service.

:class:`VerificationService` wires the pieces together: an NDJSON
request loop per connection (TCP via :meth:`serve_tcp`, or a single
stdio session via :meth:`serve_stdio`), a :class:`~repro.server.jobs.
JobManager` executing descriptors on the bounded worker pool, and a
:class:`~repro.server.memo.MemoStore` answering repeat configurations
without recomputation.

Verbs (see :mod:`repro.server.protocol` for framing):

``ping``
    Liveness probe.
``submit``
    ``{"descriptor": {...}, "priority": 0, "wait": false}`` — validate
    and queue a job.  Replies with the job id, state, digest, and
    whether it was a memo hit; with ``wait`` the reply is delayed until
    the job is terminal and includes the result.  A ``priority`` that
    is not an integer (``true`` included) or a ``wait`` that is not a
    boolean is rejected by name.
``status`` / ``result`` / ``cancel``
    ``{"job": "job-1"}`` — summary, terminal result (waits), or
    cancellation.
``watch``
    Streams ``{"op": "event", ...}`` lines — ``running``, ``progress``
    (with the :class:`ProgressSnapshot` payload), then the terminal
    ``done``/``failed``/``cancelled`` event — and finally a closing
    reply.  Watching an already-finished job yields its terminal event
    immediately.
``resume``
    ``{"job": "job-1"}`` — resubmit a cancelled or failed job.  With
    checkpointing enabled the new attempt picks up the previous
    attempt's on-disk search state instead of starting cold.
``jobs`` / ``stats``
    Introspection.
``shutdown``
    Graceful stop: refuse new submissions, drain running jobs, persist
    the memo store (warm restarts), close the listener.  The *signal*
    path (SIGINT/SIGTERM under ``python -m repro.server serve``) is
    stricter: running jobs are interrupted checkpoint-first via
    :meth:`JobManager.stop_running`, so a long exploration never holds
    up process exit and never loses its progress.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
from typing import Any

from .descriptor import DescriptorError, JobDescriptor
from .jobs import JobManager, JobRecord
from .memo import MemoStore
from .protocol import MAX_LINE, ProtocolError, read_message, write_message

__all__ = ["VerificationService"]

#: Event names that end a watch stream.
_TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class VerificationService:
    """One service instance: memo store + job manager + request loop."""

    def __init__(
        self,
        *,
        memo_path: str | None = None,
        max_workers: int = 2,
        batch_max: int = 4,
        small_cost: int = 32,
        max_entries: int = 256,
        max_bytes: int = 16 << 20,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 256,
    ) -> None:
        if memo_path is not None:
            memo = MemoStore.load(
                memo_path, max_entries=max_entries, max_bytes=max_bytes
            )
        else:
            memo = MemoStore(max_entries=max_entries, max_bytes=max_bytes)
        self.memo_path = memo_path
        self.manager = JobManager(
            memo,
            max_workers=max_workers,
            batch_max=batch_max,
            small_cost=small_cost,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown_requested = asyncio.Event()
        self._stop_running = False
        self._stopped = False

    # -- transports -------------------------------------------------------

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the return value is the
        real one.
        """
        self._server = await asyncio.start_server(
            self.handle_connection, host, port, limit=MAX_LINE
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_stdio(self) -> None:
        """Serve exactly one session over this process's stdin/stdout."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_LINE)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        transport, proto = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(transport, proto, reader, loop)
        await self.handle_connection(reader, writer)

    async def run_until_shutdown(self) -> None:
        """Block until a ``shutdown`` verb (or :meth:`request_shutdown`)."""
        await self._shutdown_requested.wait()
        await self.shutdown()

    def request_shutdown(self, *, stop_running: bool = False) -> None:
        """Signal-handler-safe trigger for :meth:`run_until_shutdown`.

        With ``stop_running`` (the SIGINT/SIGTERM path), running jobs
        are interrupted — checkpoint first, then stop — instead of being
        awaited to completion: an operator signal means "exit now
        without losing work", not "exit whenever the searches finish".
        """
        if stop_running:
            self._stop_running = True
        self._shutdown_requested.set()

    async def shutdown(self) -> None:
        """Drain jobs, persist the memo, close the listener.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        if self._stop_running:
            self.manager.stop_running()
        await self.manager.drain()
        if self.memo_path is not None:
            self.manager.memo.save(self.memo_path)

    # -- request loop -----------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client session: read requests until EOF, answer each."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(
                        writer, {"ok": False, "error": str(exc)}
                    )
                    continue
                if request is None:
                    break
                await self._dispatch(request, writer)
                if self._shutdown_requested.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown cancelled the session; close out quietly
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        rid = request.get("id")

        def reply(payload: dict) -> dict:
            message = {"ok": True, "op": op, **payload}
            if rid is not None:
                message["id"] = rid
            return message

        try:
            if op == "ping":
                await write_message(writer, reply({"pong": True}))
            elif op == "submit":
                await self._op_submit(request, writer, reply)
            elif op == "status":
                record = self._record(request)
                await write_message(writer, reply(record.summary()))
            elif op == "result":
                record = self._record(request)
                await record.wait()
                await write_message(
                    writer,
                    reply({**record.summary(), "result": record.result}),
                )
            elif op == "watch":
                await self._op_watch(request, writer, reply)
            elif op == "cancel":
                record = self._record(request)
                assured = self.manager.cancel(record.job_id)
                await write_message(
                    writer,
                    reply({**record.summary(), "cancelled": assured}),
                )
            elif op == "resume":
                record = self._record(request)
                try:
                    resumed = self.manager.resume(record.job_id)
                except RuntimeError as exc:  # draining
                    raise ProtocolError(str(exc)) from exc
                await write_message(
                    writer,
                    reply(
                        {
                            **resumed.summary(),
                            "resumed_from": record.job_id,
                        }
                    ),
                )
            elif op == "jobs":
                await write_message(
                    writer, reply({"jobs": self.manager.jobs()})
                )
            elif op == "stats":
                await write_message(
                    writer, reply({"stats": self.manager.stats()})
                )
            elif op == "shutdown":
                await write_message(writer, reply({"stopping": True}))
                self._shutdown_requested.set()
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, DescriptorError, KeyError) as exc:
            error = (
                f"unknown job {exc.args[0]!r}"
                if isinstance(exc, KeyError)
                else str(exc)
            )
            message: dict = {"ok": False, "op": op, "error": error}
            if rid is not None:
                message["id"] = rid
            await write_message(writer, message)

    def _record(self, request: dict) -> JobRecord:
        job_id = request.get("job")
        if not isinstance(job_id, str):
            raise ProtocolError("request needs a string 'job' field")
        return self.manager.get(job_id)

    async def _op_submit(
        self, request: dict, writer: asyncio.StreamWriter, reply: Any
    ) -> None:
        payload = request.get("descriptor")
        if not isinstance(payload, dict):
            raise ProtocolError("submit needs a 'descriptor' object")
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError("'priority' must be an integer")
        wait = request.get("wait", False)
        if not isinstance(wait, bool):
            raise ProtocolError("'wait' must be a boolean")
        descriptor = JobDescriptor.from_json(payload)
        try:
            record = self.manager.submit(descriptor, priority=priority)
        except RuntimeError as exc:  # draining
            raise ProtocolError(str(exc)) from exc
        if wait:
            await record.wait()
            await write_message(
                writer,
                reply({**record.summary(), "result": record.result}),
            )
        else:
            await write_message(writer, reply(record.summary()))

    async def _op_watch(
        self, request: dict, writer: asyncio.StreamWriter, reply: Any
    ) -> None:
        record = self._record(request)
        rid = request.get("id")
        queue = self.manager.subscribe(record.job_id)
        try:
            await write_message(
                writer, reply({"job": record.job_id, "watching": True})
            )
            while True:
                event = await queue.get()
                message = {"op": "event", "job": record.job_id, **event}
                if rid is not None:
                    message["id"] = rid
                await write_message(writer, message)
                if event.get("event") in _TERMINAL_EVENTS:
                    break
        finally:
            self.manager.unsubscribe(record.job_id, queue)
