"""Service-layer checkpoint/resume: cancel warm, die warm, restart warm.

Covers the operational half of the checkpoint contract:

* both job runners (forked worker and executor thread) interrupt
  *started* jobs cooperatively: the cancel token reaches the engine,
  the job reports ``cancelled``, and its partial search is
  checkpointed at that moment;
* :meth:`JobManager.resume` then completes the job
  construction-identically to a cold run;
* a worker death requeues a checkpointed job (bounded by the requeue
  cap) instead of failing it: simulated for the cap, and by a real
  SIGKILL of the long-lived worker, after which the next dispatch forks
  a replacement;
* the ``resume`` verb round-trips over real TCP;
* a real SIGTERM to a ``python -m repro.server serve`` subprocess —
  both TCP and ``--stdio`` — exits cleanly, checkpoints running work
  (also between periodic checkpoints), and persists the memo; so does
  a SIGINT sent to the server's whole process group, as a terminal's
  Ctrl-C is.
"""

import asyncio
import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.server.jobs as jobs_module
from repro.server.client import ServiceClient
from repro.server.descriptor import JobDescriptor
from repro.server.jobs import JobManager, JobRecord, JobState
from repro.server.memo import MemoStore
from repro.server.service import VerificationService


def long_running():
    """URB with two senders: thousands of terminals, cancellable."""
    return JobDescriptor.from_json(
        {
            "algorithm": "uniform-reliable",
            "n": 2,
            "scripts": {"0": ["a"], "1": ["b"]},
            "dedup": False,
            "progress_every": 25,
        }
    )


def endless():
    """URB with two senders among three: it cannot finish before a
    test's watchdog, so a signal always lands on a running job."""
    return JobDescriptor.from_json(
        {
            "algorithm": "uniform-reliable",
            "n": 3,
            "scripts": {"0": ["a"], "1": ["b"]},
            "dedup": False,
            "max_schedules": 10**9,
            "progress_every": 25,
        }
    )


def memo_keys(path):
    with open(path) as handle:
        return {entry["key"] for entry in json.load(handle)["entries"]}


def tiny(letter="x"):
    return JobDescriptor.from_json(
        {"algorithm": "send-to-all", "n": 2, "scripts": {"0": [letter]}}
    )


def manager(**kwargs):
    kwargs.setdefault("max_workers", 1)
    return JobManager(MemoStore(), **kwargs)


#: Result fields that must match between a resumed and a cold run
#: (events_executed/events_replayed are exempt: a resume re-pays the
#: schedule prefix, exactly like parallel shards do).
INVARIANT = (
    "schedules_explored",
    "terminal_schedules",
    "exhausted",
    "max_depth_seen",
    "states_seen",
    "expansions_by_depth",
    "violations",
)


def assert_equivalent(resumed: dict, reference: dict) -> None:
    assert not resumed["interrupted"]
    for name in INVARIANT:
        assert resumed[name] == reference[name], name


async def cold_reference(descriptor: JobDescriptor) -> dict:
    mgr = manager()
    record = mgr.submit(descriptor)
    await record.wait()
    await mgr.drain()
    assert record.state is JobState.DONE
    return record.result


class TestThreadBackendCancel:
    """Cooperative cancel, on the thread and the forked-worker runner."""

    def test_started_job_interrupts_cooperatively(
        self, tmp_path, monkeypatch
    ):
        async def main():
            mgr = manager(checkpoint_dir=str(tmp_path / str(fork)))
            record = mgr.submit(long_running())
            queue = mgr.subscribe(record.job_id)
            event = await queue.get()
            assert event["event"] == "running"
            assert mgr.cancel(record.job_id) is True
            await asyncio.wait_for(record.wait(), 60)
            assert record.state is JobState.CANCELLED
            # the interrupt checkpointed the partial search
            path = mgr._checkpoint_path(record.digest)
            assert path is not None and os.path.exists(path)
            await mgr.drain()

        for fork in (True, False):
            monkeypatch.setattr(jobs_module, "_FORK", fork)
            asyncio.run(main())

    def test_cancel_then_resume_is_lossless(self, tmp_path, monkeypatch):
        async def main():
            reference = await cold_reference(long_running())
            mgr = manager(checkpoint_dir=str(tmp_path / str(fork)))
            record = mgr.submit(long_running())
            queue = mgr.subscribe(record.job_id)
            assert (await queue.get())["event"] == "running"
            assert mgr.cancel(record.job_id) is True
            await asyncio.wait_for(record.wait(), 60)
            assert record.state is JobState.CANCELLED
            resumed = mgr.resume(record.job_id)
            assert resumed.job_id != record.job_id
            await asyncio.wait_for(resumed.wait(), 120)
            assert resumed.state is JobState.DONE
            assert not resumed.memo_hit
            assert_equivalent(resumed.result, reference)
            # completion discarded the at-rest checkpoint
            path = mgr._checkpoint_path(record.digest)
            assert not os.path.exists(path)
            assert mgr.stats()["resumed"] == 1
            await mgr.drain()

        for fork in (True, False):
            monkeypatch.setattr(jobs_module, "_FORK", fork)
            asyncio.run(main())


class TestProcessBackendCancel:
    def test_terminated_worker_leaves_checkpoint_and_resumes(
        self, tmp_path, monkeypatch
    ):
        # A cancel in a forked worker stops the engine through its
        # token; the engine checkpoints before it returns.
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            reference = await cold_reference(long_running())
            mgr = manager(
                checkpoint_dir=str(tmp_path),
                checkpoint_every=10,
            )
            record = mgr.submit(long_running())
            queue = mgr.subscribe(record.job_id)
            assert (await queue.get())["event"] == "running"
            # wait for real progress so periodic checkpoints exist
            while (await queue.get())["event"] != "progress":
                pass
            assert mgr.cancel(record.job_id) is True
            await asyncio.wait_for(record.wait(), 60)
            assert record.state is JobState.CANCELLED
            path = mgr._checkpoint_path(record.digest)
            assert path is not None and os.path.exists(path)
            resumed = mgr.resume(record.job_id)
            await asyncio.wait_for(resumed.wait(), 120)
            assert resumed.state is JobState.DONE
            assert_equivalent(resumed.result, reference)
            await mgr.drain()

        asyncio.run(main())

    def test_resume_of_done_job_is_identity(self):
        async def main():
            mgr = manager()
            record = mgr.submit(tiny())
            await record.wait()
            assert mgr.resume(record.job_id) is record
            await mgr.drain()

        asyncio.run(main())


class TestRequeueAfterWorkerDeath:
    def _running_record(self, mgr, digest):
        record = JobRecord(
            f"job-{digest}", tiny(), digest, 0, state=JobState.RUNNING
        )
        mgr._jobs[record.job_id] = record
        handle = jobs_module._BatchHandle(jobs=[record])
        handle.started.add(record.job_id)
        return record, handle

    def test_without_checkpoint_death_fails_loudly(self, tmp_path):
        mgr = manager(checkpoint_dir=str(tmp_path))
        record, handle = self._running_record(mgr, "digest-cold")
        mgr._finalize_batch(handle, exitcode=-9)
        assert record.state is JobState.FAILED
        assert "died" in record.error

    def test_with_checkpoint_death_requeues_up_to_cap(self, tmp_path):
        mgr = manager(checkpoint_dir=str(tmp_path))
        record, handle = self._running_record(mgr, "digest-warm")
        with open(mgr._checkpoint_path("digest-warm"), "w") as fh:
            fh.write("{}")
        for attempt in range(1, jobs_module._REQUEUE_CAP + 1):
            mgr._finalize_batch(handle, exitcode=-9)
            assert record.state is JobState.QUEUED
            assert record.requeues == attempt
            record.state = JobState.RUNNING
        mgr._finalize_batch(handle, exitcode=-9)
        assert record.state is JobState.FAILED
        assert mgr.stats()["requeued_after_death"] == (
            jobs_module._REQUEUE_CAP
        )


class TestRealWorkerDeath:
    """SIGKILL the long-lived worker mid-job, as the OOM killer would."""

    @staticmethod
    async def kill_worker_mid_job(mgr, record, ready):
        queue = mgr.subscribe(record.job_id)
        while not ready(await queue.get()):
            pass
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        mgr.unsubscribe(record.job_id, queue)

    def test_without_checkpoint_the_job_fails_and_a_worker_replaces_it(
        self, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            mgr = manager()
            record = mgr.submit(long_running())
            await self.kill_worker_mid_job(
                mgr, record, lambda e: e["event"] == "progress"
            )
            await asyncio.wait_for(record.wait(), 60)
            assert record.state is JobState.FAILED
            assert record.error == "worker process died (exitcode -9)"
            after = mgr.submit(tiny())
            await asyncio.wait_for(after.wait(), 60)
            assert after.state is JobState.DONE
            assert mgr.stats()["workers_started"] == 2
            await mgr.drain()

        asyncio.run(main())
        assert multiprocessing.active_children() == []

    def test_an_idle_worker_that_died_is_replaced(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            mgr = manager()
            first = mgr.submit(tiny("a"))
            await asyncio.wait_for(first.wait(), 60)
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(60)
            assert not worker.is_alive()
            after = mgr.submit(tiny("b"))
            await asyncio.wait_for(after.wait(), 60)
            assert after.state is JobState.DONE
            stats = mgr.stats()
            # the dead worker never got the batch: one dispatch, no requeue
            assert stats["batches_dispatched"] == 2
            assert stats["workers_started"] == 2
            await mgr.drain()

        asyncio.run(main())
        assert multiprocessing.active_children() == []

    def test_with_checkpoint_the_job_requeues_and_resumes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            reference = await cold_reference(long_running())
            mgr = manager(checkpoint_dir=str(tmp_path), checkpoint_every=10)
            record = mgr.submit(long_running())
            path = mgr._checkpoint_path(record.digest)
            await self.kill_worker_mid_job(
                mgr,
                record,
                lambda e: e["event"] == "progress" and os.path.exists(path),
            )
            await asyncio.wait_for(record.wait(), 120)
            assert record.state is JobState.DONE, record.error
            assert not record.memo_hit
            assert_equivalent(record.result, reference)
            stats = mgr.stats()
            assert stats["requeued_after_death"] == 1
            assert stats["workers_started"] == 2
            assert not os.path.exists(path)
            await mgr.drain()

        asyncio.run(main())


class TestResumeVerbOverTcp:
    def test_cancel_resume_round_trip(self, tmp_path, monkeypatch):
        async def main():
            service = VerificationService(
                max_workers=1,
                checkpoint_dir=str(tmp_path / str(fork)),
            )
            host, port = await service.serve_tcp("127.0.0.1", 0)
            descriptor = long_running().to_json()
            async with ServiceClient(host, port) as client, ServiceClient(
                host, port
            ) as watcher:
                job = (await client.submit(descriptor))["job"]
                async for event in watcher.watch(job):
                    if event["event"] in ("running", "progress"):
                        break
                reply = await client.cancel(job)
                assert reply["cancelled"] is True
                status = await client.result(job)
                assert status["state"] == "cancelled"
                resumed = await client.resume(job)
                assert resumed["resumed_from"] == job
                assert resumed["job"] != job
                final = await asyncio.wait_for(
                    client.result(resumed["job"]), 120
                )
                assert final["state"] == "done"
                assert not final["result"]["interrupted"]
            await service.shutdown()

        for fork in (True, False):
            monkeypatch.setattr(jobs_module, "_FORK", fork)
            asyncio.run(main())


def _spawn(argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", *argv],
        env=env,
        text=True,
        **kwargs,
    )
    # watchdog: a hung server must fail the test, not the suite
    timer = threading.Timer(120, proc.kill)
    timer.daemon = True
    timer.start()
    return proc, timer


class TestRealSignals:
    """Real SIGTERM delivered to real server subprocesses."""

    def test_tcp_sigterm_checkpoints_and_persists(self, tmp_path):
        memo_path = os.path.join(tmp_path, "memo.json")
        ckpt_dir = os.path.join(tmp_path, "ckpt")
        proc, timer = _spawn(
            [
                "serve", "--port", "0", "--memo", memo_path,
                "--checkpoint-dir", ckpt_dir,
                "--checkpoint-every", "10", "--max-workers", "1",
            ],
            stdout=subprocess.PIPE,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.strip().rsplit(":", 1)[1])

            async def submit_and_watch():
                async with ServiceClient("127.0.0.1", port) as client:
                    reply = await client.submit(endless().to_json())
                    async for event in client.watch(reply["job"]):
                        if event["event"] == "progress":
                            return reply["digest"]

            digest = asyncio.run(submit_and_watch())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=90) == 0
            # the job was stopped, not finished: no result was memoized
            assert digest not in memo_keys(memo_path)
            names = os.listdir(ckpt_dir)
            assert any(name.endswith(".ckpt") for name in names)
        finally:
            timer.cancel()
            proc.kill()
            with proc:  # closes the pipes and reaps the child
                pass

    def test_tcp_sigterm_checkpoints_between_periodic_checkpoints(
        self, tmp_path
    ):
        # the cadence is never reached: the .ckpt left behind is the one
        # the engine wrote when SIGTERM set the job's cancel token
        memo_path = os.path.join(tmp_path, "memo.json")
        ckpt_dir = os.path.join(tmp_path, "ckpt")
        proc, timer = _spawn(
            [
                "serve", "--port", "0", "--memo", memo_path,
                "--checkpoint-dir", ckpt_dir,
                "--checkpoint-every", "1000000", "--max-workers", "1",
            ],
            stdout=subprocess.PIPE,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.strip().rsplit(":", 1)[1])

            async def submit_and_watch():
                async with ServiceClient("127.0.0.1", port) as client:
                    reply = await client.submit(endless().to_json())
                    async for event in client.watch(reply["job"]):
                        if event["event"] == "progress":
                            return reply["digest"]

            digest = asyncio.run(submit_and_watch())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=90) == 0
            assert digest not in memo_keys(memo_path)
            names = os.listdir(ckpt_dir)
            assert any(name.endswith(".ckpt") for name in names)
        finally:
            timer.cancel()
            proc.kill()
            with proc:  # closes the pipes and reaps the child
                pass

    def test_tcp_sigint_to_process_group_checkpoints(self, tmp_path):
        # a terminal's Ctrl-C reaches the whole foreground group: the
        # forked worker must leave the stop to the serving parent, which
        # checkpoints it through the job's cancel token
        memo_path = os.path.join(tmp_path, "memo.json")
        ckpt_dir = os.path.join(tmp_path, "ckpt")
        proc, timer = _spawn(
            [
                "serve", "--port", "0", "--memo", memo_path,
                "--checkpoint-dir", ckpt_dir,
                "--checkpoint-every", "1000000", "--max-workers", "1",
            ],
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.strip().rsplit(":", 1)[1])

            async def submit_and_watch():
                async with ServiceClient("127.0.0.1", port) as client:
                    reply = await client.submit(endless().to_json())
                    async for event in client.watch(reply["job"]):
                        if event["event"] == "progress":
                            return reply["digest"]

            digest = asyncio.run(submit_and_watch())
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=90) == 0
            assert digest not in memo_keys(memo_path)
            names = os.listdir(ckpt_dir)
            assert any(name.endswith(".ckpt") for name in names)
        finally:
            timer.cancel()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            with proc:  # closes the pipes and reaps the child
                pass

    def test_stdio_sigterm_exits_gracefully(self, tmp_path):
        memo_path = os.path.join(tmp_path, "memo.json")
        proc, timer = _spawn(
            ["serve", "--stdio", "--memo", memo_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            request = {
                "op": "submit",
                "descriptor": tiny().to_json(),
                "wait": True,
            }
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            assert reply["ok"] and reply["state"] == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=90) == 0
            # graceful shutdown persisted the memo with the result
            assert os.path.exists(memo_path)
            with open(memo_path) as handle:
                assert handle.read().strip()
        finally:
            timer.cancel()
            proc.kill()
            with proc:  # closes the pipes and reaps the child
                pass

    def test_stdio_eof_still_shuts_down_cleanly(self, tmp_path):
        memo_path = os.path.join(tmp_path, "memo.json")
        proc, timer = _spawn(
            ["serve", "--stdio", "--memo", memo_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            proc.stdin.close()
            assert proc.wait(timeout=90) == 0
            assert os.path.exists(memo_path)
        finally:
            timer.cancel()
            proc.kill()
            with proc:  # closes the pipes and reaps the child
                pass
