"""JobManager: lifecycle, memoization, coalescing, batching, cancel.

All tests drive the manager through ``asyncio.run`` (no pytest-asyncio
in the toolchain).  Jobs use deliberately tiny configurations; the one
long-running configuration exists only to be cancelled.
"""

import asyncio
import contextlib
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro.server.jobs as jobs_module
from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.explorer import explore_schedules
from repro.server.client import ServiceClient
from repro.server.descriptor import JobDescriptor, job_digest
from repro.server.jobs import JobManager, JobState
from repro.server.memo import MemoStore
from repro.server.service import VerificationService


def tiny(letter="x"):
    """A near-instant job (single broadcaster, n=2)."""
    return JobDescriptor.from_json(
        {
            "algorithm": "send-to-all",
            "n": 2,
            "scripts": {"0": [letter]},
            "progress_every": 2,
        }
    )


def showcase():
    """The depth-8 config: big enough to occupy a worker for a while."""
    return JobDescriptor.from_json(
        {
            "algorithm": "send-to-all",
            "n": 3,
            "scripts": {"0": ["a"], "1": ["b"]},
            "progress_every": 50,
        }
    )


def long_running():
    """URB with two senders: thousands of terminals, cancellable."""
    return JobDescriptor.from_json(
        {
            "algorithm": "uniform-reliable",
            "n": 2,
            "scripts": {"0": ["a"], "1": ["b"]},
            "dedup": False,
        }
    )


def sharded(algorithm="send-to-all", n=3):
    """A cache-less ``workers=2`` search: the job really shards."""
    return JobDescriptor.from_json(
        {
            "algorithm": algorithm,
            "n": n,
            "scripts": {"0": ["a"], "1": ["b"]},
            "dedup": False,
            "workers": 2,
        }
    )


def direct(descriptor):
    """The descriptor's result, explored in this process."""
    simulator, scripts, prop, crash, kwargs = descriptor.build()
    return explore_schedules(
        simulator, scripts, prop, crash_schedule=crash, **kwargs
    ).to_json()


def manager(**kwargs):
    kwargs.setdefault("max_workers", 1)
    return JobManager(MemoStore(), **kwargs)


class TestLifecycleAndMemo:
    def test_submit_runs_to_done(self):
        async def main():
            mgr = manager()
            record = mgr.submit(tiny())
            await record.wait()
            assert record.state is JobState.DONE
            assert record.result["exhausted"] is True
            assert record.violations_digest
            assert not record.memo_hit
            await mgr.drain()

        asyncio.run(main())

    def test_second_submission_is_memo_hit(self):
        async def main():
            mgr = manager()
            first = mgr.submit(tiny())
            await first.wait()
            second = mgr.submit(tiny())
            assert second.state is JobState.DONE
            assert second.memo_hit
            assert second.job_id != first.job_id
            assert second.result == first.result
            assert second.violations_digest == first.violations_digest
            stats = mgr.stats()
            assert stats["explorations_run"] == 1
            assert stats["memo_hits"] == 1
            await mgr.drain()

        asyncio.run(main())

    def test_in_flight_equivalents_coalesce(self):
        async def main():
            mgr = manager()  # one worker
            blocker = mgr.submit(showcase())  # occupies it
            first = mgr.submit(tiny())
            twin = mgr.submit(tiny())
            assert twin is first
            assert first.submissions == 2
            await asyncio.gather(blocker.wait(), first.wait())
            stats = mgr.stats()
            assert stats["coalesced"] == 1
            assert stats["explorations_run"] == 2
            await mgr.drain()

        asyncio.run(main())

    def test_failed_job_records_error(self, monkeypatch):
        # patch before fork: the worker inherits the raising stub
        def explode(descriptor, emit, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(jobs_module, "_run_descriptor", explode)

        async def main():
            mgr = manager()
            record = mgr.submit(tiny())
            await record.wait()
            assert record.state is JobState.FAILED
            assert "engine exploded" in record.error
            assert mgr.stats()["explorations_run"] == 0
            await mgr.drain()

        asyncio.run(main())

    def test_progress_events_reach_subscribers(self):
        # the plain cached search and a sleep-set one explore different
        # trees, and both stream progress
        slept = JobDescriptor.from_json(
            {**tiny().to_json(), "sleep_sets": True}
        )
        assert job_digest(slept) != job_digest(tiny())

        async def main(descriptor):
            mgr = manager()
            record = mgr.submit(descriptor)
            queue = mgr.subscribe(record.job_id)
            events = []
            while True:
                event = await queue.get()
                events.append(event)
                if event["event"] in ("done", "failed", "cancelled"):
                    break
            kinds = [e["event"] for e in events]
            assert kinds[0] == "running"
            assert kinds[-1] == "done"
            assert "progress" in kinds
            snapshot = next(
                e["snapshot"] for e in events if e["event"] == "progress"
            )
            assert snapshot["expansions"] >= 1
            await mgr.drain()

        for descriptor in (tiny(), slept):
            asyncio.run(main(descriptor))

    def test_late_subscriber_gets_terminal_event(self):
        async def main():
            mgr = manager()
            record = mgr.submit(tiny())
            await record.wait()
            queue = mgr.subscribe(record.job_id)
            event = queue.get_nowait()
            assert event["event"] == "done"
            assert event["result"] == record.result
            await mgr.drain()

        asyncio.run(main())


class TestQueueingAndBatching:
    def test_priority_order(self):
        async def main():
            mgr = manager()
            mgr.submit(showcase())  # occupy the single worker
            low = mgr.submit(tiny("l"), priority=5)
            high = mgr.submit(tiny("h"), priority=0)
            batch = mgr._pop_batch()
            assert batch[0] is high
            assert low.state is JobState.QUEUED
            # restore and settle
            import heapq

            mgr._seq += 1
            heapq.heappush(
                mgr._heap, (high.priority, mgr._seq, high.job_id)
            )
            await asyncio.gather(low.wait(), high.wait())
            await mgr.drain()

        asyncio.run(main())

    def test_small_jobs_batch_into_one_dispatch(self):
        async def main():
            mgr = manager(batch_max=4)
            blocker = mgr.submit(showcase())  # cost 36 > small_cost 32
            small = [mgr.submit(tiny(letter)) for letter in "pqr"]
            await asyncio.gather(*(r.wait() for r in [blocker, *small]))
            stats = mgr.stats()
            assert all(r.state is JobState.DONE for r in small)
            # blocker alone + the three small jobs as one batch
            assert stats["batches_dispatched"] == 2
            assert stats["batched_jobs"] == 3
            assert stats["explorations_run"] == 4
            await mgr.drain()

        asyncio.run(main())

    def test_batch_max_respected(self):
        async def main():
            mgr = manager(batch_max=2)
            blocker = mgr.submit(showcase())
            small = [mgr.submit(tiny(letter)) for letter in "pqrs"]
            await asyncio.gather(*(r.wait() for r in [blocker, *small]))
            assert mgr.stats()["batches_dispatched"] == 3  # 1 + 2 + 2
            await mgr.drain()

        asyncio.run(main())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def main():
            mgr = manager()
            blocker = mgr.submit(showcase())
            victim = mgr.submit(tiny())
            queue = mgr.subscribe(victim.job_id)
            assert mgr.cancel(victim.job_id) is True
            assert victim.state is JobState.CANCELLED
            assert queue.get_nowait()["event"] == "cancelled"
            await blocker.wait()
            assert mgr.stats()["explorations_run"] == 1
            await mgr.drain()

        asyncio.run(main())

    def test_cancel_running_job_terminates_worker(self, monkeypatch):
        # A cancel stops a job running in a forked worker through its
        # token (the worker itself is left alone), and the digest stays
        # usable afterwards.
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            mgr = manager()
            record = mgr.submit(long_running())
            queue = mgr.subscribe(record.job_id)
            event = await queue.get()
            assert event["event"] == "running"
            assert mgr.cancel(record.job_id) is True
            await record.wait()
            assert record.state is JobState.CANCELLED
            # a fresh equivalent submission is not poisoned by the cancel
            again = mgr.submit(long_running())
            assert again.state in (JobState.QUEUED, JobState.RUNNING)
            assert mgr.cancel(again.job_id) is True
            await again.wait()
            await mgr.drain()

        asyncio.run(main())

    def test_cancel_before_the_batch_starts(self, monkeypatch):
        async def main():
            mgr = manager()
            record = mgr.submit(tiny())
            queue = mgr.subscribe(record.job_id)
            assert mgr.cancel(record.job_id) is True
            await mgr.drain()
            assert record.state is JobState.CANCELLED
            assert mgr.stats()["explorations_run"] == 0
            assert len(mgr.memo) == 0
            events = [queue.get_nowait() for _ in range(queue.qsize())]
            terminal = [
                e for e in events
                if e["event"] in ("done", "failed", "cancelled")
            ]
            assert [e["event"] for e in terminal] == ["cancelled"]

        for fork in (True, False):
            monkeypatch.setattr(jobs_module, "_FORK", fork)
            asyncio.run(main())

    def test_cancel_keeps_the_work_done_so_far(self, tmp_path, monkeypatch):
        # no periodic checkpoint before the cancel: whatever is on disk
        # was written when the engine stopped on the token
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            mgr = manager(
                checkpoint_dir=str(tmp_path), checkpoint_every=10_000
            )
            record = mgr.submit(long_running())
            queue = mgr.subscribe(record.job_id)
            while True:
                event = await queue.get()
                if (
                    event["event"] == "progress"
                    and event["snapshot"]["expansions"] >= 300
                ):
                    break
            assert mgr.cancel(record.job_id) is True
            await asyncio.wait_for(record.wait(), 60)
            assert record.state is JobState.CANCELLED
            path = mgr._checkpoint_path(record.digest)
            assert os.path.exists(path)
            outcome = read_checkpoint(path)["outcome"]
            expansions = event["snapshot"]["expansions"]
            assert outcome["schedules_explored"] >= expansions
            resumed = mgr.resume(record.job_id)
            await asyncio.wait_for(resumed.wait(), 120)
            await mgr.drain()
            return resumed

        resumed = asyncio.run(main())
        assert resumed.state is JobState.DONE
        # a resume re-pays the replay of checkpointed prefixes
        exempt = ("events_executed", "events_replayed")
        for name, value in direct(long_running()).items():
            if name not in exempt:
                assert resumed.result[name] == value, name

    def test_cancel_spares_the_batch_mates(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_FORK", True)

        async def main():
            mgr = manager(small_cost=10**9)
            blocker = mgr.submit(tiny("b"))  # holds the one worker
            victim = mgr.submit(long_running())
            mates = [mgr.submit(tiny(letter)) for letter in "pqr"]
            queue = mgr.subscribe(victim.job_id)
            while (await queue.get())["event"] != "progress":
                pass
            assert mgr.cancel(victim.job_id) is True
            await asyncio.wait_for(
                asyncio.gather(*(r.wait() for r in [blocker, *mates])), 60
            )
            await mgr.drain()
            assert victim.state is JobState.CANCELLED
            assert all(r.state is JobState.DONE for r in mates)
            # the blocker alone, then the victim and its mates in one
            # worker that outlives the cancel
            assert mgr.stats()["batches_dispatched"] == 2

        asyncio.run(main())

    def test_cancel_terminal_job_is_stable(self):
        async def main():
            mgr = manager()
            record = mgr.submit(tiny())
            await record.wait()
            assert mgr.cancel(record.job_id) is False
            assert record.state is JobState.DONE
            await mgr.drain()

        asyncio.run(main())

    def test_cancel_unknown_job_raises(self):
        async def main():
            mgr = manager()
            with pytest.raises(KeyError):
                mgr.cancel("job-999")
            await mgr.drain()

        asyncio.run(main())


class TestDrainAndBackends:
    def test_drain_cancels_queue_and_finishes_running(self):
        async def main():
            mgr = manager()
            running = mgr.submit(showcase())
            queued = mgr.submit(tiny())
            await mgr.drain()
            assert running.state is JobState.DONE
            assert queued.state is JobState.CANCELLED
            with pytest.raises(RuntimeError):
                mgr.submit(tiny("z"))

        asyncio.run(main())

    def test_thread_backend_runs_and_memoizes(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_FORK", False)

        async def main():
            mgr = manager()
            first = mgr.submit(tiny())
            await first.wait()
            assert first.state is JobState.DONE
            second = mgr.submit(tiny())
            assert second.memo_hit
            assert second.result == first.result
            await mgr.drain()

        asyncio.run(main())

    def test_backends_agree_on_results(self, monkeypatch):
        async def run_with(fork):
            monkeypatch.setattr(jobs_module, "_FORK", fork)
            mgr = manager()
            record = mgr.submit(tiny())
            await record.wait()
            await mgr.drain()
            return record.result

        process_result = asyncio.run(run_with(True))
        thread_result = asyncio.run(run_with(False))
        assert process_result == thread_result


class TestShardedJobs:
    def test_sharded_job_equals_direct_search(self, tmp_path):
        async def main():
            mgr = manager(checkpoint_dir=str(tmp_path))
            record = mgr.submit(sharded())
            await asyncio.wait_for(record.wait(), 60)
            await mgr.drain()
            return record

        record = asyncio.run(main())
        assert record.state is JobState.DONE
        assert record.result["workers"] == 2
        assert record.result == direct(sharded())
        # the parent checkpoint and every shard side file are gone
        assert os.listdir(tmp_path) == []

    def test_cancelled_sharded_job_resumes_to_the_cold_result(
        self, tmp_path, monkeypatch
    ):
        descriptor = sharded("uniform-reliable", n=2)

        async def main():
            mgr = manager(checkpoint_dir=str(tmp_path))
            record = mgr.submit(descriptor)
            queue = mgr.subscribe(record.job_id)
            assert (await queue.get())["event"] == "running"
            assert mgr.cancel(record.job_id) is True
            await asyncio.wait_for(record.wait(), 60)
            assert record.state is JobState.CANCELLED
            resumed = mgr.resume(record.job_id)
            await asyncio.wait_for(resumed.wait(), 120)
            await mgr.drain()
            return resumed

        cold = direct(descriptor)
        for fork in (True, False):
            monkeypatch.setattr(jobs_module, "_FORK", fork)
            resumed = asyncio.run(main())
            assert resumed.state is JobState.DONE
            assert not resumed.memo_hit
            # a resume re-pays the replay of checkpointed prefixes
            exempt = ("events_executed", "events_replayed")
            for name, value in cold.items():
                if name not in exempt:
                    assert resumed.result[name] == value, name
            assert os.listdir(tmp_path) == []


def history_descriptors():
    """Twelve distinct jobs of every shape a long-lived worker runs."""
    base = {"n": 2, "scripts": {"0": ["m"]}}
    specs = [
        {"algorithm": "send-to-all", **base},
        {
            "algorithm": "send-to-all",
            "n": 2,
            "scripts": {"0": ["x"], "1": ["y"]},
            "spec": "total-order",
        },
        {
            "algorithm": "send-to-all",
            "n": 3,
            "scripts": {"0": ["a"], "1": ["b"]},
            "sleep_sets": True,
        },
        {
            "algorithm": "send-to-all",
            "n": 3,
            "scripts": {"0": ["a"], "1": ["a"], "2": ["a"]},
            "symmetry": "rename",
        },
        {
            "algorithm": "uniform-reliable",
            **base,
            "spec": "uniform-reliable",
            "crash_at_step": {"0": 2},
        },
        {"algorithm": "fifo", **base, "spec": "fifo", "sleep_sets": True},
        {"algorithm": "causal", **base, "spec": "causal"},
        {"algorithm": "kbo-attempt", **base, "spec": "kbo"},
        {"algorithm": "k-stepped", **base, "spec": "k-stepped"},
        {"algorithm": "scd", **base, "spec": "scd", "crash_initially": [1]},
        {"algorithm": "first-k", **base, "spec": "first-k"},
    ]
    return [JobDescriptor.from_json(spec) for spec in specs] + [sharded()]


class TestLongLivedWorkers:
    def test_results_do_not_depend_on_a_workers_history(self):
        # one worker runs every job, in order and then (on a second
        # manager) in reverse: each job meets a different history
        descriptors = history_descriptors()
        assert len({job_digest(d) for d in descriptors}) == 12

        async def main(order):
            mgr = manager(max_workers=1)
            records = [mgr.submit(d) for d in order]
            await asyncio.wait_for(
                asyncio.gather(*(r.wait() for r in records)), 120
            )
            await mgr.drain()
            return mgr.stats(), records

        for order in (descriptors, descriptors[::-1]):
            stats, records = asyncio.run(main(order))
            assert stats["runner"] == "process"
            assert stats["workers_started"] == 1
            for descriptor, record in zip(order, records):
                assert record.state is JobState.DONE, record.error
                assert record.result == direct(descriptor), descriptor
        violating = records[order.index(descriptors[1])]
        assert violating.result["violations"]

    def test_workers_are_reused_up_to_max_workers(self):
        async def main():
            mgr = manager(max_workers=2, batch_max=1)
            first = [mgr.submit(tiny(letter)) for letter in "abcd"]
            await asyncio.wait_for(
                asyncio.gather(*(r.wait() for r in first)), 60
            )
            again = [mgr.submit(tiny(letter)) for letter in "efgh"]
            await asyncio.wait_for(
                asyncio.gather(*(r.wait() for r in again)), 60
            )
            stats = mgr.stats()
            await mgr.drain()
            return stats

        stats = asyncio.run(main())
        assert stats["batches_dispatched"] == 8
        assert stats["workers_started"] == 2

    def test_a_cancel_ends_with_its_batch(self):
        # the worker's cancel slots are zeroed for its next batch
        async def main():
            mgr = manager()
            victim = mgr.submit(long_running())
            queue = mgr.subscribe(victim.job_id)
            assert (await queue.get())["event"] == "running"
            assert mgr.cancel(victim.job_id) is True
            await asyncio.wait_for(victim.wait(), 60)
            after = mgr.submit(tiny())
            await asyncio.wait_for(after.wait(), 60)
            await mgr.drain()
            return mgr.stats(), victim, after

        stats, victim, after = asyncio.run(main())
        assert victim.state is JobState.CANCELLED
        assert after.state is JobState.DONE
        assert stats["workers_started"] == 1

    def test_memo_hits_share_the_stored_result(self):
        async def main():
            mgr = manager()
            cold = mgr.submit(tiny())
            await asyncio.wait_for(cold.wait(), 60)
            hits = [mgr.submit(tiny()) for _ in range(2)]
            await mgr.drain()
            return mgr, cold, hits

        mgr, cold, hits = asyncio.run(main())
        stored = mgr.memo.lookup(cold.digest).payload["result"]
        assert all(hit.memo_hit and hit.result is stored for hit in hits)
        assert stored is cold.result
        assert mgr.memo.stats()["hits"] == 3


class TestWorkerLifecycle:
    def test_drain_and_shutdown_leave_no_process(self):
        async def with_manager():
            mgr = manager(max_workers=2, batch_max=1)
            records = [mgr.submit(tiny(letter)) for letter in "ab"]
            await asyncio.wait_for(
                asyncio.gather(*(r.wait() for r in records)), 60
            )
            assert len(multiprocessing.active_children()) == 2
            await mgr.drain()

        async def with_service():
            service = VerificationService(max_workers=1)
            host, port = await service.serve_tcp("127.0.0.1", 0)
            async with ServiceClient(host, port) as client:
                reply = await client.submit(tiny().to_json(), wait=True)
                assert reply["state"] == "done"
            assert len(multiprocessing.active_children()) == 1
            await service.shutdown()

        for main in (with_manager, with_service):
            asyncio.run(main())
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
    )
    def test_a_worker_holds_none_of_the_services_sockets(self):
        def sockets(pid):
            links = []
            for name in os.listdir(f"/proc/{pid}/fd"):
                with contextlib.suppress(OSError):
                    links.append(os.readlink(f"/proc/{pid}/fd/{name}"))
            return {link for link in links if link.startswith("socket:")}

        async def main():
            service = VerificationService(max_workers=1)
            host, port = await service.serve_tcp("127.0.0.1", 0)
            async with ServiceClient(host, port) as client, ServiceClient(
                host, port
            ) as other:
                await other.ping()
                reply = await client.submit(tiny().to_json(), wait=True)
                assert reply["state"] == "done"
                (worker,) = multiprocessing.active_children()
                # the listener, both client connections and their
                # accepted ends all live in this process
                ours = sockets(os.getpid())
                assert len(ours) >= 5
                theirs = sockets(worker.pid)
            await service.shutdown()
            return ours, theirs

        ours, theirs = asyncio.run(main())
        assert len(theirs) == 1  # the worker's own pipe end
        assert not ours & theirs

    def test_an_undrained_manager_does_not_hang_exit(self):
        # the manager stays referenced until interpreter exit, where
        # multiprocessing joins its idle worker
        script = (
            "import asyncio\n"
            "from repro.server.descriptor import JobDescriptor\n"
            "from repro.server.jobs import JobManager\n"
            "from repro.server.memo import MemoStore\n"
            "async def main():\n"
            "    mgr = JobManager(MemoStore(), max_workers=1)\n"
            "    record = mgr.submit(JobDescriptor.from_json(\n"
            "        {'algorithm': 'send-to-all', 'n': 2,\n"
            "         'scripts': {'0': ['x']}}))\n"
            "    await record.wait()\n"
            "    print(record.state.value, mgr.stats()['workers_started'])\n"
            "    return mgr\n"
            "MANAGER = asyncio.run(main())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["done", "1"]
