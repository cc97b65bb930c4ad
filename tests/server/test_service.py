"""End-to-end service tests over real TCP connections.

These drive the acceptance path: two equivalent submissions run exactly
one exploration (the second is a construction-identical memo hit), a
live subscriber streams ``ProgressSnapshot`` events for the cold run,
shutdown persists the memo for warm restarts, and the store stays
within bounds under load.
"""

import asyncio

import pytest

from repro.server.client import ServiceClient, ServiceError
from repro.server.descriptor import JobDescriptor
from repro.server.service import VerificationService

SHOWCASE = {
    "algorithm": "send-to-all",
    "n": 3,
    "scripts": {"0": ["a"], "1": ["b"]},
    "progress_every": 50,
}

#: Same request, respelled: reordered keys, explicit defaults, other
#: telemetry cadence.
SHOWCASE_RESPELLED = {
    "scripts": {"1": ["b"], "0": ["a"]},
    "n": 3,
    "k": 1,
    "dedup": True,
    "symmetry": "none",
    "algorithm": "send-to-all",
    "progress_every": 500,
}

VIOLATING = {
    "algorithm": "send-to-all",
    "n": 2,
    "scripts": {"0": ["x"], "1": ["y"]},
    "spec": "total-order",
}


def tiny(letter):
    return {
        "algorithm": "send-to-all",
        "n": 2,
        "scripts": {"0": [letter]},
    }


async def started_service(**kwargs):
    service = VerificationService(**kwargs)
    host, port = await service.serve_tcp("127.0.0.1", 0)
    return service, host, port


class TestAcceptance:
    def test_two_equivalent_submissions_one_exploration(self):
        async def main():
            service, host, port = await started_service(max_workers=2)
            async with ServiceClient(host, port) as client, ServiceClient(
                host, port
            ) as watcher:
                submitted = await client.submit(SHOWCASE)
                job = submitted["job"]

                progress = []
                terminal = None
                async for event in watcher.watch(job):
                    if event["event"] == "progress":
                        progress.append(event["snapshot"])
                    elif event["event"] == "done":
                        terminal = event

                # live subscriber streamed snapshots during the cold run
                assert len(progress) >= 1
                assert progress[0]["expansions"] >= 1
                assert terminal is not None

                cold = await client.result(job)
                assert cold["memo_hit"] is False
                # the depth-8 tree's distinct branch points (the oracle
                # walk of tests/runtime/test_branch_points.py)
                assert cold["result"]["states_seen"] == 255

                warm = await client.submit(SHOWCASE_RESPELLED, wait=True)
                assert warm["memo_hit"] is True
                assert warm["job"] != job
                # construction-identical ExplorationResult
                assert warm["result"] == cold["result"]
                assert (
                    warm["violations_digest"] == cold["violations_digest"]
                )
                assert (
                    warm["result"]["states_seen"]
                    == cold["result"]["states_seen"]
                )

                stats = await client.stats()
                assert stats["explorations_run"] == 1
                assert stats["memo_hits"] == 1
                assert stats["workers_started"] == 1
            await service.shutdown()

        asyncio.run(main())

    def test_worker_count_on_a_cached_search_one_exploration(self):
        async def main():
            service, host, port = await started_service(max_workers=2)
            async with ServiceClient(host, port) as client:
                cold = await client.submit(
                    dict(SHOWCASE, dedup=True, workers=4), wait=True
                )
                warm = await client.submit(
                    dict(SHOWCASE, dedup=True), wait=True
                )
                assert cold["memo_hit"] is False
                assert warm["memo_hit"] is True
                assert warm["result"] == cold["result"]
                assert cold["result"]["workers"] == 1
                digests = {
                    (await client.status(r["job"]))["digest"]
                    for r in (cold, warm)
                }
                assert len(digests) == 1
                stats = await client.stats()
                assert stats["explorations_run"] == 1
            await service.shutdown()

        asyncio.run(main())

    def test_watch_streams_independence_stats(self):
        # a sleep-set crash job counts verdicts by source; the watch
        # stream must carry them in both the progress snapshots and
        # the terminal result
        crashy = {
            "algorithm": "send-to-all",
            "n": 3,
            "scripts": {"0": ["a"], "1": ["b"]},
            "sleep_sets": True,
            "crash_at_step": {"2": 4},
            "max_depth": 8,
            "progress_every": 25,
        }

        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client, ServiceClient(
                host, port
            ) as watcher:
                job = (await client.submit(crashy))["job"]
                snapshots = []
                terminal = None
                async for event in watcher.watch(job):
                    if event["event"] == "progress":
                        snapshots.append(event["snapshot"])
                    elif event["event"] == "done":
                        terminal = event
                assert snapshots, "expected progress snapshots"
                assert any(
                    sum(s.get("independence_stats", {}).values())
                    for s in snapshots
                ), "no snapshot carried independence counters"
                assert terminal is not None
                stats = terminal["result"]["independence_stats"]
                assert stats["crash_proof"] > 0
                assert set(stats) <= {"dynamic", "crash_proof", "conservative"}
            await service.shutdown()

        asyncio.run(main())

    def test_independence_line_rendering(self):
        from repro.server.__main__ import _independence_line

        assert _independence_line(None) is None
        assert _independence_line({}) is None
        assert _independence_line({"dynamic": 0}) is None
        line = _independence_line(
            {"dynamic": 3, "crash_proof": 2, "conservative": 5}
        )
        assert line == "dynamic=3 crash_proof=2 conservative=5"

    def test_stats_line_rendering(self):
        from repro.server.__main__ import _stats_line

        line = _stats_line(
            {
                "workers_started": 2,
                "max_workers": 2,
                "batches_dispatched": 40,
                "explorations_run": 52,
                "memo": {"hits": 7, "misses": 52},
            }
        )
        assert line == "workers=2/2 batches=40 explorations=52 memo=7/59"

    def test_violating_config_reports_violations(self):
        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client:
                reply = await client.submit(VIOLATING, wait=True)
                assert reply["state"] == "done"
                assert len(reply["result"]["violations"]) > 0
                assert reply["violations_digest"]
            await service.shutdown()

        asyncio.run(main())

    def test_eviction_bounds_under_fifty_job_load(self):
        async def main():
            # synthetic load: 50 distinct memoized results against a
            # store bounded far below them
            service, host, port = await started_service(
                max_entries=8, max_bytes=1 << 16
            )
            memo = service.manager.memo
            for index in range(50):
                memo.put(
                    f"job-digest-{index}",
                    {"result": {"states_seen": index}},
                    cost=float(index),
                )
            assert len(memo) <= 8
            assert memo.total_bytes() <= 1 << 16
            async with ServiceClient(host, port) as client:
                stats = await client.stats()
                assert stats["memo"]["entries"] <= 8
                assert stats["memo"]["evictions"] >= 42
            await service.shutdown()

        asyncio.run(main())

    def test_warm_restart_from_persisted_memo(self, tmp_path):
        memo_path = str(tmp_path / "memo.json")

        async def first_life():
            service, host, port = await started_service(
                memo_path=memo_path
            )
            runner = asyncio.create_task(service.run_until_shutdown())
            async with ServiceClient(host, port) as client:
                cold = await client.submit(tiny("w"), wait=True)
                await client.shutdown()
            await runner
            return cold

        async def second_life(cold):
            service, host, port = await started_service(
                memo_path=memo_path
            )
            async with ServiceClient(host, port) as client:
                warm = await client.submit(tiny("w"), wait=True)
                assert warm["memo_hit"] is True
                assert warm["result"] == cold["result"]
                assert (
                    warm["violations_digest"] == cold["violations_digest"]
                )
                assert (await client.stats())["explorations_run"] == 0
            await service.shutdown()

        cold = asyncio.run(first_life())
        asyncio.run(second_life(cold))


class TestProtocolSurface:
    def test_ping_status_jobs_cancel(self):
        async def main():
            service, host, port = await started_service(max_workers=1)
            async with ServiceClient(host, port) as client:
                assert (await client.ping())["pong"] is True

                blocker = (await client.submit(SHOWCASE))["job"]
                victim = (await client.submit(tiny("v")))["job"]

                status = await client.status(victim)
                assert status["state"] in ("queued", "running")

                cancelled = await client.cancel(victim)
                assert cancelled["cancelled"] is True
                assert (await client.status(victim))["state"] == "cancelled"

                listed = await client.jobs()
                assert {j["job"] for j in listed} >= {blocker, victim}

                result = await client.result(blocker)
                assert result["state"] == "done"
            await service.shutdown()

        asyncio.run(main())

    def test_watch_finished_job_yields_terminal_immediately(self):
        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client:
                job = (await client.submit(tiny("t"), wait=True))["job"]
                events = [e async for e in client.watch(job)]
                assert events[-1]["event"] == "done"
            await service.shutdown()

        asyncio.run(main())

    def test_error_replies(self):
        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError, match="unknown op"):
                    await client.request("frobnicate")
                with pytest.raises(ServiceError, match="unknown job"):
                    await client.status("job-999")
                with pytest.raises(ServiceError, match="descriptor"):
                    await client.request("submit", descriptor="nope")
                with pytest.raises(ServiceError, match="algorithm"):
                    await client.submit({"algorithm": "nope", "n": 2,
                                         "scripts": {"0": ["a"]}})
                # the connection survives every rejected request
                assert (await client.ping())["pong"] is True
            await service.shutdown()

        asyncio.run(main())

    def test_wrong_typed_descriptor_rejected_session_survives(self):
        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError, match="n must be"):
                    await client.submit(
                        {"algorithm": "send-to-all", "n": "3",
                         "scripts": {"0": ["a"]}}
                    )
                # the reply was ok: false and the session is still open
                assert (await client.ping())["pong"] is True
            await service.shutdown()

        asyncio.run(main())

    def test_wrong_typed_submit_fields_rejected_session_survives(self):
        # ``True`` is an ``int`` to Python, and a truthy string is not a
        # flag: both are named errors, and nothing is submitted
        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client:
                descriptor = tiny("p")
                for fields, name in [
                    ({"priority": True}, "priority"),
                    ({"priority": "1"}, "priority"),
                    ({"wait": 1}, "wait"),
                    ({"wait": "no"}, "wait"),
                ]:
                    with pytest.raises(ServiceError, match=f"'{name}'"):
                        await client.request(
                            "submit", descriptor=descriptor, **fields
                        )
                assert (await client.ping())["pong"] is True
                assert service.manager.stats()["submitted"] == 0
                reply = await client.submit(descriptor, priority=2, wait=True)
                assert reply["state"] == "done"
            await service.shutdown()

        asyncio.run(main())

    def test_request_ids_echoed(self):
        async def main():
            service, host, port = await started_service()
            async with ServiceClient(host, port) as client:
                reply = await client.request("ping", id="req-42")
                assert reply["id"] == "req-42"
            await service.shutdown()

        asyncio.run(main())

    def test_malformed_frame_rejected_connection_survives(self):
        async def main():
            service, host, port = await started_service()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            assert b'"ok":false' in line
            writer.write(b'{"op":"ping"}\n')
            await writer.drain()
            line = await reader.readline()
            assert b'"pong":true' in line
            writer.close()
            await writer.wait_closed()
            await service.shutdown()

        asyncio.run(main())

    def test_shutdown_refuses_new_submissions(self):
        async def main():
            service, host, port = await started_service()
            runner = asyncio.create_task(service.run_until_shutdown())
            async with ServiceClient(host, port) as client:
                await client.shutdown()
            await runner
            with pytest.raises(RuntimeError):
                service.manager.submit(JobDescriptor.from_json(tiny("z")))

        asyncio.run(main())
