"""Performance P6 addendum — service submit latency, cold vs memo-hit.

One verification service, one TCP client, both alive for the whole
module.  The *cold* benchmark submits a fresh descriptor every round
(a unique ``max_schedules`` budget gives each a distinct memo key), so
every submission pays a dispatch to a long-lived job worker (the
warm-up round forks it) plus the exploration.  The *memo-hit* benchmark
resubmits one fixed descriptor: after the first round the service
answers from the fingerprint-keyed store, sharing the stored result
without copying it, and the measured latency is pure protocol +
lookup — the number that makes near-duplicate scenario sweeps cheap.
"""

import asyncio
import itertools

import pytest

from repro.server.client import ServiceClient
from repro.server.service import VerificationService

TINY = {
    "algorithm": "send-to-all",
    "n": 2,
    "scripts": {"0": ["x"]},
    "dedup": True,
}


@pytest.fixture(scope="module")
def service_conn():
    loop = asyncio.new_event_loop()
    service = VerificationService(max_workers=2)
    host, port = loop.run_until_complete(
        service.serve_tcp("127.0.0.1", 0)
    )
    client = ServiceClient(host, port)
    loop.run_until_complete(client.connect())
    yield loop, client
    loop.run_until_complete(client.aclose())
    loop.run_until_complete(service.shutdown())
    loop.close()


def test_submit_cold(benchmark, service_conn):
    loop, client = service_conn
    budgets = itertools.count(90_000)

    def submit_fresh():
        descriptor = dict(TINY, max_schedules=next(budgets))
        reply = loop.run_until_complete(
            client.submit(descriptor, wait=True)
        )
        assert reply["memo_hit"] is False
        assert reply["state"] == "done"
        return reply

    benchmark.pedantic(
        submit_fresh, rounds=5, iterations=1, warmup_rounds=1
    )


def test_submit_memo_hit(benchmark, service_conn):
    loop, client = service_conn
    cold = loop.run_until_complete(client.submit(TINY, wait=True))
    assert cold["state"] == "done"

    def submit_warm():
        reply = loop.run_until_complete(client.submit(TINY, wait=True))
        assert reply["memo_hit"] is True
        assert reply["violations_digest"] == cold["violations_digest"]
        return reply

    benchmark(submit_warm)
