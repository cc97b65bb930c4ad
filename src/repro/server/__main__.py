"""Command-line front end: ``python -m repro.server``.

``serve`` runs the verification service (TCP by default, ``--stdio``
for a single piped session); the remaining subcommands are thin client
verbs against a running server.  ``selfcheck`` is the self-contained
smoke used by CI: it boots an in-process server on an ephemeral port
and walks the acceptance path — cold run with a live progress stream,
memo-hit on an equivalent respelling, violation surfacing, graceful
shutdown with memo persistence, warm restart, and eviction bounds.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import glob
import json
import os
import signal
import sys
import tempfile
from typing import Any

from .client import ServiceClient
from .memo import MemoStore
from .service import VerificationService

#: The depth-8 showcase configuration (2520 terminals, 255 dedup
#: branch points) — the canonical cold-run workload of the smoke.
_SHOWCASE: dict[str, Any] = {
    "algorithm": "send-to-all",
    "n": 3,
    "scripts": {"0": ["a"], "1": ["b"]},
    "progress_every": 50,
}

#: The same request, spelled differently: reordered keys, defaults made
#: explicit, a different telemetry cadence.  Must hit the memo.
_SHOWCASE_RESPELLED: dict[str, Any] = {
    "scripts": {"1": ["b"], "0": ["a"]},
    "dedup": True,
    "n": 3,
    "k": 1,
    "sleep_sets": False,
    "symmetry": "none",
    "algorithm": "send-to-all",
    "progress_every": 200,
}

#: A deliberately long job with the dedup cache off (seconds of
#: wall clock, bounded by ``max_schedules``) — slow enough that a
#: SIGTERM lands mid-flight, bounded enough to finish.  The checkpoint
#: round-trip phase of the selfcheck kills a server running this job
#: and expects a restarted one to complete it warm.
_LONG: dict[str, Any] = {
    "algorithm": "send-to-all",
    "n": 3,
    "scripts": {"0": ["a", "b"], "1": ["c"]},
    "dedup": False,
    "max_schedules": 20_000,
    "progress_every": 25,
}

#: send-to-all checked against the total-order spec: violating.
_VIOLATING: dict[str, Any] = {
    "algorithm": "send-to-all",
    "n": 2,
    "scripts": {"0": ["x"], "1": ["y"]},
    "spec": "total-order",
}


def _print(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- serve -----------------------------------------------------------------


async def _cmd_serve(args: argparse.Namespace) -> int:
    service = VerificationService(
        memo_path=args.memo,
        max_workers=args.max_workers,
        batch_max=args.batch_max,
        small_cost=args.small_cost,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    # Both transports get the same operator contract: SIGINT/SIGTERM
    # interrupt running jobs checkpoint-first, then drain and persist
    # the memo — an orderly exit, never a lost search.
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(
                sig,
                lambda: service.request_shutdown(stop_running=True),
            )
    if args.stdio:
        session = asyncio.create_task(service.serve_stdio())
        stopper = asyncio.create_task(service.run_until_shutdown())
        # first of: client EOF (session ends) or a signal (stopper
        # proceeds to shutdown, which cancels the session)
        await asyncio.wait(
            {session, stopper}, return_when=asyncio.FIRST_COMPLETED
        )
        service.request_shutdown()
        await stopper
        with contextlib.suppress(asyncio.CancelledError):
            await session
        return 0
    host, port = await service.serve_tcp(args.host, args.port)
    print(f"repro.server listening on {host}:{port}", flush=True)
    await service.run_until_shutdown()
    return 0


# -- client verbs ----------------------------------------------------------


async def _cmd_submit(args: argparse.Namespace) -> int:
    if args.file is not None:
        with open(args.file) as handle:
            descriptor = json.load(handle)
    else:
        descriptor = json.loads(args.descriptor)
    async with ServiceClient(args.host, args.port) as client:
        reply = await client.submit(
            descriptor, priority=args.priority, wait=args.wait
        )
        _print(reply)
        if args.watch and not args.wait:
            async for event in client.watch(reply["job"]):
                print(json.dumps(event, sort_keys=True), flush=True)
    return 0


def _independence_line(stats: Any) -> str | None:
    """A one-line rendering of ``independence_stats``, or None if empty.

    Shown on stderr by ``watch`` so the stdout event stream stays pure
    NDJSON for machine consumers.
    """
    if not isinstance(stats, dict) or not stats:
        return None
    parts = [
        f"{name}={stats[name]}"
        for name in ("dynamic", "crash_proof", "conservative")
        if stats.get(name)
    ]
    return " ".join(parts) if parts else None


def _stats_line(stats: dict) -> str:
    """A one-line rendering of the ``stats`` verb's counters.

    Shown on stderr by ``stats`` after the JSON reply: forked workers
    against the pool width (a count that stays put while batches climb
    means workers are reused), dispatches, explorations and memo hits.
    """
    memo = stats.get("memo", {})
    lookups = memo.get("hits", 0) + memo.get("misses", 0)
    return (
        f"workers={stats.get('workers_started', 0)}"
        f"/{stats.get('max_workers', 0)}"
        f" batches={stats.get('batches_dispatched', 0)}"
        f" explorations={stats.get('explorations_run', 0)}"
        f" memo={memo.get('hits', 0)}/{lookups}"
    )


async def _cmd_watch(args: argparse.Namespace) -> int:
    async with ServiceClient(args.host, args.port) as client:
        async for event in client.watch(args.job):
            print(json.dumps(event, sort_keys=True), flush=True)
            if event.get("event") == "progress":
                stats = (event.get("snapshot") or {}).get(
                    "independence_stats"
                )
            elif event.get("event") == "done":
                stats = (event.get("result") or {}).get(
                    "independence_stats"
                )
            else:
                stats = None
            line = _independence_line(stats)
            if line is not None:
                print(f"# independence: {line}", file=sys.stderr,
                      flush=True)
    return 0


async def _cmd_simple(args: argparse.Namespace) -> int:
    async with ServiceClient(args.host, args.port) as client:
        verb = getattr(client, args.command)
        if args.command in ("status", "result", "cancel", "resume"):
            _print(await verb(args.job))
        else:
            reply = await verb()
            _print(reply)
            if args.command == "stats":
                print(f"# service: {_stats_line(reply)}", file=sys.stderr,
                      flush=True)
    return 0


# -- selfcheck -------------------------------------------------------------


class _SelfcheckFailure(AssertionError):
    pass


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise _SelfcheckFailure(label)
    print(f"ok - {label}", flush=True)


async def _cmd_selfcheck(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        memo_path = os.path.join(tmp, "memo.json")
        service = VerificationService(
            memo_path=memo_path, max_workers=args.max_workers
        )
        host, port = await service.serve_tcp("127.0.0.1", 0)
        runner = asyncio.create_task(service.run_until_shutdown())
        async with ServiceClient(host, port) as submitter, ServiceClient(
            host, port
        ) as watcher:
            _check((await submitter.ping())["pong"], "service answers ping")
            job = (await submitter.submit(_SHOWCASE))["job"]
            progress = 0
            terminal: dict | None = None
            async for event in watcher.watch(job):
                if event["event"] == "progress":
                    progress += 1
                elif event["event"] == "done":
                    terminal = event
            _check(
                terminal is not None and bool(terminal["result"]),
                "cold run completed",
            )
            _check(
                progress >= 1,
                f"live subscriber streamed progress snapshots ({progress})",
            )
            cold = await submitter.result(job)
            _check(
                not cold["memo_hit"], "first submission ran the explorer"
            )
            warm = await submitter.submit(_SHOWCASE_RESPELLED, wait=True)
            _check(warm["memo_hit"], "respelled submission is a memo hit")
            _check(
                warm["violations_digest"] == cold["violations_digest"],
                "memo hit preserves the violations digest",
            )
            _check(
                warm["result"]["states_seen"]
                == cold["result"]["states_seen"],
                "memo hit preserves states_seen",
            )
            _check(
                warm["result"] == cold["result"],
                "memo hit is construction-identical",
            )
            violating = await submitter.submit(_VIOLATING, wait=True)
            _check(
                len(violating["result"]["violations"]) > 0,
                "total-order violation surfaced",
            )
            stats = await submitter.stats()
            _check(
                stats["explorations_run"] == 2,
                "two distinct configurations, exactly two explorations",
            )
            await submitter.shutdown()
        await runner
        _check(os.path.exists(memo_path), "shutdown persisted the memo")

        restarted = VerificationService(memo_path=memo_path)
        host, port = await restarted.serve_tcp("127.0.0.1", 0)
        async with ServiceClient(host, port) as client:
            rewarm = await client.submit(_SHOWCASE, wait=True)
            _check(
                rewarm["memo_hit"],
                "warm restart answers from the persisted memo",
            )
            _check(
                rewarm["violations_digest"] == cold["violations_digest"],
                "restart preserves digests across interpreter state",
            )
        await restarted.shutdown()

        # -- checkpoint round-trip: SIGTERM mid-job, warm resume -------
        ckpt_dir = os.path.join(tmp, "ckpt")
        ckpt_memo = os.path.join(tmp, "memo-ckpt.json")
        serve_argv = [
            sys.executable, "-m", "repro.server", "serve",
            "--port", "0", "--memo", ckpt_memo,
            "--checkpoint-dir", ckpt_dir, "--checkpoint-every", "25",
            "--max-workers", "1",
        ]
        proc = await asyncio.create_subprocess_exec(
            *serve_argv, stdout=asyncio.subprocess.PIPE
        )
        assert proc.stdout is not None
        banner = await asyncio.wait_for(proc.stdout.readline(), 60)
        port = int(banner.decode().strip().rsplit(":", 1)[1])
        async with ServiceClient("127.0.0.1", port) as client:
            job = (await client.submit(_LONG))["job"]
            progressed = 0
            async for event in client.watch(job):
                if event["event"] == "progress":
                    progressed += 1
                    if progressed >= 3:
                        break
                elif event["event"] not in ("running",):
                    break
        proc.send_signal(signal.SIGTERM)
        await asyncio.wait_for(proc.wait(), 60)
        _check(
            progressed >= 3 and bool(glob.glob(f"{ckpt_dir}/*.ckpt")),
            "SIGTERM left the interrupted search checkpointed on disk",
        )

        proc = await asyncio.create_subprocess_exec(
            *serve_argv, stdout=asyncio.subprocess.PIPE
        )
        assert proc.stdout is not None
        banner = await asyncio.wait_for(proc.stdout.readline(), 60)
        port = int(banner.decode().strip().rsplit(":", 1)[1])
        async with ServiceClient("127.0.0.1", port) as client:
            resumed = await asyncio.wait_for(
                client.submit(_LONG, wait=True), 120
            )
            _check(
                not resumed["memo_hit"]
                and resumed["state"] == "done"
                and not resumed["result"]["interrupted"],
                "restarted service completed the interrupted job warm",
            )
            await client.shutdown()
        await asyncio.wait_for(proc.wait(), 60)
        _check(
            not glob.glob(f"{ckpt_dir}/*.ckpt*"),
            "completion discarded the at-rest checkpoint",
        )

        reference_service = VerificationService()
        host, port = await reference_service.serve_tcp("127.0.0.1", 0)
        async with ServiceClient(host, port) as client:
            reference = await asyncio.wait_for(
                client.submit(_LONG, wait=True), 120
            )
        await reference_service.shutdown()
        invariant = (
            "schedules_explored", "terminal_schedules", "exhausted",
            "max_depth_seen", "states_seen", "expansions_by_depth",
            "violations",
        )
        _check(
            all(
                resumed["result"][name] == reference["result"][name]
                for name in invariant
            )
            and resumed["violations_digest"]
            == reference["violations_digest"],
            "resumed completion is construction-identical to a cold run",
        )

    store = MemoStore(max_entries=8, max_bytes=4096)
    for index in range(50):
        store.put(
            f"synthetic-{index}",
            {"payload": "x" * 64, "index": index},
            cost=float(index % 7),
        )
    _check(
        len(store) <= 8 and store.total_bytes() <= 4096,
        "eviction keeps the store within bounds under 50-entry load",
    )
    print("selfcheck: PASS", flush=True)
    return 0


# -- argument parsing ------------------------------------------------------


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7339)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Exploration-as-a-service for the broadcast explorer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the verification service")
    _add_endpoint(serve)
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one NDJSON session over stdin/stdout instead of TCP",
    )
    serve.add_argument(
        "--memo", default=None, help="memo persistence path (warm restarts)"
    )
    serve.add_argument("--max-workers", type=int, default=2)
    serve.add_argument("--batch-max", type=int, default=4)
    serve.add_argument("--small-cost", type=int, default=32)
    serve.add_argument("--max-entries", type=int, default=256)
    serve.add_argument("--max-bytes", type=int, default=16 << 20)
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for digest-keyed job checkpoints (warm restarts)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        help="node expansions between periodic checkpoints",
    )

    submit = sub.add_parser("submit", help="submit a job descriptor")
    _add_endpoint(submit)
    submit.add_argument(
        "descriptor", nargs="?", help="descriptor as inline JSON"
    )
    submit.add_argument("--file", help="descriptor as a JSON file")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--wait", action="store_true", help="block until terminal"
    )
    submit.add_argument(
        "--watch", action="store_true", help="stream events after submit"
    )

    watch = sub.add_parser("watch", help="stream a job's events")
    _add_endpoint(watch)
    watch.add_argument("job")

    for name, needs_job in (
        ("status", True),
        ("result", True),
        ("cancel", True),
        ("resume", True),
        ("jobs", False),
        ("stats", False),
        ("ping", False),
        ("shutdown", False),
    ):
        verb = sub.add_parser(name)
        _add_endpoint(verb)
        if needs_job:
            verb.add_argument("job")

    selfcheck = sub.add_parser(
        "selfcheck", help="in-process acceptance smoke (used by CI)"
    )
    selfcheck.add_argument("--max-workers", type=int, default=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        runner = _cmd_serve(args)
    elif args.command == "submit":
        if (args.descriptor is None) == (args.file is None):
            print(
                "submit needs exactly one of: inline JSON or --file",
                file=sys.stderr,
            )
            return 2
        runner = _cmd_submit(args)
    elif args.command == "watch":
        runner = _cmd_watch(args)
    elif args.command == "selfcheck":
        runner = _cmd_selfcheck(args)
    else:
        runner = _cmd_simple(args)
    try:
        return asyncio.run(runner)
    except _SelfcheckFailure as exc:
        print(f"FAIL - {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
