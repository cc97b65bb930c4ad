"""NDJSON framing for the verification service.

Every message — request, reply, or streamed event — is one JSON object
per line, UTF-8, ``\\n``-terminated.  The framing is symmetric: the
client and server use the same two coroutines over asyncio streams.

Requests carry an ``op`` field (``ping`` / ``submit`` / ``status`` /
``result`` / ``watch`` / ``cancel`` / ``resume`` / ``jobs`` /
``stats`` / ``shutdown``) and may carry a client-chosen ``id``, which
the service echoes on every message it emits for that request.
Replies carry ``ok`` (with ``error`` when false); ``watch``
additionally streams ``{"op": "event", ...}`` lines until the job's
terminal event.
"""

from __future__ import annotations

import asyncio
import json

__all__ = [
    "MAX_LINE",
    "ProtocolError",
    "encode_message",
    "read_message",
    "write_message",
]

#: Upper bound on one NDJSON line (shields both ends from runaway
#: frames; also passed as the StreamReader limit).
MAX_LINE = 8 << 20


class ProtocolError(ValueError):
    """A frame that is not one well-formed JSON object per line."""


def encode_message(message: dict) -> bytes:
    """``message`` as one compact, newline-terminated JSON line."""
    line = json.dumps(message, separators=(",", ":"), sort_keys=True)
    return line.encode("utf-8") + b"\n"


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """The next message on ``reader``, or ``None`` at a clean EOF."""
    try:
        line = await reader.readline()
    except ValueError as exc:  # StreamReader limit overrun
        raise ProtocolError(f"frame exceeds {MAX_LINE} bytes") from exc
    if not line:
        return None
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        message = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


async def write_message(
    writer: asyncio.StreamWriter, message: dict
) -> None:
    """Send one message and drain the transport."""
    writer.write(encode_message(message))
    await writer.drain()
