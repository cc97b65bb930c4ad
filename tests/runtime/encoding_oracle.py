"""The ordered ``isinstance`` chain: the canonical encoder's oracle.

:func:`repro.runtime.fingerprint.encoding` dispatches on a value's exact
type and reuses the cached encodings of messages and identities; the
encoder below walks every value through one ordered chain of
``isinstance`` tests and encodes it from scratch, with no tables and no
caches.  The two must agree byte for byte on every value: digests are
cache keys, pinned in tests and persisted in checkpoints and memo
stores, so a single differing byte splits them.
"""

from __future__ import annotations

import dataclasses
from typing import Any

_CLOSE = b")" + (0).to_bytes(8, "big")


def _put(buf: bytearray, tag: bytes, payload: bytes) -> None:
    buf += tag
    buf += len(payload).to_bytes(8, "big")
    buf += payload


def _sorted_encodings(items: Any) -> bytes:
    parts = []
    for item in items:
        part = bytearray()
        encode_into(part, item)
        parts.append(bytes(part))
    parts.sort()
    return b"".join(parts)


def encode_into(buf: bytearray, value: Any) -> None:
    """Append ``value``'s canonical encoding to ``buf``."""
    if value is None:
        _put(buf, b"N", b"")
    elif isinstance(value, bool):
        _put(buf, b"B", b"1" if value else b"0")
    elif isinstance(value, int):
        _put(buf, b"i", str(value).encode())
    elif isinstance(value, float):
        _put(buf, b"f", repr(value).encode())
    elif isinstance(value, str):
        _put(buf, b"s", value.encode())
    elif isinstance(value, bytes):
        _put(buf, b"y", value)
    elif isinstance(value, tuple):
        _put(buf, b"(", str(len(value)).encode())
        for item in value:
            encode_into(buf, item)
        buf += _CLOSE
    elif isinstance(value, list):
        _put(buf, b"l", str(len(value)).encode())
        for item in value:
            encode_into(buf, item)
        buf += _CLOSE
    elif isinstance(value, (set, frozenset)):
        _put(buf, b"{", _sorted_encodings(value))
    elif isinstance(value, dict):
        _put(buf, b"m", _sorted_encodings(value.items()))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _put(buf, b"D", type(value).__qualname__.encode())
        for field in dataclasses.fields(value):
            encode_into(buf, getattr(value, field.name))
        _put(buf, b"d", b"")
    else:
        _put(
            buf,
            b"r",
            type(value).__qualname__.encode() + b":" + repr(value).encode(),
        )


def encoding(*values: Any) -> bytes:
    """The concatenated canonical encodings of ``values``."""
    buf = bytearray()
    for value in values:
        encode_into(buf, value)
    return bytes(buf)


def canonical_image(
    permutation, value: Any, tokens: dict | None = None
) -> Any:
    """The canonical image of ``value`` under ``permutation``, by the chain.

    The image of ``value`` with structural pids mapped through
    ``permutation`` and every other leaf replaced by a token numbered
    by first appearance.  ``tokens`` is the table of tokens drawn so
    far, updated in place: the images of a state's components share
    one, so a content keeps its token across components.
    """
    from repro.core.actions import PointToPointId
    from repro.core.message import Message, MessageId

    if tokens is None:
        tokens = {}

    def image(value: Any) -> Any:
        if isinstance(value, Message):
            return ("M", image(value.uid), image(value.content))
        if isinstance(value, MessageId):
            return ("U", permutation[value.sender], value.seq)
        if isinstance(value, PointToPointId):
            return (
                "P",
                permutation[value.sender],
                permutation[value.receiver],
                value.seq,
            )
        if isinstance(value, (tuple, list)):
            return tuple(image(item) for item in value)
        if isinstance(value, (set, frozenset)):
            images = [image(item) for item in sorted(value, key=encoding)]
            return ("S", tuple(sorted(encoding(i) for i in images)))
        if isinstance(value, dict):
            images = [
                (image(k), image(v))
                for k, v in sorted(value.items(), key=encoding)
            ]
            return ("D", tuple(sorted(encoding(i) for i in images)))
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return (
                "C",
                type(value).__qualname__,
                tuple(
                    image(getattr(value, field.name))
                    for field in dataclasses.fields(value)
                ),
            )
        if value not in tokens:
            tokens[value] = len(tokens)
        return ("~", tokens[value])

    return image(value)
