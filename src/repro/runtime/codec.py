"""One JSON codec for dataclasses, driven by their fields.

:func:`encode` and :func:`decode` follow each field's resolved type:
scalars pass out as they are and are coerced on the way in, tuples and
lists become JSON lists (a bare ``tuple`` holds JSON scalars), a
``frozenset`` becomes a list sorted by the ``repr`` of each encoded
member, ``X | None`` is ``null`` or the form of ``X``,
maps with ``int`` or ``str`` keys become objects with sorted string
keys, and a nested dataclass nests.  Keys follow field order.  Field
metadata set by :func:`coded` says whether a missing key is an error
naming the field (``required``; always so for a field without a
default) or takes the default, and how :func:`absorb` merges the field
(``merge``: :data:`SUM`, per key for maps, :data:`MAX`, :data:`ALL`, or
not at all).  Each class's plan is built once.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from typing import Any

__all__ = ["ALL", "MAX", "SUM", "absorb", "coded", "decode", "encode"]

SUM, MAX, ALL = "sum", "max", "all"


def coded(
    default: Any = dataclasses.MISSING,
    *,
    factory: Any = dataclasses.MISSING,
    required: bool = False,
    merge: str | None = None,
) -> Any:
    """A dataclass field with codec metadata (see the module docstring)."""
    if merge not in (None, SUM, MAX, ALL):
        raise ValueError(f"unknown merge {merge!r}")
    metadata = {"required": required, "merge": merge}
    return dataclasses.field(
        default=default, default_factory=factory, metadata=metadata
    )


@functools.cache
def _converters(hint: Any) -> tuple[Any, Any]:
    """(encoder, decoder) for a type; a ``None`` encoder is the identity."""
    if hint in (int, bool, str, float):
        return None, hint
    if hint is tuple:
        return list, tuple
    if dataclasses.is_dataclass(hint):
        return encode, functools.partial(decode, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec = _converters(inner)
        return (
            enc and (lambda v: None if v is None else enc(v)),
            lambda v: None if v is None else dec(v),
        )
    if origin is tuple and args[-1] is not Ellipsis:
        parts = [_converters(arg) for arg in args]
        return (
            lambda v: [e(x) if e else x for (e, _), x in zip(parts, v)],
            lambda v: tuple(d(x) for (_, d), x in zip(parts, v, strict=True)),
        )
    if origin is frozenset:
        enc, dec = _converters(args[0])
        return (
            lambda v: sorted((enc(x) if enc else x for x in v), key=repr),
            lambda v: frozenset(dec(x) for x in v),
        )
    if origin in (tuple, list):
        enc, dec = _converters(args[0])
        return (
            (lambda v: [enc(x) for x in v]) if enc else list,
            lambda v: origin(dec(x) for x in v),
        )
    if origin in (dict, Mapping) and args[0] in (int, str):
        key, (enc, dec) = args[0], _converters(args[1])
        return (
            lambda m: {
                str(k): enc(v) if enc else v for k, v in sorted(m.items())
            },
            lambda m: {key(k): dec(v) for k, v in m.items()},
        )
    raise TypeError(f"no JSON form for {hint!r}")


@functools.cache
def _plan(cls: type) -> tuple[tuple, tuple, tuple]:
    """Per field: ``(name, encoder)``, ``(name, decoder, required)``, and
    ``(name, merge)`` tuples, each in field order."""
    hints = typing.get_type_hints(cls)
    encoders, decoders, merges = [], [], []
    for f in dataclasses.fields(cls):
        required = f.metadata.get("required") or (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        enc, dec = _converters(hints[f.name])
        encoders.append((f.name, enc))
        decoders.append((f.name, dec, required))
        merges.append((f.name, f.metadata.get("merge")))
    return tuple(encoders), tuple(decoders), tuple(merges)


def encode(obj: Any) -> dict:
    """The JSON-compatible dict of a dataclass instance."""
    return {
        name: enc(getattr(obj, name)) if enc else getattr(obj, name)
        for name, enc in _plan(type(obj))[0]
    }


def decode(cls: type, data: Mapping) -> Any:
    """Rebuild a ``cls`` instance from its :func:`encode` dict."""
    kwargs = {}
    for name, dec, required in _plan(cls)[1]:
        if name in data:
            kwargs[name] = dec(data[name])
        elif required:
            raise ValueError(
                f"{cls.__name__} payload is missing required field {name!r}"
            )
    return cls(**kwargs)


def absorb(out: Any, sub: Any) -> None:
    """Fold ``sub``'s fields into ``out``'s, each by its ``merge``."""
    for name, merge in _plan(type(out))[2]:
        mine, theirs = getattr(out, name), getattr(sub, name)
        if merge == SUM and isinstance(mine, dict):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        elif merge == SUM:
            setattr(out, name, mine + theirs)
        elif merge == MAX:
            setattr(out, name, max(mine, theirs))
        elif merge == ALL:
            setattr(out, name, mine and theirs)
