"""Outside-in layer tracing for the end-to-end benchmark.

:class:`Tracer` installs timing wrappers on the public entry points of
the library's layers — module functions and class methods, listed in
:data:`LAYER_TARGETS` — without editing the library: each wrapper is put
in place with ``setattr`` and :meth:`Tracer.uninstall` puts the original
back, so an untraced run executes the library unchanged.

Every wrapped call is a span.  A span stack gives each layer its *self
time*: the span's duration minus the part of it that child spans cover.
Per-layer totals (calls, total seconds, self seconds) accumulate on the
fly; the raw spans go into a capped buffer that :meth:`Tracer.dump`
writes when the run ends.  A target that does not exist (a renamed or
deleted entry point) is recorded in :attr:`Tracer.absent` and skipped —
the run goes on without that layer.

The span stack assumes that all traced calls happen on one thread.  That
holds for the workloads: explorations run on the main thread, and the
verification service answers requests on its event-loop thread (calls
made inside forked job workers are not collected).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time
from typing import Any, Callable, Iterator

#: ``(module, attribute path, layer)``: the entry points wrapped at trace
#: time.  :class:`~repro.runtime.explorer.PropertyTracker` and its
#: subclasses are added by :meth:`Tracer.install` (``property.*``).
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.runtime.simulator", "SimulationRun.advance", "simulator.advance"),
    ("repro.runtime.simulator", "SimulationRun.choices", "simulator.choices"),
    ("repro.runtime.simulator", "SimulationRun.fork", "simulator.fork"),
    ("repro.runtime.simulator", "SimulationRun.result", "simulator.result"),
    ("repro.runtime.simulator", "SimulationRun.fingerprint", "fingerprint.state"),
    ("repro.runtime.simulator", "SimulationRun.orbit_key", "fingerprint.orbit"),
    ("repro.runtime.explorer", "classify", "independence.classify"),
    ("repro.runtime.explorer", "write_checkpoint", "checkpoint.write"),
    ("repro.runtime.explorer", "read_checkpoint", "checkpoint.read"),
    ("repro.server.descriptor", "JobDescriptor.from_json", "server.descriptor"),
    ("repro.server.jobs", "job_digest", "server.digest"),
    ("repro.server.memo", "MemoStore.get", "server.memo.get"),
    ("repro.server.memo", "MemoStore.put", "server.memo.put"),
    ("repro.server.jobs", "JobManager.submit", "server.jobs.submit"),
)

#: PropertyTracker methods traced on the class and every subclass that
#: defines its own version.
PROPERTY_METHODS = ("observe", "fork", "at_terminal")

#: Raw spans kept for :meth:`Tracer.dump`; later spans only feed totals.
SPAN_CAP = 50_000


class Tracer:
    """Span-stack tracer: per-layer calls, total and self time.

    ``clock`` returns seconds (``time.perf_counter`` by default; tests
    pass a fake one to check the arithmetic).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer → ``[calls, total_s, self_s]``
        self.totals: dict[str, list] = {}
        #: extra per-layer counters, e.g. ``checkpoint.write.bytes``
        self.counters: dict[str, int] = {}
        #: ``module:attribute`` of every target that could not be wrapped
        self.absent: list[str] = []
        #: ``(span id, parent id, layer, start, end)``, at most ``SPAN_CAP``
        self.spans: list[tuple[int, int, str, float, float]] = []
        # one ``[child seconds, span id]`` frame per open span
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self) -> tuple[list, float]:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame, self.clock()

    def _exit(self, layer: str, frame: list, start: float) -> None:
        end = self.clock()
        duration = end - start
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += duration
        totals = self.totals.get(layer)
        if totals is None:
            totals = self.totals[layer] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[1], 0 if parent is None else parent[1], layer, start, end)
            )

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span opened by the benchmark itself around a library call."""
        frame, start = self._enter()
        try:
            yield
        finally:
            self._exit(layer, frame, start)

    def wrap(
        self,
        fn: Callable,
        layer: str,
        after: Callable[[tuple], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as a ``layer`` span on every call.

        ``after`` runs with the call's positional arguments once the
        span is closed, so its own cost lands on the caller's span.
        """
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame, start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(layer, frame, start)
                if after is not None:
                    after(args)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -----------------------------------------------------

    def patch(
        self,
        module: str,
        attribute: str,
        layer: str,
        after: Callable[[tuple], None] | None = None,
    ) -> bool:
        """Wrap ``module.attribute`` (``Class.method`` allowed).

        Returns False, recording the target in :attr:`absent`, when the
        module, class or attribute does not exist.
        """
        try:
            owner: Any = importlib.import_module(module)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}:{attribute}")
            return False
        self._replace(owner, name, raw, layer, after)
        return True

    def _replace(self, owner: Any, name: str, raw: Any, layer: str,
                 after: Callable[[tuple], None] | None) -> None:
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(raw.__func__, layer, after))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, layer, after))
        else:
            new = self.wrap(raw, layer, after)
        # an inherited method is shadowed on ``owner``; uninstall deletes
        # the shadow instead of copying the base's version down
        inherited = inspect.isclass(owner) and name not in owner.__dict__
        self._patches.append((owner, name, None if inherited else raw))
        setattr(owner, name, new)

    def install(self) -> "Tracer":
        """Wrap every layer target; returns ``self``."""
        for module, attribute, layer in LAYER_TARGETS:
            after = self._count_bytes if layer == "checkpoint.write" else None
            self.patch(module, attribute, layer, after)
        try:
            from repro.runtime.explorer import PropertyTracker
        except ImportError:
            self.absent.append("repro.runtime.explorer:PropertyTracker")
            return self
        for cls in _class_tree(PropertyTracker):
            for method in PROPERTY_METHODS:
                if method in cls.__dict__:
                    self._replace(
                        cls, method, cls.__dict__[method],
                        f"property.{method}", None,
                    )
        return self

    def uninstall(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _count_bytes(self, args: tuple) -> None:
        """After a checkpoint write: add the file's size."""
        if args:
            with contextlib.suppress(OSError):
                self.counters["checkpoint.write.bytes"] = (
                    self.counters.get("checkpoint.write.bytes", 0)
                    + os.path.getsize(args[0])
                )

    # -- results ----------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.totals.get(layer, [0, 0.0, 0.0])[0]

    def self_seconds(self, layer: str) -> float:
        return self.totals.get(layer, [0, 0.0, 0.0])[2]

    def dump(self, path: str) -> None:
        """Write totals, counters, absent targets and the raw spans."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "totals": {
                        layer: {"calls": c, "total_s": t, "self_s": s}
                        for layer, (c, t, s) in sorted(self.totals.items())
                    },
                    "counters": self.counters,
                    "absent": self.absent,
                    "span_cap": SPAN_CAP,
                    "spans": [
                        {"id": i, "parent": p, "layer": layer,
                         "start": start, "end": end}
                        for i, p, layer, start, end in self.spans
                    ],
                },
                handle,
            )


def _class_tree(cls: type) -> list[type]:
    """``cls`` and all of its loaded subclasses, parents first."""
    seen: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop(0)
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen
