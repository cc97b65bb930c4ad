"""Interprocedural effect inference over process-class handlers.

The analyzer walks the AST of a ``BroadcastProcess``/``ServiceProcess``
subclass and infers one :class:`~repro.statics.model.EffectSummary` per
step handler (``on_broadcast``, ``on_receive``, ``on_invoke``): instance
fields read and written (including mutations through aliases and helper
calls), messages emitted with their destination shape, k-SA proposals,
deliveries, and ``Wait`` suspension points.  Helper methods invoked as
``self._helper(...)`` or ``yield from self._helper(...)`` are resolved
and their effects inlined, to a fixpoint under (mutual) recursion.

The inference is deliberately conservative:

* a local bound to ``self.field`` (or to any expression that reads
  instance fields) is an *alias*; mutating through it writes every field
  the right-hand side read;
* a call to a module-level function forwarding an aliased value is
  assumed to potentially mutate it;
* constructs the pass cannot account for — dynamic attribute access on
  ``self``, calls to unresolvable methods, unrecognized effect
  expressions — do not guess: they leave an :class:`OpenReason` and the
  summary is *open* (:data:`~repro.statics.model.OPAQUE`);
* state shared beyond the instance — ``global`` declarations, mutation
  of module-level objects, use of class-level mutable attributes — is a
  *static race* between handlers (:data:`~repro.statics.model.RACE`),
  because it breaks the per-process isolation that pid-disjoint
  commutation relies on.

Two entry points: :func:`summarize_algorithm` works on a live class via
``inspect`` (walking the MRO, so inherited handlers and helpers
resolve); :func:`summarize_module` works on a bare parsed module (what
the lint rules see), resolving inheritance within the module and
treating the framework base-class helpers (``send_to_all`` …) as
intrinsics.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections import deque
from typing import Iterator, Mapping, Sequence

from .model import OPAQUE, RACE, AlgorithmSummary, EffectSummary, OpenReason

__all__ = [
    "HANDLER_NAMES",
    "summarize_algorithm",
    "summarize_classdef",
    "summarize_module",
]

#: The step-handler methods a summary covers, in report order.
HANDLER_NAMES = ("on_broadcast", "on_receive", "on_invoke")

#: Framework helpers (defined on the runtime base classes) with known
#: effects: value is the destination shape they emit, or ``None`` for a
#: pure read of ``pid``/``n``.
_INTRINSICS: Mapping[str, str | None] = {
    "send_to_all": "all",
    "others": None,
    "everyone": None,
    "symmetric_processes": None,
}

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Builtins whose results are fresh values (no aliasing of arguments'
#: mutable structure that the algorithms' hashable payloads could carry).
_PURE_BUILTINS = frozenset(
    {
        "abs",
        "all",
        "any",
        "bool",
        "dict",
        "divmod",
        "enumerate",
        "filter",
        "float",
        "frozenset",
        "int",
        "isinstance",
        "iter",
        "len",
        "list",
        "map",
        "max",
        "min",
        "next",
        "range",
        "repr",
        "reversed",
        "set",
        "sorted",
        "str",
        "sum",
        "tuple",
        "zip",
    }
)

#: Dynamic-access builtins that defeat inference when applied to ``self``.
_DYNAMIC_BUILTINS = frozenset(
    {"delattr", "eval", "exec", "getattr", "setattr", "vars"}
)

_EFFECT_NAMES = frozenset(
    {"Send", "Propose", "Deliver", "DeliverSet", "Wait", "LocalNote"}
)

#: Base-class name suffixes marking per-process algorithm classes (the
#: same heuristic the lint scoping uses).
_PROCESS_BASE_SUFFIXES = ("Process", "Broadcast", "Client")

_EMPTY: frozenset[str] = frozenset()


class _Acc:
    """Mutable accumulator for one method's (or case's) effects."""

    __slots__ = (
        "reads",
        "writes",
        "sends",
        "proposes",
        "delivers",
        "waits",
        "reasons",
    )

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.sends: set[str] = set()
        self.proposes = False
        self.delivers = False
        self.waits = False
        self.reasons: list[OpenReason] = []

    def merge(self, other: "_Acc") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.sends |= other.sends
        self.proposes = self.proposes or other.proposes
        self.delivers = self.delivers or other.delivers
        self.waits = self.waits or other.waits
        self.reasons.extend(other.reasons)

    def opaque(self, node: ast.AST, message: str) -> None:
        self.reasons.append(
            OpenReason(
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                OPAQUE,
                message,
            )
        )

    def race(self, node: ast.AST, message: str) -> None:
        self.reasons.append(
            OpenReason(
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                RACE,
                message,
            )
        )


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _mutation_target(node: ast.AST) -> tuple[str, str] | None:
    """Resolve what a mutation of ``node`` ultimately touches.

    Returns ``("attr", name)`` for instance state, ``("name", id)`` for
    a plain local/global name, ``None`` when the chain is unresolvable.
    Walks through subscripts and call chains so
    ``self._buf.setdefault(k, []).append(x)`` resolves to ``_buf``.
    """
    while True:
        if isinstance(node, ast.Attribute):
            if _is_self(node.value):
                return ("attr", node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return ("name", node.id)
        else:
            return None


class _ClassAnalysis:
    """Shared per-class inference state: method table and memoized accs."""

    def __init__(
        self,
        methods: Mapping[str, ast.FunctionDef],
        class_attrs: Mapping[str, int],
        super_methods: Mapping[str, ast.FunctionDef] | None = None,
    ) -> None:
        self.methods = dict(methods)
        #: Resolution table for ``super().m(...)`` — the method map of
        #: the base chain, before the most-derived class's overrides.
        self.super_methods = dict(super_methods or {})
        #: Class-body attributes bound to mutable literals → def line.
        self.class_attrs = dict(class_attrs)
        self._cache: dict[str, _Acc] = {}
        self._super_cache: dict[str, _Acc] = {}
        self._in_progress: set[str] = set()

    def super_acc(self, name: str) -> _Acc | None:
        """Effects of ``super().<name>(...)``, when the base is known."""
        if name not in self.super_methods:
            return None
        cached = self._super_cache.get(name)
        if cached is not None:
            return cached
        key = f"super.{name}"
        if key in self._in_progress:
            return _Acc()
        self._in_progress.add(key)
        try:
            acc = _Acc()
            fdef = self.super_methods[name]
            frame = _Frame(self, acc, fdef)
            frame.run(fdef.body)
        finally:
            self._in_progress.discard(key)
        self._super_cache[name] = acc
        return acc

    def method_acc(self, name: str) -> _Acc:
        """The accumulated effects of ``self.<name>(...)``, memoized.

        On (mutual) recursion the in-progress frame contributes an empty
        delta — sound, because effect sets are unions and the recursive
        body's own effects are already being collected once.
        """
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        if name in self._in_progress:
            return _Acc()
        self._in_progress.add(name)
        try:
            acc = _Acc()
            fdef = self.methods[name]
            frame = _Frame(self, acc, fdef)
            frame.run(fdef.body)
        finally:
            self._in_progress.discard(name)
        self._cache[name] = acc
        return acc


class _Frame:
    """One method body being analyzed: alias environment plus effects."""

    def __init__(
        self, analysis: _ClassAnalysis, acc: _Acc, fdef: ast.FunctionDef
    ) -> None:
        self.analysis = analysis
        self.acc = acc
        args = fdef.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        self.params = [n for n in names if n != "self"]
        #: ``sender`` parameter of ``on_receive``-shaped handlers, if any.
        self.sender_param = (
            self.params[1]
            if fdef.name == "on_receive" and len(self.params) >= 2
            else None
        )
        #: Local name → instance attrs its value may reach (aliases).
        self.aliases: dict[str, frozenset[str]] = {}
        #: Names bound in this scope (params and assignments).
        self.bound: set[str] = set(self.params)
        #: Loop variables ranging over a known destination shape.
        self.dest_shapes: dict[str, str] = {}

    # -- statements ------------------------------------------------------

    def run(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr):
            self.expr(node.value)
        elif isinstance(node, ast.Assign):
            alias = self.expr(node.value)
            for target in node.targets:
                self._bind(target, alias, node)
        elif isinstance(node, ast.AnnAssign):
            alias = self.expr(node.value) if node.value else _EMPTY
            self._bind(node.target, alias, node)
        elif isinstance(node, ast.AugAssign):
            self.expr(node.value)
            self._mutate(node.target, node)
            if isinstance(node.target, ast.Attribute) and _is_self(
                node.target.value
            ):
                self._read(node.target.attr)
        elif isinstance(node, ast.For):
            iter_alias = self.expr(node.iter)
            shape = self._loop_shape(node.iter)
            if shape is not None and isinstance(node.target, ast.Name):
                self.dest_shapes[node.target.id] = shape
            self._bind(node.target, iter_alias, node)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, ast.While):
            self.expr(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, ast.If):
            self.expr(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, ast.Try):
            self.run(node.body)
            for handler in node.handlers:
                self.run(handler.body)
            self.run(node.orelse)
            self.run(node.finalbody)
        elif isinstance(node, ast.With):
            for item in node.items:
                alias = self.expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, alias, node)
            self.run(node.body)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.expr(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.expr(child)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            self.acc.race(
                node,
                "handler reaches shared state through a "
                f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}"
                " declaration",
            )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._mutate(target, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function (e.g. a guard factory): analyze its body
            # in this frame — reads/mutations it performs are attributed
            # to the enclosing handler, which is the conservative call.
            self.bound.add(node.name)
            self.run(node.body)
        elif isinstance(node, ast.ClassDef):
            self.acc.opaque(node, "nested class definition defeats inference")
        # Pass/Break/Continue/Import…: no effect on the summary.

    # -- binding and mutation --------------------------------------------

    def _bind(
        self, target: ast.expr, alias: frozenset[str], node: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            self.bound.add(target.id)
            self.aliases[target.id] = alias
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(
                    elt.value if isinstance(elt, ast.Starred) else elt,
                    alias,
                    node,
                )
        elif isinstance(target, ast.Starred):
            self._bind(target.value, alias, node)
        else:
            # ``self.x = …`` / ``alias[k] = …`` / ``alias.f = …``
            self._mutate(target, node)

    def _mutate(self, target: ast.expr, node: ast.AST) -> None:
        """Record a write through ``target`` (assignment or method)."""
        # Visit subscript indices etc. for reads, without re-binding.
        for child in ast.walk(target):
            if (
                isinstance(child, ast.Attribute)
                and _is_self(child.value)
                and isinstance(child.ctx, ast.Load)
            ):
                self._read(child.attr)
        resolved = _mutation_target(target)
        if resolved is None:
            self.acc.opaque(
                node, "mutation through an unresolvable expression"
            )
            return
        kind, name = resolved
        if kind == "attr":
            self._write(name, node)
            return
        if name == "self":
            self.acc.opaque(node, "unresolvable mutation of self")
            return
        if name in self.bound:
            attrs = self.aliases.get(name, _EMPTY)
            for attr in attrs:
                self._write(attr, node)
            return
        self.acc.race(
            node,
            f"mutation of '{name}', which is not bound in this handler — "
            f"module-level state is shared across processes",
        )

    def _read(self, attr: str) -> None:
        self.acc.reads.add(attr)

    def _write(self, attr: str, node: ast.AST) -> None:
        self.acc.writes.add(attr)
        self.acc.reads.add(attr)

    # -- expressions -----------------------------------------------------

    def expr(self, node: ast.expr | None) -> frozenset[str]:
        """Record the node's effects; return the attrs its value aliases."""
        if node is None:
            return _EMPTY
        if isinstance(node, (ast.Yield,)):
            if node.value is not None:
                self._effect(node.value)
            return _EMPTY
        if isinstance(node, ast.YieldFrom):
            self._yield_from(node.value)
            return _EMPTY
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            if _is_self(node.value):
                if isinstance(node.ctx, ast.Load):
                    self._read(node.attr)
                return frozenset({node.attr})
            return self.expr(node.value)
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, _EMPTY)
        if isinstance(node, ast.Subscript):
            self.expr(node.slice)
            return self.expr(node.value)
        if isinstance(node, ast.IfExp):
            self.expr(node.test)
            return self.expr(node.body) | self.expr(node.orelse)
        if isinstance(node, ast.Lambda):
            self.expr(node.body)
            return _EMPTY
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            alias = _EMPTY
            for elt in node.elts:
                alias |= self.expr(elt)
            return alias
        if isinstance(node, ast.Dict):
            alias = _EMPTY
            for key in node.keys:
                if key is not None:
                    self.expr(key)
            for value in node.values:
                alias |= self.expr(value)
            return alias
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            alias = _EMPTY
            for comp in node.generators:
                alias |= self.expr(comp.iter)
                self._bind(comp.target, _EMPTY, ast.Pass())
                for cond in comp.ifs:
                    self.expr(cond)
            if isinstance(node, ast.DictComp):
                self.expr(node.key)
                alias |= self.expr(node.value)
            else:
                alias |= self.expr(node.elt)
            return alias
        if isinstance(node, ast.NamedExpr):
            alias = self.expr(node.value)
            self._bind(node.target, alias, ast.Pass())
            return alias
        if isinstance(node, ast.Starred):
            return self.expr(node.value)
        if isinstance(node, ast.BoolOp):
            alias = _EMPTY
            for value in node.values:
                alias |= self.expr(value)
            return alias
        if isinstance(node, ast.BinOp):
            return self.expr(node.left) | self.expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand)
        if isinstance(node, ast.Compare):
            self.expr(node.left)
            for comp in node.comparators:
                self.expr(comp)
            return _EMPTY
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self.expr(value)
            return _EMPTY
        if isinstance(node, ast.FormattedValue):
            self.expr(node.value)
            return _EMPTY
        if isinstance(node, ast.Slice):
            self.expr(node.lower)
            self.expr(node.upper)
            self.expr(node.step)
            return _EMPTY
        # Constants and anything valueless.
        return _EMPTY

    # -- calls -----------------------------------------------------------

    @staticmethod
    def _is_super_call(func: ast.expr) -> bool:
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        )

    def _super_method_call(self, node: ast.Call, name: str) -> frozenset[str]:
        self._visit_args(node)
        helper = self.analysis.super_acc(name)
        if helper is None:
            self.acc.opaque(
                node,
                f"call to super().{name}() with no analyzed base "
                f"definition",
            )
            return _EMPTY
        self.acc.merge(helper)
        return frozenset(helper.reads | helper.writes)

    def _call(self, node: ast.Call) -> frozenset[str]:
        func = node.func
        if isinstance(func, ast.Attribute) and _is_self(func.value):
            return self._self_method_call(node, func.attr)
        if self._is_super_call(func):
            assert isinstance(func, ast.Attribute)
            return self._super_method_call(node, func.attr)
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            self._mutate(func.value, node)
            self._visit_args(node)
            return _EMPTY
        if isinstance(func, ast.Name):
            return self._function_call(node, func.id)
        # Method call on a value: reads only; result may alias receiver.
        alias = self.expr(func) if not isinstance(func, ast.Name) else _EMPTY
        return alias | self._visit_args(node)

    def _self_method_call(self, node: ast.Call, name: str) -> frozenset[str]:
        self._visit_args(node)
        if name in self.analysis.methods:
            helper = self.analysis.method_acc(name)
            self.acc.merge(helper)
            return frozenset(helper.reads | helper.writes)
        intrinsic_sentinel = object()
        shape = _INTRINSICS.get(name, intrinsic_sentinel)
        if shape is not intrinsic_sentinel:
            if shape is not None:
                self.acc.sends.add(shape)
            return _EMPTY
        if name in _MUTATORS:
            self.acc.opaque(
                node, f"unresolvable mutation via self.{name}(...)"
            )
            return _EMPTY
        self.acc.opaque(
            node,
            f"call to self.{name}() which is not defined on this class "
            f"or its analyzed bases",
        )
        return _EMPTY

    def _function_call(self, node: ast.Call, name: str) -> frozenset[str]:
        if name in _DYNAMIC_BUILTINS:
            if any(_is_self(arg) for arg in node.args):
                self.acc.opaque(
                    node,
                    f"dynamic attribute access {name}(self, ...) defeats "
                    f"inference",
                )
            self._visit_args(node)
            return _EMPTY
        if name in _EFFECT_NAMES:
            # Effect constructed outside a yield: account it anyway (the
            # value is presumably yielded through a variable later, which
            # itself reports as opaque — this keeps the envelope honest).
            self._effect(node, constructed_only=True)
            return _EMPTY
        arg_alias = self._visit_args(node)
        if any(_is_self(arg) for arg in node.args):
            self.acc.opaque(
                node, f"self escapes into {name}(...): effects unknown"
            )
            return _EMPTY
        if name in _PURE_BUILTINS:
            return _EMPTY
        if name[:1].isupper():
            # Constructor by naming convention (Ballot, Invocation …):
            # builds a fresh value, does not mutate its arguments.
            return _EMPTY
        # Unknown module-level callable: assume it may mutate whatever
        # aliased state it received (conservative over-approximation).
        for attr in arg_alias:
            self._write(attr, node)
        return arg_alias

    def _visit_args(self, node: ast.Call) -> frozenset[str]:
        alias = _EMPTY
        for arg in node.args:
            if not _is_self(arg):
                alias |= self.expr(arg)
        for keyword in node.keywords:
            alias |= self.expr(keyword.value)
        return alias

    # -- effects ---------------------------------------------------------

    def _effect(
        self, node: ast.expr, *, constructed_only: bool = False
    ) -> None:
        """Classify one yielded (or constructed) effect expression."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        ):
            name = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else node.func.attr
            )
            if name == "Send":
                dest = node.args[0] if node.args else None
                for keyword in node.keywords:
                    if keyword.arg == "dest":
                        dest = keyword.value
                self.acc.sends.add(self._dest_shape(dest))
                self._visit_args(node)
                return
            if name == "Propose":
                self.acc.proposes = True
                self._visit_args(node)
                return
            if name in ("Deliver", "DeliverSet"):
                self.acc.delivers = True
                self._visit_args(node)
                return
            if name == "Wait":
                self.acc.waits = True
                self._visit_args(node)
                return
            if name == "LocalNote":
                self._visit_args(node)
                return
        if constructed_only:
            self.expr(node)
            return
        self.expr(node)
        self.acc.opaque(
            node,
            "yielded expression is not a recognizable effect constructor",
        )

    def _yield_from(self, node: ast.expr) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _is_self(node.func.value)
        ):
            self._self_method_call(node, node.func.attr)
            return
        if isinstance(node, ast.Call) and self._is_super_call(node.func):
            assert isinstance(node.func, ast.Attribute)
            self._super_method_call(node, node.func.attr)
            return
        self.expr(node)
        self.acc.opaque(
            node,
            "yield from a non-method iterator: emitted effects unknown",
        )

    # -- destination shapes ----------------------------------------------

    def _loop_shape(self, iterable: ast.expr) -> str | None:
        """The destination shape a loop over ``iterable`` ranges over."""
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and _is_self(iterable.func.value)
        ):
            if iterable.func.attr == "others":
                return "others"
            if iterable.func.attr == "everyone":
                return "all"
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range"
            and len(iterable.args) == 1
            and isinstance(iterable.args[0], ast.Attribute)
            and _is_self(iterable.args[0].value)
            and iterable.args[0].attr == "n"
        ):
            return "all"
        return None

    def _dest_shape(self, dest: ast.expr | None) -> str:
        if dest is None:
            return "dynamic"
        if isinstance(dest, ast.Constant) and isinstance(dest.value, int):
            return "constant"
        if isinstance(dest, ast.Attribute) and _is_self(dest.value):
            if dest.attr == "pid":
                return "self"
        if isinstance(dest, ast.Name):
            if dest.id == self.sender_param:
                return "sender"
            shape = self.dest_shapes.get(dest.id)
            if shape is not None:
                return shape
        return "dynamic"


# ---------------------------------------------------------------------------
# Class- and module-level assembly
# ---------------------------------------------------------------------------


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "list", "set", "defaultdict", "deque")
    return False


def _class_mutable_attrs(node: ast.ClassDef) -> dict[str, int]:
    """Class-body names bound to mutable literals → definition line."""
    attrs: dict[str, int] = {}
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                attrs[target.id] = stmt.lineno
    return attrs


#: Live values :func:`summarize_algorithm` treats as shared mutable
#: state when a class holds one (the types ``_is_mutable_literal``
#: builds; ``defaultdict`` is a ``dict``).
_MUTABLE_TYPES = (dict, list, set, deque)


def _live_mutable_attrs(klass: type, line: int) -> dict[str, int]:
    """Names in ``klass.__dict__`` bound to mutable containers → ``line``.

    Catches what a class body does not show: ``Cls.board = {}`` run
    after the class statement binds one object every instance shares.
    Dunder entries (``__annotations__``, ...) are the interpreter's.
    """
    return {
        name: line
        for name, value in vars(klass).items()
        if isinstance(value, _MUTABLE_TYPES)
        and not (name.startswith("__") and name.endswith("__"))
    }


def _case_split(
    fdef: ast.FunctionDef,
) -> tuple[list[ast.stmt], list[tuple[str, list[ast.stmt]]], list[ast.stmt]]:
    """Split a tag-dispatching handler body into (prelude, cases, suffix).

    Recognizes the two payload-dispatch idioms the algorithms use —
    ``kind, … = payload`` tuple unpacking and ``kind = payload[0]`` —
    followed by a top-level ``if kind == "TAG": … elif …`` chain over
    string constants.  Returns no cases when the pattern is absent.
    """
    params = [a.arg for a in fdef.args.args if a.arg != "self"]
    if not params:
        return [], [], []
    payload = params[0]
    tag: str | None = None
    body = fdef.body
    for stmt in body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if (
            isinstance(target, ast.Tuple)
            and target.elts
            and isinstance(target.elts[0], ast.Name)
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id == payload
        ):
            tag = target.elts[0].id
            break
        if (
            isinstance(target, ast.Name)
            and isinstance(stmt.value, ast.Subscript)
            and isinstance(stmt.value.value, ast.Name)
            and stmt.value.value.id == payload
            and isinstance(stmt.value.slice, ast.Constant)
            and stmt.value.slice.value == 0
        ):
            tag = target.id
            break
    if tag is None:
        return [], [], []

    def _tag_test(test: ast.expr) -> str | None:
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == tag
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.comparators[0], ast.Constant)
            and isinstance(test.comparators[0].value, str)
        ):
            return str(test.comparators[0].value)
        return None

    for index, stmt in enumerate(body):
        if not isinstance(stmt, ast.If) or _tag_test(stmt.test) is None:
            continue
        prelude = list(body[:index])
        suffix = list(body[index + 1:])
        cases: list[tuple[str, list[ast.stmt]]] = []
        chain: ast.stmt = stmt
        while isinstance(chain, ast.If):
            label = _tag_test(chain.test)
            if label is None:
                return [], [], []  # mixed chain: no refinement
            cases.append((label, chain.body))
            if len(chain.orelse) == 1 and isinstance(chain.orelse[0], ast.If):
                chain = chain.orelse[0]
            elif chain.orelse:
                cases.append(("*", chain.orelse))
                break
            else:
                break
        if len(cases) >= 2:
            return prelude, cases, suffix
        return [], [], []
    return [], [], []


def _acc_to_summary(
    name: str, acc: _Acc, cases: tuple[tuple[str, EffectSummary], ...] = ()
) -> EffectSummary:
    return EffectSummary(
        handler=name,
        reads=frozenset(acc.reads),
        writes=frozenset(acc.writes),
        sends=frozenset(acc.sends),
        proposes=acc.proposes,
        delivers=acc.delivers,
        waits=acc.waits,
        open_reasons=tuple(sorted(set(acc.reasons))),
        cases=cases,
    )


def _summarize(
    qualname: str,
    kind: str,
    methods: Mapping[str, ast.FunctionDef],
    class_attrs: Mapping[str, int],
    super_methods: Mapping[str, ast.FunctionDef] | None = None,
) -> AlgorithmSummary:
    analysis = _ClassAnalysis(methods, class_attrs, super_methods)
    instance_attrs: frozenset[str] = frozenset()
    if "__init__" in methods:
        instance_attrs = frozenset(analysis.method_acc("__init__").writes)
    shared = {
        attr: line
        for attr, line in class_attrs.items()
        if attr not in instance_attrs
    }
    handlers: list[tuple[str, EffectSummary]] = []
    for handler_name in HANDLER_NAMES:
        if handler_name not in methods:
            continue
        fdef = methods[handler_name]
        acc = analysis.method_acc(handler_name)
        for attr in sorted((acc.reads | acc.writes) & set(shared)):
            acc.race(
                fdef,
                f"handler touches class-level mutable attribute "
                f"'{attr}' (defined at line {shared[attr]}), shared "
                f"across process instances",
            )
        cases: tuple[tuple[str, EffectSummary], ...] = ()
        if handler_name == "on_receive" and not acc.reasons:
            prelude, case_bodies, suffix = _case_split(fdef)
            case_summaries: list[tuple[str, EffectSummary]] = []
            for label, case_body in case_bodies:
                case_acc = _Acc()
                frame = _Frame(analysis, case_acc, fdef)
                frame.run(prelude)
                frame.run(case_body)
                frame.run(suffix)
                case_summaries.append(
                    (label, _acc_to_summary(handler_name, case_acc))
                )
            cases = tuple(sorted(case_summaries))
        handlers.append((handler_name, _acc_to_summary(handler_name, acc, cases)))
    return AlgorithmSummary(
        qualname=qualname, kind=kind, handlers=tuple(handlers)
    )


def _looks_like_process_base(name: str | None) -> bool:
    return name is not None and name.endswith(_PROCESS_BASE_SUFFIXES)


def _base_names(node: ast.ClassDef) -> list[str]:
    """The tail name of every base: ``module.Class`` → ``Class``."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


def summarize_classdef(
    node: ast.ClassDef,
    *,
    qualname: str | None = None,
    inherited: Mapping[str, ast.FunctionDef] | None = None,
    inherited_attrs: Mapping[str, int] | None = None,
) -> AlgorithmSummary:
    """Summarize one parsed class, optionally with inherited methods."""
    super_methods: dict[str, ast.FunctionDef] = dict(inherited or {})
    methods: dict[str, ast.FunctionDef] = dict(super_methods)
    class_attrs: dict[str, int] = dict(inherited_attrs or {})
    class_attrs.update(_class_mutable_attrs(node))
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            methods[stmt.name] = stmt
    kind = "service" if "on_invoke" in methods else "broadcast"
    return _summarize(
        qualname or node.name, kind, methods, class_attrs, super_methods
    )


def iter_process_classdefs(
    tree: ast.Module,
) -> Iterator[tuple[ast.ClassDef, dict[str, ast.FunctionDef], dict[str, int]]]:
    """Module-level process classes with in-module inheritance resolved.

    Yields ``(classdef, inherited methods, inherited class attrs)`` for
    every class that (transitively) extends a process-shaped base — by
    the same name-suffix heuristic the lint scoping uses — resolving
    method inheritance through base classes defined in the same module.
    """
    classes = {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    }

    def is_process(name: str, seen: frozenset[str]) -> bool:
        node = classes.get(name)
        if node is None or name in seen:
            return False
        for base in _base_names(node):
            if _looks_like_process_base(base):
                return True
            if is_process(base, seen | {name}):
                return True
        return False

    def collect(
        name: str,
    ) -> tuple[dict[str, ast.FunctionDef], dict[str, int]]:
        node = classes.get(name)
        if node is None:
            return {}, {}
        methods: dict[str, ast.FunctionDef] = {}
        attrs: dict[str, int] = {}
        for base in _base_names(node):
            base_methods, base_attrs = collect(base)
            methods.update(base_methods)
            attrs.update(base_attrs)
        attrs.update(_class_mutable_attrs(node))
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                methods[stmt.name] = stmt
        return methods, attrs

    for name in classes:
        if not is_process(name, frozenset()):
            continue
        node = classes[name]
        inherited_methods: dict[str, ast.FunctionDef] = {}
        inherited_attrs: dict[str, int] = {}
        for base in _base_names(node):
            base_methods, base_attrs = collect(base)
            inherited_methods.update(base_methods)
            inherited_attrs.update(base_attrs)
        own = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        if not own and not inherited_methods:
            continue
        yield node, inherited_methods, inherited_attrs


def summarize_module(tree: ast.Module) -> list[AlgorithmSummary]:
    """Summaries for every process class defined in a parsed module.

    Classes that define (or inherit, within the module) no step handler
    at all are skipped — an abstract shell carries no effects to prove.
    """
    summaries = []
    for node, inherited, inherited_attrs in iter_process_classdefs(tree):
        summary = summarize_classdef(
            node, inherited=inherited, inherited_attrs=inherited_attrs
        )
        if summary.handlers:
            summaries.append(summary)
    return summaries


def summarize_algorithm(cls: type) -> AlgorithmSummary:
    """Summarize a live process class, resolving handlers over its MRO.

    Framework base classes (anything under ``repro.runtime``) contribute
    intrinsics only; every other ancestor's source is parsed so
    inherited handlers and helpers resolve interprocedurally.  Class
    attributes are read from the source *and* from each ancestor's live
    ``__dict__``, so a mutable container bound after the class body
    (``Cls.board = {}``) is shared state too.  Raises
    ``OSError``/``TypeError`` when a class's source is unavailable
    (dynamically built classes) — callers wanting best-effort behavior
    catch those.
    """
    methods: dict[str, ast.FunctionDef] = {}
    super_methods: dict[str, ast.FunctionDef] = {}
    class_attrs: dict[str, int] = {}
    for klass in reversed(cls.__mro__):
        module = getattr(klass, "__module__", "") or ""
        if klass is object or module.startswith("repro.runtime"):
            continue
        if module == "abc":
            continue
        source = textwrap.dedent(inspect.getsource(klass))
        tree = ast.parse(source)
        node = tree.body[0]
        if not isinstance(node, ast.ClassDef):  # pragma: no cover
            raise TypeError(f"source of {klass!r} does not start at a class")
        if klass is not cls:
            # ``super().m(...)`` in the most-derived class resolves to
            # the base chain's view of ``m``.
            super_methods.update(
                {
                    stmt.name: stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                }
            )
        class_attrs.update(_live_mutable_attrs(klass, node.lineno))
        class_attrs.update(_class_mutable_attrs(node))
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                methods[stmt.name] = stmt
    kind = "service" if hasattr(cls, "on_invoke") else "broadcast"
    return _summarize(
        cls.__qualname__, kind, methods, class_attrs, super_methods
    )
