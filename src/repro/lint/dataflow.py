"""Flow-aware dataflow layer for the lint rules.

PR 2's rules are per-line AST matchers: they flag a bad *call site* but
are blind to the value once it is bound to a name.  The bugs that
motivated them, though, were propagation bugs — an ad-hoc generator
created in ``__init__`` and consumed three methods later, a byte count
compared against a bit count two assignments downstream.  This module
adds the missing layer: a small forward abstract interpreter over one
function (or the module top level) at a time.

No CFG is built.  Statements are interpreted in source order; both arms
of a branch are walked against a copy of the incoming environment and
the outgoing environments are joined, and loop bodies are walked twice
so loop-carried facts reach their first use.  That is deliberately
coarse — the lattice only ever *gains* facts, so the result is sound in
the direction lint cares about (no fact is forgotten on a path that
could have produced it) at the cost of some spurious joins.

Three analyses share the walker:

* :class:`TaintFlow` — tracks :class:`Taint` labels (nondeterminism:
  bare randomness, wall-clock reads, set-iteration order, string
  ``hash()``) through assignments, attributes, and call results, with
  the ``repro.transforms.prng`` entry points acting as sanitizers.
* :class:`UnitFlow` — classifies expressions as **bits** or **bytes**
  from identifier suffixes and known APIs (``wire_size``,
  ``packed_size``) and tracks the unit through ``* 8`` / ``// 8``
  conversions and local variables.
* :class:`PacketStateFlow` — typestate for :class:`repro.packet.Packet`
  locals: build → ``seal()`` → send, with trim and mutation legality
  depending on the current state.

Cross-method flows through ``self`` are approximated by a per-class
pre-pass (:func:`class_attribute_taints`): any taint ever assigned to
``self.<attr>`` in *any* method of a class seeds ``self.<attr>`` in
every method of that class.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ImportTracker",
    "Taint",
    "TaintFlow",
    "UnitFlow",
    "PacketStateFlow",
    "FlowScope",
    "iter_flow_scopes",
    "class_attribute_taints",
    "dotted_name",
    "BITS",
    "BYTES",
    "ST_BUILT",
    "ST_BUILT_EMPTY",
    "ST_SEALED",
    "ST_UNKNOWN",
]


@dataclass(frozen=True)
class Taint:
    """One nondeterminism label attached to a value.

    Attributes:
        kind: ``"randomness"``, ``"wall-clock"``, ``"iter-order"``,
            ``"hash-order"`` — or the internal marker ``"set-value"``
            (a set-typed value whose *iteration* would be unordered).
        source: human description of the origin (``"np.random.rand()"``).
        line: 1-based line where the taint entered.
    """

    kind: str
    source: str
    line: int


TaintSet = FrozenSet[Taint]
EMPTY_TAINTS: TaintSet = frozenset()

#: Units for :class:`UnitFlow`.
BITS = "bits"
BYTES = "bytes"

#: Packet typestates for :class:`PacketStateFlow`.
ST_BUILT = "built"  # constructed with a payload, not yet sealed
ST_BUILT_EMPTY = "built-empty"  # constructed without a payload (control packets)
ST_SEALED = "sealed"
ST_UNKNOWN = "unknown"


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportTracker:
    """What local names refer to numpy / random / time / datetime.

    AST-only alias resolution: ``import numpy as np`` makes ``np`` a
    numpy alias, ``from numpy import random as npr`` makes ``npr`` a
    ``numpy.random`` alias, ``from time import time as clock`` binds
    ``clock`` to ``time.time``, and so on.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}  # local name -> module dotted path
        self.member_aliases: Dict[str, str] = {}  # local name -> module.member path
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.member_aliases[local] = f"{node.module}.{alias.name}"

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Canonical dotted path of a called name, through import aliases.

        ``np.random.rand`` → ``numpy.random.rand`` (given ``import numpy
        as np``); a bare ``randint`` imported from :mod:`random` →
        ``random.randint``.  Returns None for calls it cannot resolve.
        """
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.member_aliases:
            base = self.member_aliases[head]
            return f"{base}.{rest}" if rest else base
        if head in self.module_aliases:
            base = self.module_aliases[head]
            return f"{base}.{rest}" if rest else base
        return dotted


@dataclass
class FlowScope:
    """One analyzable scope: a function body or the module top level.

    Attributes:
        name: qualified display name (``ClassName.method`` for methods).
        body: the statements, in source order.
        node: the owning AST node (FunctionDef or Module).
        class_name: enclosing class name for methods, else None.
        args: parameter names (empty for the module scope).
    """

    name: str
    body: Sequence[ast.stmt]
    node: ast.AST
    class_name: Optional[str] = None
    args: Tuple[str, ...] = ()


def _function_args(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> Tuple[str, ...]:
    names = [a.arg for a in node.args.posonlyargs]
    names += [a.arg for a in node.args.args]
    if node.args.vararg is not None:
        names.append(node.args.vararg.arg)
    names += [a.arg for a in node.args.kwonlyargs]
    if node.args.kwarg is not None:
        names.append(node.args.kwarg.arg)
    return tuple(names)


def iter_flow_scopes(tree: ast.Module) -> Iterator[FlowScope]:
    """Yield the module scope and every function/method scope.

    Nested functions are yielded as their own scopes (with a dotted
    display name); class bodies are not scopes themselves — only the
    methods inside them are.
    """
    yield FlowScope(name="<module>", body=tree.body, node=tree)

    def walk(
        stmts: Sequence[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> Iterator[FlowScope]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                yield FlowScope(
                    name=qual,
                    body=stmt.body,
                    node=stmt,
                    class_name=class_name,
                    args=_function_args(stmt),
                )
                yield from walk(stmt.body, f"{qual}.", None)
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body, f"{stmt.name}.", stmt.name)

    yield from walk(tree.body, "", None)


class _ForwardWalker:
    """Shared statement dispatch for the forward analyses.

    Subclasses implement :meth:`eval_expr` (expression → abstract value),
    :meth:`join_values`, and :meth:`handle_call` (called for every Call
    node with the environment *at that program point* — this is where
    rules check sinks).  The environment maps names — plain locals and
    ``self.attr`` dotted keys — to abstract values.
    """

    def eval_expr(self, expr: ast.expr, env: Dict[str, object]) -> object:
        raise NotImplementedError

    def join_values(self, a: object, b: object) -> object:
        raise NotImplementedError

    def handle_call(self, call: ast.Call, env: Dict[str, object]) -> None:
        """Sink hook; default does nothing."""

    def handle_attribute_store(
        self, target: ast.Attribute, value: object, env: Dict[str, object]
    ) -> None:
        """Hook for ``obj.attr = value`` stores; default does nothing."""

    # -- environment helpers ---------------------------------------------------

    def assign(self, target: ast.expr, value: object, env: Dict[str, object]) -> None:
        """Bind ``value`` to an assignment target (names, tuples, attributes)."""
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                env[dotted] = value
            self.handle_attribute_store(target, value, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self.assign(inner, value, env)
        elif isinstance(target, ast.Subscript):
            # Writing into a container taints/updates the container itself.
            base = target.value
            dotted = dotted_name(base)
            if dotted is not None and dotted in env:
                env[dotted] = self.join_values(env[dotted], value)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, env)

    def join_env(self, into: Dict[str, object], other: Dict[str, object]) -> None:
        for key, value in other.items():
            if key in into:
                into[key] = self.join_values(into[key], value)
            else:
                into[key] = value

    # -- statement dispatch ----------------------------------------------------

    def walk(self, stmts: Sequence[ast.stmt], env: Dict[str, object]) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt, env)

    def walk_stmt(self, stmt: ast.stmt, env: Dict[str, object]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value, env)
            for target in stmt.targets:
                self.assign(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval_expr(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval_expr(stmt.value, env)
            existing = self.eval_expr(stmt.target, env)
            self.assign(stmt.target, self.join_values(existing, value), env)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self.eval_expr(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self.eval_expr(stmt.test, env)
            then_env = dict(env)
            self.walk(stmt.body, then_env)
            else_env = dict(env)
            self.walk(stmt.orelse, else_env)
            env.clear()
            env.update(then_env)
            self.join_env(env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.handle_for(stmt, env)
        elif isinstance(stmt, ast.While):
            self.eval_expr(stmt.test, env)
            # Two passes so loop-carried facts reach their first use.
            body_env = dict(env)
            self.walk(stmt.body, body_env)
            self.walk(stmt.body, body_env)
            self.join_env(env, body_env)
            self.walk(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval_expr(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value, env)
            self.walk(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body, env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self.walk(handler.body, handler_env)
                self.join_env(env, handler_env)
            self.walk(stmt.orelse, env)
            self.walk(stmt.finalbody, env)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                dotted = dotted_name(target)
                if dotted is not None:
                    env.pop(dotted, None)
        # FunctionDef / ClassDef / Import / Global / Pass fall through:
        # nested definitions are separate scopes.

    def handle_for(self, stmt: "ast.For | ast.AsyncFor", env: Dict[str, object]) -> None:
        value = self.eval_expr(stmt.iter, env)
        self.assign(stmt.target, self.iterated_value(value, stmt.iter), env)
        body_env = dict(env)
        self.walk(stmt.body, body_env)
        # Second pass: loop-carried facts.
        self.assign(stmt.target, self.iterated_value(value, stmt.iter), body_env)
        self.walk(stmt.body, body_env)
        self.join_env(env, body_env)
        self.walk(stmt.orelse, env)

    def iterated_value(self, value: object, iter_expr: ast.expr) -> object:
        """Abstract value of one element of ``value``; default: the value."""
        return value


# ---------------------------------------------------------------------------
# Taint analysis


#: numpy.random module-level samplers (hidden global state) — mirrors the
#: ``bare-randomness`` rule's table.
_NUMPY_SAMPLERS: Set[str] = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "bytes", "choice", "shuffle", "permutation", "standard_normal",
    "normal", "uniform", "binomial", "poisson", "exponential", "beta",
    "gamma", "laplace", "lognormal", "get_state", "set_state", "RandomState",
}

_STDLIB_SAMPLERS: Set[str] = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
    "betavariate", "expovariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "randbytes",
}

_WALL_CLOCK_CALLS: Set[str] = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Calls whose *result* is sanctioned shared randomness: values drawn from
#: these generators are reproducible on both ends by construction.
_SANITIZER_CALLS: Set[str] = {
    "shared_generator",
    "derive_seed",
    "repro.transforms.prng.shared_generator",
    "repro.transforms.prng.derive_seed",
}

#: Builtins whose result depends only on their (clean) inputs but which
#: would otherwise inherit a ``set-value`` marker from an argument.
_ORDER_SANITIZERS: Set[str] = {"sorted", "len", "sum", "min", "max", "frozenset"}


class TaintFlow(_ForwardWalker):
    """Propagates :class:`Taint` labels through one scope.

    ``on_call`` (when set) fires for every call site with the environment
    at that point — the taint rule uses it to test sink arguments via
    :meth:`eval_expr`.  ``on_attribute_store`` fires for attribute
    stores (codec-state sinks).
    """

    def __init__(
        self,
        resolve_call: Callable[[ast.AST], Optional[str]],
        initial: Optional[Dict[str, TaintSet]] = None,
    ) -> None:
        self.resolve_call = resolve_call
        self.initial: Dict[str, TaintSet] = dict(initial or {})
        self.on_call: Optional[Callable[[ast.Call, Dict[str, object]], None]] = None
        self.on_attribute_store: Optional[
            Callable[[ast.Attribute, TaintSet, Dict[str, object]], None]
        ] = None

    def run(self, scope: FlowScope) -> Dict[str, object]:
        env: Dict[str, object] = dict(self.initial)
        self.walk(scope.body, env)
        return env

    # -- lattice ---------------------------------------------------------------

    def join_values(self, a: object, b: object) -> object:
        return self._as_taints(a) | self._as_taints(b)

    @staticmethod
    def _as_taints(value: object) -> TaintSet:
        return value if isinstance(value, frozenset) else EMPTY_TAINTS

    # -- sources ---------------------------------------------------------------

    def call_taints(self, call: ast.Call, env: Dict[str, object]) -> TaintSet:
        """Taints of a call result: sources seed, sanitizers clear."""
        resolved = self.resolve_call(call.func)
        line = call.lineno
        if resolved is not None:
            if resolved in _SANITIZER_CALLS or resolved.endswith(".spawn"):
                return EMPTY_TAINTS
            if resolved == "numpy.random.default_rng":
                return frozenset(
                    {Taint("randomness", "np.random.default_rng()", line)}
                )
            if resolved.startswith("numpy.random."):
                attr = resolved.rsplit(".", 1)[1]
                if attr in _NUMPY_SAMPLERS:
                    return frozenset(
                        {Taint("randomness", f"np.random.{attr}()", line)}
                    )
            head, _, attr = resolved.rpartition(".")
            if head == "random" and attr in _STDLIB_SAMPLERS:
                return frozenset({Taint("randomness", f"random.{attr}()", line)})
            if resolved in _WALL_CLOCK_CALLS:
                return frozenset({Taint("wall-clock", f"{resolved}()", line)})
            if resolved == "os.urandom":
                return frozenset({Taint("randomness", "os.urandom()", line)})
            if resolved in ("uuid.uuid1", "uuid.uuid4"):
                return frozenset({Taint("randomness", f"{resolved}()", line)})
            if resolved == "hash":
                return frozenset(
                    {Taint("hash-order", "hash() (PYTHONHASHSEED-dependent)", line)}
                )
            if resolved in ("set",):
                inherited = self._args_taints(call, env)
                return inherited | frozenset({Taint("set-value", "set(...)", line)})
            if resolved in _ORDER_SANITIZERS:
                # Deterministic reductions: drop the set-value marker but
                # keep genuine taints flowing through.
                inherited = self._args_taints(call, env)
                return frozenset(t for t in inherited if t.kind != "set-value")
        # Unresolved / ordinary call: the result inherits its inputs' taints
        # (a function of a random value is still random).
        return self._args_taints(call, env)

    def _args_taints(self, call: ast.Call, env: Dict[str, object]) -> TaintSet:
        taints = self._as_taints(self.eval_expr(call.func, env))
        for arg in call.args:
            inner = arg.value if isinstance(arg, ast.Starred) else arg
            taints |= self._as_taints(self.eval_expr(inner, env))
        for keyword in call.keywords:
            taints |= self._as_taints(self.eval_expr(keyword.value, env))
        return taints

    # -- expressions -----------------------------------------------------------

    def eval_expr(self, expr: ast.expr, env: Dict[str, object]) -> object:
        if isinstance(expr, ast.Name):
            return self._as_taints(env.get(expr.id))
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted is not None and dotted in env:
                return self._as_taints(env[dotted])
            # An attribute of a tainted object is tainted (rng.normal is
            # a bound method of a tainted generator, iter order of a
            # tainted dict's .keys(), ...).
            return self._as_taints(self.eval_expr(expr.value, env))
        if isinstance(expr, ast.Call):
            # Evaluate sub-expressions first so the sink hook sees them.
            result = self.call_taints(expr, env)
            if self.on_call is not None:
                self.on_call(expr, env)
            return result
        if isinstance(expr, ast.Set):
            taints = self._children_taints(expr, env)
            return taints | frozenset(
                {Taint("set-value", "set literal", expr.lineno)}
            )
        if isinstance(expr, ast.SetComp):
            taints = self._children_taints(expr, env)
            return taints | frozenset(
                {Taint("set-value", "set comprehension", expr.lineno)}
            )
        if isinstance(expr, ast.Lambda):
            return EMPTY_TAINTS  # separate scope; not propagated here
        if isinstance(expr, ast.Constant):
            return EMPTY_TAINTS
        if isinstance(expr, ast.NamedExpr):
            value = self.eval_expr(expr.value, env)
            self.assign(expr.target, value, env)
            return value
        return self._children_taints(expr, env)

    def _children_taints(self, expr: ast.expr, env: Dict[str, object]) -> TaintSet:
        taints = EMPTY_TAINTS
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taints |= self._as_taints(self.eval_expr(child, env))
            elif isinstance(child, ast.comprehension):
                taints |= self._as_taints(self.eval_expr(child.iter, env))
        return taints

    # -- hooks -----------------------------------------------------------------

    def handle_attribute_store(
        self, target: ast.Attribute, value: object, env: Dict[str, object]
    ) -> None:
        if self.on_attribute_store is not None:
            self.on_attribute_store(target, self._as_taints(value), env)

    def iterated_value(self, value: object, iter_expr: ast.expr) -> object:
        taints = self._as_taints(value)
        if any(t.kind == "set-value" for t in taints):
            marker = Taint(
                "iter-order",
                "iteration over a set (order varies with PYTHONHASHSEED)",
                iter_expr.lineno,
            )
            taints = frozenset(t for t in taints if t.kind != "set-value") | {marker}
        return taints


def class_attribute_taints(
    tree: ast.Module, resolve_call: Callable[[ast.AST], Optional[str]]
) -> Dict[str, Dict[str, TaintSet]]:
    """Per-class: taints ever assigned to ``self.<attr>`` in any method.

    This is the cross-method approximation: a generator created in
    ``__init__`` (``self._rng = np.random.default_rng()``) taints
    ``self._rng`` in every other method of the class.
    """
    result: Dict[str, Dict[str, TaintSet]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs: Dict[str, TaintSet] = {}

        def record(target: ast.Attribute, value: TaintSet, env: Dict[str, object]) -> None:
            dotted = dotted_name(target)
            if dotted is not None and dotted.startswith("self."):
                real = frozenset(t for t in value if t.kind != "set-value")
                if real:
                    attrs[dotted] = attrs.get(dotted, EMPTY_TAINTS) | real

        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                flow = TaintFlow(resolve_call)
                flow.on_attribute_store = record
                flow.run(
                    FlowScope(
                        name=stmt.name,
                        body=stmt.body,
                        node=stmt,
                        class_name=node.name,
                        args=_function_args(stmt),
                    )
                )
        if attrs:
            result[node.name] = attrs
    return result


# ---------------------------------------------------------------------------
# Bits / bytes unit analysis


#: Identifier names with a fixed unit regardless of suffix.
_BYTES_NAMES: Set[str] = {
    "wire_size", "wire_bytes", "mtu", "payload_max", "trimmable_bytes",
}
_BITS_NAMES: Set[str] = {"width", "keep_bits"}

#: Call results with a known unit.
_CALL_UNITS: Dict[str, str] = {
    "packed_size": BYTES,
    "trimmable_bytes": BYTES,
}

#: ``len()`` is bytes only for byte-buffer-ish arguments.
_LEN_BYTES_ARGS: Set[str] = {"payload", "buf", "buffer", "data", "blob", "raw"}


def unit_of_identifier(name: str) -> Optional[str]:
    """Unit promised by an identifier's name, or None."""
    lowered = name.lower()
    if lowered in _BYTES_NAMES:
        return BYTES
    if lowered in _BITS_NAMES:
        return BITS
    if lowered.endswith("_bytes") or lowered == "bytes":
        return BYTES
    if lowered.endswith("_bits") or lowered == "bits":
        return BITS
    return None


class UnitFlow(_ForwardWalker):
    """Tracks the bits/bytes unit of expressions and locals.

    The abstract value is ``BITS``, ``BYTES`` or ``None`` (unknown /
    dimensionless).  ``on_mismatch`` fires with (node, left_unit,
    right_unit, context) whenever two different known units meet in an
    add/sub/compare, or a declared-unit name is assigned a value of the
    other unit.
    """

    def __init__(self, resolve_call: Callable[[ast.AST], Optional[str]]) -> None:
        self.resolve_call = resolve_call
        self.on_mismatch: Optional[Callable[[ast.AST, str, str, str], None]] = None

    def run(self, scope: FlowScope) -> Dict[str, object]:
        env: Dict[str, object] = {}
        for arg in scope.args:
            unit = unit_of_identifier(arg)
            if unit is not None:
                env[arg] = unit
        self.walk(scope.body, env)
        return env

    # -- lattice ---------------------------------------------------------------

    def join_values(self, a: object, b: object) -> object:
        return a if a == b else None

    def _mismatch(self, node: ast.AST, left: str, right: str, context: str) -> None:
        if self.on_mismatch is not None:
            self.on_mismatch(node, left, right, context)

    # -- assignment check ------------------------------------------------------

    def assign(self, target: ast.expr, value: object, env: Dict[str, object]) -> None:
        declared: Optional[str] = None
        if isinstance(target, ast.Name):
            declared = unit_of_identifier(target.id)
        elif isinstance(target, ast.Attribute):
            declared = unit_of_identifier(target.attr)
        if (
            declared is not None
            and isinstance(value, str)
            and value in (BITS, BYTES)
            and value != declared
        ):
            self._mismatch(target, declared, value, "assignment")
            # The declaration wins: downstream reads use the name's unit.
            value = declared
        super().assign(target, value if value in (BITS, BYTES) else declared, env)

    # -- expressions -----------------------------------------------------------

    def eval_expr(self, expr: ast.expr, env: Dict[str, object]) -> object:
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            return unit_of_identifier(expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted is not None and dotted in env:
                return env[dotted]
            return unit_of_identifier(expr.attr)
        if isinstance(expr, ast.Subscript):
            # level_bits[i] is one element of a bits-named sequence.
            self.eval_expr(expr.slice, env)
            return self.eval_expr(expr.value, env)
        if isinstance(expr, ast.UnaryOp):
            return self.eval_expr(expr.operand, env)
        if isinstance(expr, ast.BinOp):
            return self._binop_unit(expr, env)
        if isinstance(expr, ast.Compare):
            self._compare_units(expr, env)
            return None
        if isinstance(expr, ast.Call):
            return self._call_unit(expr, env)
        if isinstance(expr, ast.IfExp):
            self.eval_expr(expr.test, env)
            then = self.eval_expr(expr.body, env)
            other = self.eval_expr(expr.orelse, env)
            return self.join_values(then, other)
        if isinstance(expr, ast.NamedExpr):
            value = self.eval_expr(expr.value, env)
            self.assign(expr.target, value, env)
            return value
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.eval_expr(child, env)
        return None

    @staticmethod
    def _is_eight(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Constant) and expr.value == 8

    def _binop_unit(self, expr: ast.BinOp, env: Dict[str, object]) -> Optional[str]:
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        op = expr.op
        if isinstance(op, ast.Mult):
            # bytes * 8 -> bits (either operand order).
            if left == BYTES and self._is_eight(expr.right):
                return BITS
            if right == BYTES and self._is_eight(expr.left):
                return BITS
            # count * bits -> bits, etc.: keep whichever unit is known.
            if left in (BITS, BYTES) and right is None:
                return str(left)
            if right in (BITS, BYTES) and left is None:
                return str(right)
            return None
        if isinstance(op, (ast.FloorDiv, ast.Div)):
            if left == BITS and self._is_eight(expr.right):
                return BYTES
            if left in (BITS, BYTES) and right is None:
                return str(left)
            return None
        if isinstance(op, ast.Mod):
            return str(left) if left in (BITS, BYTES) else None
        if isinstance(op, (ast.Add, ast.Sub)):
            if (
                left in (BITS, BYTES)
                and right in (BITS, BYTES)
                and left != right
            ):
                self._mismatch(expr, str(left), str(right), "arithmetic")
                return None
            if left in (BITS, BYTES):
                return str(left)
            if right in (BITS, BYTES):
                return str(right)
            return None
        return None

    def _compare_units(self, expr: ast.Compare, env: Dict[str, object]) -> None:
        operands = [expr.left, *expr.comparators]
        units = [self.eval_expr(operand, env) for operand in operands]
        for index, op in enumerate(expr.ops):
            if isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)):
                continue
            left, right = units[index], units[index + 1]
            if (
                left in (BITS, BYTES)
                and right in (BITS, BYTES)
                and left != right
            ):
                self._mismatch(expr, str(left), str(right), "comparison")

    def _call_unit(self, expr: ast.Call, env: Dict[str, object]) -> Optional[str]:
        resolved = self.resolve_call(expr.func)
        tail = resolved.rsplit(".", 1)[-1] if resolved else None
        arg_units = [
            self.eval_expr(a.value if isinstance(a, ast.Starred) else a, env)
            for a in expr.args
        ]
        for keyword in expr.keywords:
            self.eval_expr(keyword.value, env)
        if tail in ("min", "max"):
            known = {u for u in arg_units if u in (BITS, BYTES)}
            if len(known) > 1:
                self._mismatch(expr, BITS, BYTES, f"{tail}() arguments")
                return None
            if len(known) == 1 and all(u is not None for u in arg_units):
                return str(next(iter(known)))
            return None
        if tail == "len":
            if expr.args:
                target = expr.args[0]
                name = None
                if isinstance(target, ast.Attribute):
                    name = target.attr
                elif isinstance(target, ast.Name):
                    name = target.id
                if name is not None and name.lower() in _LEN_BYTES_ARGS:
                    return BYTES
            return None
        if tail is not None and tail in _CALL_UNITS:
            return _CALL_UNITS[tail]
        return None


# ---------------------------------------------------------------------------
# Packet typestate


@dataclass(frozen=True)
class StateEvent:
    """One typestate violation observed during the walk."""

    node: ast.AST
    kind: str  # "trim-after-seal" | "double-seal" | "mutate-after-seal"
    #           | "send-unsealed" | "verify-unused"
    detail: str


_PACKET_MUTABLE_ATTRS: Set[str] = {"payload", "int_ext"}
_SEND_METHODS: Set[str] = {"send"}


class PacketStateFlow(_ForwardWalker):
    """Typestate for Packet locals: build → seal() → send.

    Only packets *constructed in the scope under analysis* get a state;
    parameters and attribute loads are ``unknown`` (a switch legitimately
    trims a sealed packet it received — the sealed-trim prohibition is a
    sender-side rule, and the sender is where the constructor is).
    """

    def __init__(self, resolve_call: Callable[[ast.AST], Optional[str]]) -> None:
        self.resolve_call = resolve_call
        self.events: List[StateEvent] = []

    def run(self, scope: FlowScope) -> List[StateEvent]:
        self.events = []
        env: Dict[str, object] = {}
        self.walk(scope.body, env)
        return self.events

    # -- lattice ---------------------------------------------------------------

    def join_values(self, a: object, b: object) -> object:
        return a if a == b else ST_UNKNOWN

    def _event(self, node: ast.AST, kind: str, detail: str) -> None:
        self.events.append(StateEvent(node=node, kind=kind, detail=detail))

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _state_of(value: object) -> Optional[str]:
        return value if value in (ST_BUILT, ST_BUILT_EMPTY, ST_SEALED) else None

    def _packet_constructor_state(self, call: ast.Call) -> Optional[str]:
        resolved = self.resolve_call(call.func)
        if resolved is None or resolved.rsplit(".", 1)[-1] != "Packet":
            return None
        for keyword in call.keywords:
            if keyword.arg == "payload":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value in (b"", ""):
                    return ST_BUILT_EMPTY
                return ST_BUILT
        return ST_BUILT_EMPTY

    def _receiver_name(self, call: ast.Call) -> Optional[str]:
        """Dotted name of ``x`` in ``x.method(...)``, else None."""
        if isinstance(call.func, ast.Attribute):
            return dotted_name(call.func.value)
        return None

    # -- expressions -----------------------------------------------------------

    def eval_expr(self, expr: ast.expr, env: Dict[str, object]) -> object:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted is not None:
                return env.get(dotted)
            self.eval_expr(expr.value, env)
            return None
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.NamedExpr):
            value = self.eval_expr(expr.value, env)
            self.assign(expr.target, value, env)
            return value
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.eval_expr(child, env)
        return None

    def _eval_call(self, call: ast.Call, env: Dict[str, object]) -> object:
        built = self._packet_constructor_state(call)
        if built is not None:
            for keyword in call.keywords:
                self.eval_expr(keyword.value, env)
            for arg in call.args:
                self.eval_expr(arg, env)
            return built

        method: Optional[str] = None
        receiver: Optional[str] = None
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            receiver = self._receiver_name(call)
        resolved = self.resolve_call(call.func)
        state = self._state_of(env.get(receiver)) if receiver is not None else None

        if method == "seal" and receiver is not None:
            if state == ST_SEALED:
                self._event(
                    call, "double-seal", f"{receiver}.seal() called on an already-sealed packet"
                )
            if state is not None or receiver in env:
                env[receiver] = ST_SEALED
            return ST_SEALED if state is not None else None
        if method == "trim" and receiver is not None and not call.args:
            if state == ST_SEALED:
                self._event(
                    call,
                    "trim-after-seal",
                    f"{receiver}.trim() on a packet already sealed in this scope",
                )
            return state
        if resolved is not None and resolved.rsplit(".", 1)[-1] == "trim_to_bits":
            if call.args:
                target = call.args[0]
                dotted = dotted_name(target)
                if dotted is not None and self._state_of(env.get(dotted)) == ST_SEALED:
                    self._event(
                        call,
                        "trim-after-seal",
                        f"trim_to_bits({dotted}, ...) on a packet already sealed "
                        "in this scope",
                    )
                for arg in call.args[1:]:
                    self.eval_expr(arg, env)
                return self._state_of(env.get(dotted)) if dotted is not None else None
        if method == "clone" and receiver is not None:
            return state
        if method == "verify" and receiver is not None:
            return None
        if method in _SEND_METHODS:
            for arg in call.args:
                dotted = dotted_name(arg)
                if dotted is not None:
                    arg_state = self._state_of(env.get(dotted))
                    if arg_state == ST_BUILT:
                        self._event(
                            call,
                            "send-unsealed",
                            f"{dotted} carries a payload but is sent without seal()",
                        )
                    elif arg_state is None:
                        self.eval_expr(arg, env)
                else:
                    self.eval_expr(arg, env)
            for keyword in call.keywords:
                self.eval_expr(keyword.value, env)
            return None

        for arg in call.args:
            inner = arg.value if isinstance(arg, ast.Starred) else arg
            self.eval_expr(inner, env)
        for keyword in call.keywords:
            self.eval_expr(keyword.value, env)
        self.eval_expr(call.func, env)
        return None

    # -- statements ------------------------------------------------------------

    def walk_stmt(self, stmt: ast.stmt, env: Dict[str, object]) -> None:
        # A bare `pkt.verify()` statement discards the corruption verdict.
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "verify"
                and not call.args
                and not call.keywords
            ):
                receiver = self._receiver_name(call)
                self._event(
                    call,
                    "verify-unused",
                    f"result of {receiver or '...'}.verify() is discarded — corrupted "
                    "payloads go undetected",
                )
        super().walk_stmt(stmt, env)

    def handle_attribute_store(
        self, target: ast.Attribute, value: object, env: Dict[str, object]
    ) -> None:
        if target.attr in _PACKET_MUTABLE_ATTRS:
            base = dotted_name(target.value)
            if base is not None and self._state_of(env.get(base)) == ST_SEALED:
                self._event(
                    target,
                    "mutate-after-seal",
                    f"{base}.{target.attr} assigned after seal() — the checksum "
                    "no longer covers the payload",
                )
