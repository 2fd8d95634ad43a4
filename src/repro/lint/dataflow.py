"""Flow-aware dataflow layer for the ``nondeterminism-taint`` rule.

A per-line AST matcher flags a bad *call site* but is blind to the
value once it is bound to a name.  The bugs this rule is for are
propagation bugs — an ad-hoc generator created in ``__init__`` and
consumed three methods later, a ``hash()`` that becomes a flow id.
This module is a small forward abstract interpreter over one function
(or the module top level) at a time.

No CFG is built.  Statements are interpreted in source order; both arms
of a branch are walked against a copy of the incoming environment and
the outgoing environments are joined, and loop bodies are walked twice
so loop-carried facts reach their first use.  That is deliberately
coarse — the lattice only ever *gains* facts, so the result is sound in
the direction lint cares about (no fact is forgotten on a path that
could have produced it) at the cost of some spurious joins.

:class:`TaintFlow` tracks :class:`Taint` labels (nondeterminism: bare
randomness, wall-clock reads, set-iteration order, string ``hash()``)
through assignments, attributes, and call results, with the
``repro.transforms.prng`` entry points acting as sanitizers.

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
    "FlowScope",
    "iter_flow_scopes",
    "class_attribute_taints",
    "dotted_name",
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


# ---------------------------------------------------------------------------
# Taint analysis


#: numpy.random module-level samplers (hidden global state).
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


class TaintFlow:
    """Propagates :class:`Taint` labels through one scope.

    ``on_call`` (when set) fires for every call site with the environment
    at that point — the taint rule uses it to test sink arguments via
    :meth:`eval_expr`.  ``on_attribute_store`` fires for attribute
    stores (codec-state sinks).  The environment maps names — plain
    locals and ``self.attr`` dotted keys — to taint sets.
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
