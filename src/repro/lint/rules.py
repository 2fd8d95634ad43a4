"""The repo-specific invariant rules.

Each rule protects a correctness property the test suite can only
spot-check (see ``docs/static_analysis.md`` for the full rationale):

* ``bare-randomness`` — SD/RHT shared-randomness decoding breaks if any
  encode-path randomness bypasses :mod:`repro.transforms.prng`.
* ``wall-clock-in-sim`` — the discrete-event simulator must never mix
  wall-clock time into sim-time.
* ``codec-contract`` — registered codecs must carry their registry
  identity and the encode/decode pair.
* ``float-eq`` — exact float comparison hides tolerance bugs in the
  numeric modules.
* ``mutable-default`` — shared mutable default arguments.
* ``print-call`` — library output goes through :mod:`logging`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .dataflow import ImportTracker, dotted_name
from .engine import Finding, Rule, SourceModule
from .flow_rules import FLOW_RULES

__all__ = [
    "ALL_RULES",
    "BareRandomnessRule",
    "CodecContractRule",
    "FloatEqRule",
    "ImportTracker",
    "MutableDefaultRule",
    "PrintCallRule",
    "WallClockInSimRule",
    "dotted_name",
    "rules_by_name",
]


#: Legacy global-state samplers of ``numpy.random`` (the module-level API).
_NUMPY_SAMPLERS: Set[str] = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "bytes", "choice", "shuffle", "permutation", "standard_normal",
    "normal", "uniform", "binomial", "poisson", "exponential", "beta",
    "gamma", "laplace", "lognormal", "get_state", "set_state", "RandomState",
}

#: Stdlib :mod:`random` functions (all draw from hidden global state).
_STDLIB_SAMPLERS: Set[str] = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
    "betavariate", "expovariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "randbytes",
}


class BareRandomnessRule(Rule):
    """Randomness in codec/transport/train paths must use prng streams."""

    name = "bare-randomness"
    description = (
        "no ad-hoc np.random.* / random.* / np.random.default_rng() in the "
        "shared-randomness code paths"
    )
    hint = (
        "draw from repro.transforms.prng (StreamKey(...).spawn() or "
        "shared_generator(...)) so sender and receiver regenerate the "
        "same stream"
    )
    scope = (
        "core/", "transforms/", "collectives/", "transport/", "train/",
        "faults/", "resilience/",
    )
    exempt = ("transforms/prng.py",)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        tracker = ImportTracker(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = tracker.resolve_call(node.func)
            if target is None:
                continue
            if target == "numpy.random.default_rng":
                yield self.finding(
                    module,
                    node,
                    "np.random.default_rng() bypasses the shared-randomness "
                    "stream registry",
                )
            elif target.startswith("numpy.random."):
                attr = target.rsplit(".", 1)[1]
                if attr in _NUMPY_SAMPLERS:
                    yield self.finding(
                        module, node, f"bare numpy.random.{attr}() draws from global state"
                    )
            elif target.startswith("random."):
                attr = target.rsplit(".", 1)[1]
                if attr in _STDLIB_SAMPLERS:
                    yield self.finding(
                        module, node, f"stdlib random.{attr}() draws from global state"
                    )


#: Wall-clock sources that must not leak into sim-time code.
_WALL_CLOCK_CALLS: Set[str] = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


class WallClockInSimRule(Rule):
    """Sim-time code must derive time from the event loop, never the host."""

    name = "wall-clock-in-sim"
    description = "no wall-clock reads (time.time()/monotonic()/datetime.now()) in sim-time code"
    hint = (
        "use Simulator.now / event timestamps; wall-clock spans belong in "
        "the repro.obs tracer's explicit capture points"
    )
    scope = ("net/", "transport/", "faults/", "resilience/")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        tracker = ImportTracker(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = tracker.resolve_call(node.func)
            if target in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node, f"{target}() reads the wall clock inside sim-time code"
                )


class CodecContractRule(Rule):
    """``@register_codec`` classes must carry identity + encode/decode."""

    name = "codec-contract"
    description = (
        "registered codec classes must declare literal name/codec_id and "
        "define the encode/decode pair"
    )
    hint = (
        "declare `name = \"...\"` and `codec_id = <int>` in the class body "
        "and implement both encode() and decode()"
    )
    scope = ("core/",)

    _REQUIRED_METHODS = ("encode", "decode")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(self._is_register_codec(deco) for deco in node.decorator_list):
                continue
            methods = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            attrs = self._class_constants(node)
            for method in self._REQUIRED_METHODS:
                if method not in methods:
                    yield self.finding(
                        module, node, f"registered codec {node.name} does not define {method}()"
                    )
            if not isinstance(attrs.get("name"), str):
                yield self.finding(
                    module,
                    node,
                    f"registered codec {node.name} must declare a literal `name` string",
                )
            if not isinstance(attrs.get("codec_id"), int) or isinstance(
                attrs.get("codec_id"), bool
            ):
                yield self.finding(
                    module,
                    node,
                    f"registered codec {node.name} must declare a literal integer `codec_id`",
                )

    @staticmethod
    def _is_register_codec(deco: ast.AST) -> bool:
        if isinstance(deco, ast.Call):
            deco = deco.func
        dotted = dotted_name(deco)
        return dotted is not None and dotted.split(".")[-1] == "register_codec"

    @staticmethod
    def _class_constants(node: ast.ClassDef) -> Dict[str, object]:
        constants: Dict[str, object] = {}
        for stmt in node.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not isinstance(value, ast.Constant):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = value.value
        return constants


class FloatEqRule(Rule):
    """Exact ``==``/``!=``/``is``/``is not`` against float literals."""

    name = "float-eq"
    description = "no ==/!=/is/is not comparison against float literals in numeric modules"
    hint = (
        "use np.isclose/math.isclose with an explicit tolerance, or an "
        "ordering test (<=/>=) for sentinel values; `is` additionally "
        "depends on interning and is never correct for floats"
    )
    scope = (
        "core/", "transforms/", "nn/", "baselines/", "collectives/",
        "train/", "bench/", "resilience/",
    )

    _SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not"}

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._is_float_literal(left) or self._is_float_literal(right):
                    symbol = self._SYMBOLS[type(op)]
                    kind = (
                        "identity" if isinstance(op, (ast.Is, ast.IsNot)) else "exact float"
                    )
                    yield self.finding(
                        module,
                        node,
                        f"{kind} comparison `{symbol}` against a float literal",
                    )

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)


class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls."""

    name = "mutable-default"
    description = "no mutable default arguments (list/dict/set literals or constructors)"
    hint = "default to None (or use dataclasses.field(default_factory=...)) and build inside"

    _MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray"}

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {node.name}() is shared across calls",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CONSTRUCTORS
        )


class PrintCallRule(Rule):
    """Library code logs; it does not print."""

    name = "print-call"
    description = "no print() in library code (PR 1 moved output to logging)"
    hint = "use logging.getLogger(__name__); CLI entry points write to sys.stdout explicitly"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(module, node, "print() call in library code")


#: Every shipped rule, in documentation order: the per-line invariant
#: checks first, then the flow-aware families from :mod:`.flow_rules`.
ALL_RULES: Tuple[Rule, ...] = (
    BareRandomnessRule(),
    WallClockInSimRule(),
    CodecContractRule(),
    FloatEqRule(),
    MutableDefaultRule(),
    PrintCallRule(),
) + FLOW_RULES


def rules_by_name() -> Dict[str, Rule]:
    """Name → rule instance for every shipped rule."""
    return {rule.name: rule for rule in ALL_RULES}
