"""The flow-aware rule families, built on :mod:`repro.lint.dataflow`.

Four families, each protecting an invariant the per-line rules cannot
see because the violation is *propagated* rather than syntactic:

* ``nondeterminism-taint`` — a value originating from bare randomness,
  a wall-clock read, set-iteration order, or ``hash()`` reaches the
  simulator's event loop, codec state, or a packet payload without
  passing through :mod:`repro.transforms.prng`.
* ``packet-typestate`` — the Packet lifecycle (build → ``seal()`` →
  send → ``verify()``): trimming after seal, double-seal, post-seal
  payload/INT-band mutation, sending a payload-carrying packet
  unsealed, and discarding the ``verify()`` verdict.
* ``bits-bytes`` — mixed-unit arithmetic or comparison between
  bit-denominated and byte-denominated quantities without an explicit
  ``* 8`` / ``// 8`` conversion.
* ``sim-callback-write`` — an event-loop callback writes module-level
  shared state: fine single-threaded today, a data race the moment the
  ROADMAP's multi-core workers land.

See ``docs/static_analysis.md`` for the full rationale and examples.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .dataflow import (
    ImportTracker,
    PacketStateFlow,
    Taint,
    TaintFlow,
    UnitFlow,
    class_attribute_taints,
    dotted_name,
    iter_flow_scopes,
)
from .engine import Finding, Rule, SourceModule

__all__ = [
    "FLOW_RULES",
    "BitsBytesRule",
    "NondeterminismTaintRule",
    "PacketTypestateRule",
    "SimCallbackWriteRule",
]

#: Taint kinds that constitute a reportable nondeterminism (the internal
#: ``set-value`` marker only becomes real taint once iterated).
_REPORTABLE_KINDS = ("randomness", "wall-clock", "iter-order", "hash-order")


class NondeterminismTaintRule(Rule):
    """Tainted values must not reach the event loop, codecs, or payloads."""

    name = "nondeterminism-taint"
    description = (
        "values originating from bare randomness, wall-clock reads, set "
        "iteration order, or hash() must not flow into Simulator.schedule, "
        "codec state, or packet payloads"
    )
    hint = (
        "derive the value from repro.transforms.prng (shared_generator / "
        "StreamKey(...).spawn()) so every party regenerates the same stream, "
        "or sort the collection before iterating"
    )
    scope = (
        "core/", "transforms/", "collectives/", "transport/", "train/",
        "faults/", "resilience/", "net/", "packet/",
    )
    exempt = ("transforms/prng.py",)

    #: Event-loop entry points (method names on any simulator handle),
    #: including the fire-and-forget fast-path API and timer moves.
    _SCHEDULE_METHODS = ("schedule", "schedule_at", "schedule_call", "reschedule")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        tracker = ImportTracker(module.tree)
        class_taints = class_attribute_taints(module.tree, tracker.resolve_call)
        reported: Set[Tuple[int, int, str, str]] = set()
        findings: List[Finding] = []

        for scope in iter_flow_scopes(module.tree):
            initial = dict(class_taints.get(scope.class_name or "", {}))
            flow = TaintFlow(tracker.resolve_call, initial=initial)
            in_codec = scope.class_name is not None and scope.class_name.endswith("Codec")

            def on_call(call: ast.Call, env: Dict[str, object]) -> None:
                self._check_schedule_sink(module, flow, call, env, reported, findings)
                self._check_payload_sink(module, flow, call, env, reported, findings)

            def on_attr_store(
                target: ast.Attribute, taints: "frozenset[Taint]", env: Dict[str, object]
            ) -> None:
                if not in_codec:
                    return
                base = dotted_name(target.value)
                if base != "self":
                    return
                self._report(
                    module,
                    target,
                    taints,
                    f"codec state self.{target.attr}",
                    reported,
                    findings,
                )

            flow.on_call = on_call
            flow.on_attribute_store = on_attr_store
            flow.run(scope)

        yield from findings

    # -- sinks -----------------------------------------------------------------

    def _check_schedule_sink(
        self,
        module: SourceModule,
        flow: TaintFlow,
        call: ast.Call,
        env: Dict[str, object],
        reported: Set[Tuple[int, int, str, str]],
        findings: List[Finding],
    ) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in self._SCHEDULE_METHODS:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Lambda):
                continue  # callback bodies are separate scopes, not data
            taints = flow.eval_expr(arg, env)
            if isinstance(taints, frozenset):
                self._report(
                    module,
                    arg,
                    taints,
                    f"{call.func.attr}() on the event loop",
                    reported,
                    findings,
                )

    def _check_payload_sink(
        self,
        module: SourceModule,
        flow: TaintFlow,
        call: ast.Call,
        env: Dict[str, object],
        reported: Set[Tuple[int, int, str, str]],
        findings: List[Finding],
    ) -> None:
        for keyword in call.keywords:
            if keyword.arg != "payload":
                continue
            taints = flow.eval_expr(keyword.value, env)
            if isinstance(taints, frozenset):
                self._report(
                    module, keyword.value, taints, "a packet payload", reported, findings
                )

    def _report(
        self,
        module: SourceModule,
        node: ast.AST,
        taints: "frozenset[Taint]",
        sink: str,
        reported: Set[Tuple[int, int, str, str]],
        findings: List[Finding],
    ) -> None:
        for taint in sorted(taints, key=lambda t: (t.kind, t.source, t.line)):
            if taint.kind not in _REPORTABLE_KINDS:
                continue
            key = (
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                taint.source,
                sink,
            )
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                self.finding(
                    module,
                    node,
                    f"value tainted by {taint.source} (line {taint.line}) reaches "
                    f"{sink} without passing through shared_generator",
                )
            )


class PacketTypestateRule(Rule):
    """Packet lifecycle: build → seal() → send; verify() on receipt."""

    name = "packet-typestate"
    description = (
        "Packet lifecycle violations: trim/trim_to_bits after seal(), "
        "double-seal, post-seal payload/INT-band mutation, sending a "
        "payload-carrying packet unsealed, discarding verify()"
    )
    hint = (
        "seal() is the last sender-side step before host.send(); trimming "
        "and payload writes belong before it, and verify()'s bool must be "
        "acted on (see docs/static_analysis.md#packet-typestate)"
    )
    scope = (
        "packet/", "core/", "net/", "transport/", "train/", "collectives/",
        "faults/", "resilience/",
    )

    _MESSAGES = {
        "trim-after-seal": "trim on a sealed packet",
        "double-seal": "packet sealed twice",
        "mutate-after-seal": "sealed packet mutated",
        "send-unsealed": "payload-carrying packet sent unsealed",
        "verify-unused": "verify() verdict discarded",
    }

    def check(self, module: SourceModule) -> Iterator[Finding]:
        tracker = ImportTracker(module.tree)
        reported: Set[Tuple[int, int, str]] = set()
        for scope in iter_flow_scopes(module.tree):
            flow = PacketStateFlow(tracker.resolve_call)
            for event in flow.run(scope):
                key = (
                    getattr(event.node, "lineno", 0),
                    getattr(event.node, "col_offset", 0),
                    event.kind,
                )
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    module,
                    event.node,
                    f"{self._MESSAGES.get(event.kind, event.kind)}: {event.detail}",
                )


class BitsBytesRule(Rule):
    """Bit- and byte-denominated quantities must not mix silently."""

    name = "bits-bytes"
    description = (
        "no arithmetic or comparison mixing *_bits and *_bytes/wire_size "
        "quantities without an explicit * 8 / // 8 conversion"
    )
    hint = (
        "convert explicitly at the boundary (bytes * 8 or bits // 8) or "
        "rename the identifier so its unit suffix tells the truth"
    )
    scope = (
        "packet/", "core/", "net/", "transport/", "collectives/", "train/",
        "obs/int_telemetry.py",
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        tracker = ImportTracker(module.tree)
        reported: Set[Tuple[int, int, str]] = set()
        findings: List[Finding] = []

        flow = UnitFlow(tracker.resolve_call)

        def on_mismatch(node: ast.AST, left: str, right: str, context: str) -> None:
            key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), context)
            if key in reported:
                return
            reported.add(key)
            findings.append(
                self.finding(
                    module,
                    node,
                    f"mixed units in {context}: {left} vs {right} with no "
                    "explicit * 8 / // 8 conversion",
                )
            )

        flow.on_mismatch = on_mismatch
        for scope in iter_flow_scopes(module.tree):
            flow.run(scope)
        yield from findings


class SimCallbackWriteRule(Rule):
    """Event-loop callbacks must not write module-level shared state."""

    name = "sim-callback-write"
    severity = "warning"
    description = (
        "callbacks scheduled on the event loop must not write module-level "
        "state (a data race once workers go multi-core)"
    )
    hint = (
        "move the state onto the object that schedules the callback, or "
        "pass it through the callback's arguments"
    )
    scope = ("net/", "transport/", "faults/", "resilience/", "train/", "collectives/")

    _MUTATORS = {
        "append", "extend", "add", "update", "insert", "remove", "discard",
        "pop", "popitem", "clear", "setdefault", "__setitem__",
    }

    def check(self, module: SourceModule) -> Iterator[Finding]:
        module_globals = self._module_globals(module.tree)
        if not module_globals:
            return
        reported: Set[Tuple[int, int, str]] = set()
        for call, callback in self._scheduled_callbacks(module.tree):
            body = self._callback_body(module.tree, call, callback)
            if body is None:
                continue
            for node, var in self._shared_writes(body, module_globals):
                key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), var)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    module,
                    node,
                    f"event-loop callback writes module-level state `{var}`",
                )

    @staticmethod
    def _module_globals(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _scheduled_callbacks(tree: ast.Module) -> Iterator[Tuple[ast.Call, ast.expr]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr in ("schedule", "schedule_at", "schedule_call"):
                # schedule(delay, callback) / schedule_call(delay, fn, arg):
                # the callable sits in the second positional slot.
                callback: Optional[ast.expr] = None
                if len(node.args) >= 2:
                    callback = node.args[1]
                for keyword in node.keywords:
                    if keyword.arg == "callback":
                        callback = keyword.value
                if callback is not None:
                    yield node, callback

    def _callback_body(
        self, tree: ast.Module, call: ast.Call, callback: ast.expr
    ) -> Optional[List[ast.stmt]]:
        """Statements executed when the callback fires, when resolvable."""
        if isinstance(callback, ast.Lambda):
            return [ast.Expr(value=callback.body)]
        target_name: Optional[str] = None
        if isinstance(callback, ast.Name):
            target_name = callback.id
        elif isinstance(callback, ast.Attribute) and isinstance(callback.value, ast.Name):
            if callback.value.id == "self":
                target_name = callback.attr
        if target_name is None:
            return None
        # Innermost function/method definition with that name that contains
        # (or is a sibling of) the scheduling call.
        best: Optional[List[ast.stmt]] = None
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == target_name:
                    best = list(node.body)
        return best

    def _shared_writes(
        self, body: List[ast.stmt], module_globals: Set[str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        declared_global: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name) and target.id in declared_global:
                            yield node, target.id
                        elif isinstance(target, ast.Subscript):
                            base = target.value
                            if isinstance(base, ast.Name) and base.id in module_globals:
                                yield node, base.id
                elif isinstance(node, ast.NamedExpr):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id in module_globals
                    ):
                        yield node, node.target.id
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in self._MUTATORS:
                        base = node.func.value
                        if isinstance(base, ast.Name) and base.id in module_globals:
                            yield node, base.id


#: The flow-aware rule set, in documentation order.
FLOW_RULES: Tuple[Rule, ...] = (
    NondeterminismTaintRule(),
    PacketTypestateRule(),
    BitsBytesRule(),
    SimCallbackWriteRule(),
)
