"""The one repo-specific rule: ``nondeterminism-taint``.

A value originating from bare randomness, a wall-clock read, set
iteration order, or ``hash()`` must not reach the simulator's event
loop, codec state, or a packet payload without passing through
:mod:`repro.transforms.prng`.  The violation is *propagated* rather
than syntactic, so the rule runs on :mod:`repro.lint.dataflow`.  The
per-line invariants (bare randomness, float equality, mutable defaults,
``print``, callback writes) are checks in ``tests/test_static_checks.py``;
see ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from .dataflow import (
    ImportTracker,
    Taint,
    TaintFlow,
    class_attribute_taints,
    dotted_name,
    iter_flow_scopes,
)
from .engine import Finding, Rule, SourceModule

__all__ = ["ALL_RULES", "NondeterminismTaintRule"]

#: Taint kinds that constitute a reportable nondeterminism (the internal
#: ``set-value`` marker only becomes real taint once iterated).
_REPORTABLE_KINDS = ("randomness", "wall-clock", "iter-order", "hash-order")


class NondeterminismTaintRule(Rule):
    """Tainted values must not reach the event loop, codecs, or payloads."""

    name = "nondeterminism-taint"
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


#: Every shipped rule.
ALL_RULES: Tuple[Rule, ...] = (NondeterminismTaintRule(),)
