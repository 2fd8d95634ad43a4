"""Unit tests for the flow-aware layer behind ``nondeterminism-taint``.

These drive the dataflow engine through ``LintEngine.lint_text`` with
package-relative paths (so scoping matches ``src/repro``) plus a few
direct API tests of :mod:`repro.lint.dataflow` itself.
"""

import ast
import textwrap

import pytest

from repro.lint import ALL_RULES, LintEngine
from repro.lint.dataflow import ImportTracker, TaintFlow, iter_flow_scopes

ENGINE = LintEngine(ALL_RULES)


def findings_for(rule: str, source: str, rel: str):
    return [
        f for f in ENGINE.lint_text(textwrap.dedent(source), rel=rel) if f.rule == rule
    ]


# -- nondeterminism-taint: one case per source/sink pair ----------------------

TAINT_SOURCES_REACHING_SCHEDULE = [
    (
        "stdlib-random",
        """
        import random

        def go(sim):
            delay = random.random()
            sim.schedule(delay, go)
        """,
    ),
    (
        "wall-clock",
        """
        import time

        def go(sim):
            deadline = time.monotonic()
            sim.schedule_at(deadline, go)
        """,
    ),
    (
        "set-iteration-order",
        """
        def go(sim, peers):
            order = set(peers)
            for peer in order:
                sim.schedule(peer, go)
        """,
    ),
    (
        "propagated-through-arithmetic",
        """
        import random

        def go(sim):
            jitter = random.uniform(0.0, 1.0)
            delay = 1e-3 + jitter * 2.0
            sim.schedule(delay, go)
        """,
    ),
]


@pytest.mark.parametrize(
    "label,source", TAINT_SOURCES_REACHING_SCHEDULE, ids=lambda v: v if isinstance(v, str) else ""
)
def test_taint_reaches_event_loop(label, source):
    found = findings_for("nondeterminism-taint", source, rel="net/x.py")
    assert found, f"{label}: taint should reach the schedule sink"
    assert "shared_generator" in found[0].message


def test_hash_taint_reaches_payload_sink():
    source = """
    def build(key):
        flow_id = hash(key)
        return Packet(src="a", dst="b", payload=flow_id)
    """
    found = findings_for("nondeterminism-taint", source, rel="net/x.py")
    assert found
    assert "hash()" in found[0].message
    assert "payload" in found[0].message


def test_urandom_taint_reaches_codec_state():
    source = """
    import os

    class NoiseCodec:
        def __init__(self):
            self._salt = os.urandom(8)
    """
    found = findings_for("nondeterminism-taint", source, rel="core/x.py")
    assert found
    assert "os.urandom" in found[0].message
    assert "codec state self._salt" in found[0].message


def test_cross_method_taint_through_self_attribute():
    source = """
    import numpy as np

    class Flow:
        def __init__(self, sim, seed):
            self.sim = sim
            self._rng = np.random.default_rng(seed)

        def start(self):
            self.sim.schedule(self._rng.exponential(1e-3), self.start)
    """
    found = findings_for("nondeterminism-taint", source, rel="net/x.py")
    assert found, "self-attribute taint must cross method boundaries"


TAINT_CLEAN_CASES = [
    (
        "shared-generator-sanitizes",
        """
        from repro.transforms.prng import shared_generator

        def go(sim, seed):
            rng = shared_generator(seed, purpose="crosstraffic")
            sim.schedule(rng.exponential(1e-3), go)
        """,
    ),
    (
        "spawn-sanitizes",
        """
        def go(sim, stream_key):
            rng = stream_key.spawn()
            sim.schedule(rng.uniform(0.0, 1.0), go)
        """,
    ),
    (
        "sorted-set-iteration-is-deterministic",
        """
        def go(sim, peers):
            for peer in sorted(set(peers)):
                sim.schedule(peer, go)
        """,
    ),
    (
        "len-of-set-is-deterministic",
        """
        def go(sim, peers):
            fanout = len(set(peers))
            sim.schedule(fanout * 1e-6, go)
        """,
    ),
    (
        "clean-parameter",
        """
        def go(sim, delay):
            sim.schedule(delay, go)
        """,
    ),
]


@pytest.mark.parametrize(
    "label,source", TAINT_CLEAN_CASES, ids=lambda v: v if isinstance(v, str) else ""
)
def test_taint_clean_cases(label, source):
    assert findings_for("nondeterminism-taint", source, rel="net/x.py") == []


# -- dataflow API --------------------------------------------------------------


def test_iter_flow_scopes_covers_module_functions_and_methods():
    tree = ast.parse(
        "x = 1\n"
        "def top():\n    pass\n"
        "class Box:\n"
        "    def method(self):\n        pass\n"
    )
    scopes = list(iter_flow_scopes(tree))
    names = {(scope.name, scope.class_name) for scope in scopes}
    assert ("top", None) in names
    assert ("Box.method", "Box") in names
    assert any(scope.node is tree for scope in scopes), "module scope must be included"


def test_taintflow_env_propagation():
    tree = ast.parse("import random\n\ndef f():\n    a = random.random()\n    b = a + 1\n")
    tracker = ImportTracker(tree)
    scope = next(s for s in iter_flow_scopes(tree) if s.name == "f")
    env = TaintFlow(tracker.resolve_call).run(scope)
    kinds_a = {t.kind for t in env["a"]}
    kinds_b = {t.kind for t in env["b"]}
    assert kinds_a == {"randomness"}
    assert kinds_b == {"randomness"}, "taint must survive arithmetic"
