"""Metrics registry: labelled counter families."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("pkts_total")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labels_separate_series(self, registry):
        c = registry.counter("pkts_total", ("switch",))
        c.inc(switch="s0")
        c.inc(3, switch="s1")
        assert c.value(switch="s0") == 1
        assert c.value(switch="s1") == 3
        assert c.total() == 4

    def test_bind_is_equivalent(self, registry):
        c = registry.counter("pkts_total", ("switch",))
        bound = c.bind(switch="s0")
        bound.inc()
        bound.inc(2)
        assert c.value(switch="s0") == 3
        assert bound.value == 3

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("pkts_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("pkts_total", labels=("switch",))
        with pytest.raises(ValueError):
            c.inc(port="x")
        with pytest.raises(ValueError):
            c.inc()  # missing label


class TestRegistry:
    def test_idempotent_registration(self, registry):
        a = registry.counter("c", ("l",))
        b = registry.counter("c", ("l",))
        assert a is b

    def test_label_conflict_rejected(self, registry):
        registry.counter("c", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("c", labels=("b",))

    def test_reset_zeroes_but_keeps_families(self, registry):
        c = registry.counter("c")
        c.inc(7)
        registry.reset()
        assert registry.get("c") is c
        assert c.value() == 0

    def test_snapshot(self, registry):
        registry.counter("c", labels=("l",)).inc(2, l="x")
        registry.counter("d")
        snap = registry.snapshot()
        assert snap == {"c": {"l=x": 2}, "d": {}}

    def test_set_registry_swaps_default(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
