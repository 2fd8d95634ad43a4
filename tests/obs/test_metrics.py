"""Metrics registry: counters, gauges, log-scale histograms."""

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
        c = registry.counter("pkts_total", "packets")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labels_separate_series(self, registry):
        c = registry.counter("pkts_total", "packets", ("switch",))
        c.inc(switch="s0")
        c.inc(3, switch="s1")
        assert c.value(switch="s0") == 1
        assert c.value(switch="s1") == 3
        assert c.total() == 4

    def test_bind_is_equivalent(self, registry):
        c = registry.counter("pkts_total", "packets", ("switch",))
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


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth", "bytes", ("queue",))
        g.set(100, queue="q")
        g.inc(50, queue="q")
        g.dec(25, queue="q")
        assert g.value(queue="q") == 125


class TestHistogram:
    def test_count_sum_mean(self, registry):
        h = registry.histogram("lat_seconds")
        for v in (1e-6, 1e-3, 1e-3, 0.1):
            h.observe(v)
        assert h.count() == 4
        assert h.total() == pytest.approx(0.102001)
        assert h.mean() == pytest.approx(0.102001 / 4)

    def test_log_scale_percentile_order_of_magnitude(self, registry):
        h = registry.histogram("lat_seconds", start=1e-9, factor=10, num_buckets=22)
        for _ in range(99):
            h.observe(1e-4)
        h.observe(10.0)
        p50 = h.percentile(50)
        # Geometric interpolation is accurate to the bucket factor.
        assert 1e-5 < p50 < 1e-3
        assert 1.0 < h.percentile(100) < 100.0

    def test_overflow_bucket(self, registry):
        h = registry.histogram("x", start=1.0, factor=2.0, num_buckets=3)
        h.observe(1e9)  # beyond the last bound
        assert h.count() == 1
        assert h.percentile(99) > h.bounds[-1]

    def test_empty_percentile_is_zero(self, registry):
        h = registry.histogram("x")
        assert h.percentile(99) == 0.0


class TestRegistry:
    def test_idempotent_registration(self, registry):
        a = registry.counter("c", "help", ("l",))
        b = registry.counter("c", "other help", ("l",))
        assert a is b

    def test_kind_conflict_rejected(self, registry):
        registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")

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
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert snap["c"]["l=x"] == 2
        assert snap["h"][""]["count"] == 1

    def test_set_registry_swaps_default(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
