"""SwitchStats derived rates: enqueues, trim_fraction, drop_fraction."""

import pytest

from repro.net import Simulator, Switch, SwitchStats
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.packet import Packet


class TestFractions:
    def test_zero_activity_is_zero_not_nan(self):
        stats = SwitchStats()
        assert stats.enqueues == 0
        assert stats.trim_fraction == 0.0
        assert stats.drop_fraction == 0.0

    def test_fractions_over_all_egress_decisions(self):
        stats = SwitchStats(forwarded=6, trimmed=3, dropped=1)
        assert stats.enqueues == 10
        assert stats.trim_fraction == pytest.approx(0.3)
        assert stats.drop_fraction == pytest.approx(0.1)

    def test_all_trimmed(self):
        stats = SwitchStats(trimmed=5)
        assert stats.trim_fraction == 1.0
        assert stats.drop_fraction == 0.0

    def test_note_drop_feeds_fraction_and_kind(self):
        stats = SwitchStats(forwarded=3)
        stats.note_drop("buffer-overflow")
        stats.note_drop("buffer-overflow")
        stats.note_drop("no-route")
        assert stats.dropped == 3
        assert stats.drop_fraction == pytest.approx(0.5)
        assert stats.drops_by_kind == {"buffer-overflow": 2, "no-route": 1}

    def test_live_switch_exposes_fractions(self):
        switch = Switch("sw", Simulator())
        assert switch.stats.trim_fraction == 0.0
        assert switch.stats.drop_fraction == 0.0


class TestDropCounterBinding:
    """Drops are published per kind; the unbound ``inc`` call is the oracle."""

    KINDS = (
        "no-route", "port-blackout", "header-band-overflow",
        "buffer-overflow", "blackhole", "switch-down",
    )

    @staticmethod
    def drop_all(registry, kinds):
        previous = set_registry(registry)
        try:
            switch = Switch("sw", Simulator())
        finally:
            set_registry(previous)
        for repeats, kind in enumerate(kinds, start=1):
            for _ in range(repeats):
                switch._drop(Packet(src="a", dst="b"), kind)
        return switch

    def test_same_series_as_the_unbound_call(self):
        bound, unbound = MetricsRegistry(), MetricsRegistry()
        switch = self.drop_all(bound, self.KINDS)
        oracle = unbound.counter("repro_switch_dropped_total", ("switch", "kind"))
        for repeats, kind in enumerate(self.KINDS, start=1):
            for _ in range(repeats):
                oracle.inc(switch="sw", kind=kind)
        got = bound.get("repro_switch_dropped_total")
        assert got.series() == oracle.series()
        assert len(got.series()) == len(self.KINDS)
        assert switch.stats.drops_by_kind == {k: i for i, k in enumerate(self.KINDS, start=1)}
        assert (
            bound.snapshot()["repro_switch_dropped_total"]
            == unbound.snapshot()["repro_switch_dropped_total"]
        )

    def test_no_series_until_a_kind_is_dropped(self):
        registry = MetricsRegistry()
        self.drop_all(registry, ())
        assert registry.get("repro_switch_dropped_total").series() == []
        self.drop_all(registry, ("buffer-overflow",))
        assert registry.get("repro_switch_dropped_total").series() == [
            (("sw", "buffer-overflow"), 1.0)
        ]
