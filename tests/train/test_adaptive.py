"""Tests for the Section 5.3 adaptive-Q control loop."""

import numpy as np
import pytest

from repro.core import MultiLevelCodec, nmse, packetize
from repro.train import AdaptiveQController, BudgetedLinkChannel


def gradient(n=2**15, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestAdaptiveQController:
    def test_starts_at_full_depth(self):
        assert AdaptiveQController().send_bits == 32

    def test_heavy_trimming_steps_down(self):
        ctrl = AdaptiveQController()
        ctrl.update(0.9)
        assert ctrl.send_bits == 8
        ctrl.update(0.9)
        assert ctrl.send_bits == 1
        ctrl.update(0.9)  # already at the floor
        assert ctrl.send_bits == 1

    def test_calm_steps_up_after_patience(self):
        ctrl = AdaptiveQController(patience=2)
        ctrl.update(0.9)
        assert ctrl.send_bits == 8
        ctrl.update(0.0)
        assert ctrl.send_bits == 8  # one calm message is not enough
        ctrl.update(0.0)
        assert ctrl.send_bits == 32

    def test_target_band_holds_steady(self):
        """A small trim fraction is the desired operating point: the
        controller neither escalates nor de-escalates."""
        ctrl = AdaptiveQController(high_water=0.5, low_water=0.05)
        ctrl.update(0.9)
        for _ in range(10):
            ctrl.update(0.2)
        assert ctrl.send_bits == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveQController(levels=(1, 8, 32))


class TestBudgetedLinkChannel:
    def full_message_bytes(self, codec, x):
        packets = packetize(codec.encode(x), "a", "b")
        return sum(p.wire_size for p in packets)

    def test_ample_capacity_is_lossless(self):
        codec = MultiLevelCodec(root_seed=1, row_size=4096)
        x = gradient()
        channel = BudgetedLinkChannel(codec, capacity_bytes=10**9)
        out = channel.transfer(x)
        assert nmse(x, out) < 1e-10
        assert channel.last_trim_fraction == 0.0

    def test_tight_capacity_triggers_jit_trimming(self):
        codec = MultiLevelCodec(root_seed=1, row_size=4096)
        x = gradient()
        full = self.full_message_bytes(codec, x)
        channel = BudgetedLinkChannel(codec, capacity_bytes=int(full * 0.6))
        out = channel.transfer(x)
        assert channel.last_trim_fraction > 0.0
        assert channel.stats.packets_trimmed > 0
        # Full-size packets hog the budget, so pure JIT reaction at a
        # tight budget degrades hard — the Section 5.3 motivation for
        # adjusting Q ahead of time (see the adaptive tests below).
        assert nmse(x, out) < 0.8

    def test_static_overcompression_wastes_capacity(self):
        """Static 1-bit sending never trims but leaves the link idle."""
        codec = MultiLevelCodec(root_seed=1, row_size=4096)
        x = gradient()
        full = self.full_message_bytes(codec, x)
        channel = BudgetedLinkChannel(
            codec, capacity_bytes=int(full * 0.6), static_send_bits=1
        )
        channel.transfer(x)
        utilization = channel.stats.bytes_sent / (full * 0.6)
        assert utilization < 0.2
        assert channel.last_trim_fraction == 0.0

    def test_adaptive_converges_to_fitting_depth(self):
        codec = MultiLevelCodec(root_seed=1, row_size=4096)
        x = gradient()
        full = self.full_message_bytes(codec, x)
        channel = BudgetedLinkChannel(
            codec,
            capacity_bytes=int(full * 0.35),
            controller=AdaptiveQController(),
        )
        outputs = [channel.transfer(x, message_id=m) for m in range(6)]
        # Converged: 8-bit ahead-of-time depth fits the 35% budget.
        assert channel.last_send_bits == 8
        assert channel.last_trim_fraction < 0.05
        assert nmse(x, outputs[-1]) < 1e-3

    def test_adaptive_beats_static_full_depth(self):
        """Relying on JIT alone at a tight budget loses packets; the
        ahead-of-time adjustment avoids that (the Section 5.3 pitch)."""
        codec = MultiLevelCodec(root_seed=1, row_size=4096)
        x = gradient()
        full = self.full_message_bytes(codec, x)
        budget = int(full * 0.35)

        static = BudgetedLinkChannel(codec, capacity_bytes=budget)
        adaptive = BudgetedLinkChannel(
            codec, capacity_bytes=budget, controller=AdaptiveQController()
        )
        for m in range(6):
            static_out = static.transfer(x, message_id=m)
            adaptive_out = adaptive.transfer(x, message_id=m)
        assert nmse(x, adaptive_out) < nmse(x, static_out)
        assert static.stats.packets_dropped > 0

    def test_validation(self):
        codec = MultiLevelCodec(root_seed=1, row_size=1024)
        with pytest.raises(ValueError):
            BudgetedLinkChannel(codec, capacity_bytes=0)
        with pytest.raises(ValueError):
            BudgetedLinkChannel(codec, capacity_bytes=100, static_send_bits=7)
