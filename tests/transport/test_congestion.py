"""Tests for congestion controllers."""

import pytest

from repro.transport import AIMD, FixedWindow


class TestFixedWindow:
    def test_never_moves(self):
        cc = FixedWindow(initial_window=16)
        for _ in range(100):
            cc.on_ack()
        cc.on_loss()
        cc.on_trim()
        assert cc.window == 16

    def test_initial_validation(self):
        with pytest.raises(ValueError):
            FixedWindow(initial_window=0)


class TestAIMD:
    def test_additive_increase(self):
        cc = AIMD(initial_window=10)
        before = cc.cwnd
        cc.on_ack()
        assert cc.cwnd == pytest.approx(before + 1 / before)

    def test_full_window_of_acks_adds_about_one(self):
        cc = AIMD(initial_window=10)
        for _ in range(10):
            cc.on_ack()
        assert 10.9 < cc.cwnd < 11.1

    def test_loss_halves(self):
        cc = AIMD(initial_window=64)
        cc.on_loss()
        assert cc.cwnd == 32

    def test_ecn_halves(self):
        cc = AIMD(initial_window=64)
        cc.on_ack(ecn=True)
        assert cc.cwnd == 32

    def test_trim_is_gentler_than_loss(self):
        loss = AIMD(initial_window=64)
        trim = AIMD(initial_window=64)
        loss.on_loss()
        trim.on_trim()
        assert trim.cwnd > loss.cwnd

    def test_floor_at_one(self):
        cc = AIMD(initial_window=1.5)
        for _ in range(20):
            cc.on_loss()
        assert cc.window == 1

    def test_ceiling(self):
        cc = AIMD(initial_window=10, max_window=12)
        for _ in range(1000):
            cc.on_ack()
        assert cc.cwnd <= 12

