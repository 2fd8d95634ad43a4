"""EFChannel: error-feedback residuals around any lossy channel."""

import numpy as np
import pytest

from repro.collectives import PerfectChannel
from repro.collectives.channel import GradientChannel
from repro.core import RHTCodec
from repro.resilience import EFChannel
from repro.train import TrimChannel


class HalfChannel(GradientChannel):
    """Deterministic lossy channel: delivers even coords, drops odd."""

    def transfer(self, flat, *, epoch=0, message_id=0, worker=0):
        flat = np.asarray(flat, dtype=np.float64)
        self.stats.messages += 1
        out = flat.copy()
        out[1::2] = 0.0
        return out


class SurrenderChannel(GradientChannel):
    """Always surrenders: delivers nothing."""

    def transfer(self, flat, *, epoch=0, message_id=0, worker=0):
        flat = np.asarray(flat, dtype=np.float64)
        self.stats.messages += 1
        self.count_surrender()
        return np.zeros_like(flat)


class TestResidualMechanics:
    def test_residual_is_what_the_channel_lost(self):
        ef = EFChannel(HalfChannel())
        x = np.arange(6.0)
        out = ef.transfer(x, worker=0)
        assert np.array_equal(out, [0.0, 0.0, 2.0, 0.0, 4.0, 0.0])
        assert np.array_equal(ef.residual(0), [0.0, 1.0, 0.0, 3.0, 0.0, 5.0])

    def test_residual_added_back_next_round(self):
        ef = EFChannel(HalfChannel())
        x = np.arange(6.0)
        ef.transfer(x, worker=0)
        # Next round, zero input: the carried residual alone crosses the
        # channel, and its even part is finally delivered.
        out = ef.transfer(np.zeros(6), worker=0)
        assert np.array_equal(out, np.zeros(6))  # odd coords stay stuck
        assert np.array_equal(ef.residual(0), [0.0, 1.0, 0.0, 3.0, 0.0, 5.0])

    def test_surrendered_round_defers_everything(self):
        ef = EFChannel(SurrenderChannel())
        x = np.arange(4.0)
        out = ef.transfer(x, worker=0)
        assert np.array_equal(out, np.zeros(4))
        assert np.array_equal(ef.residual(0), x)
        # The whole update arrives one round late through a now-perfect path.
        ef.inner = PerfectChannel()
        out = ef.transfer(np.zeros(4), worker=0)
        assert np.array_equal(out, x)
        assert np.array_equal(ef.residual(0), np.zeros(4))

    def test_residuals_are_per_worker(self):
        ef = EFChannel(HalfChannel())
        ef.transfer(np.ones(4), worker=0)
        ef.transfer(2 * np.ones(4), worker=1)
        assert np.array_equal(ef.residual(0), [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(ef.residual(1), [0.0, 2.0, 0.0, 2.0])

    def test_missing_residual_raises(self):
        ef = EFChannel(HalfChannel())
        with pytest.raises(KeyError):
            ef.residual(0)

    def test_drop_worker(self):
        ef = EFChannel(HalfChannel())
        ef.transfer(np.ones(4), worker=0)
        ef.transfer(np.ones(4), worker=1)
        ef.drop_worker(0)
        with pytest.raises(KeyError):
            ef.residual(0)
        assert ef.residual(1) is not None

    def test_stats_are_shared_with_inner(self):
        inner = SurrenderChannel()
        ef = EFChannel(inner)
        ef.transfer(np.ones(4), worker=0)
        assert ef.stats is inner.stats
        assert ef.stats.rounds_surrendered == 1
        ef.reset_stats()
        assert ef.stats.rounds_surrendered == 0

    def test_residual_norms(self):
        ef = EFChannel(HalfChannel())
        ef.transfer(np.array([0.0, 3.0, 0.0, 4.0]), worker=0)
        norms = ef.residual_norms()
        assert norms[0] == pytest.approx(5.0)


class TestStateDict:
    def test_round_trip(self):
        ef = EFChannel(HalfChannel())
        ef.transfer(np.arange(4.0), worker=0)
        ef.transfer(np.arange(4.0), worker=1)
        restored = EFChannel(HalfChannel())
        restored.load_state_dict(ef.state_dict())
        assert np.array_equal(restored.residual(0), ef.residual(0))
        assert np.array_equal(restored.residual(1), ef.residual(1))
        # The restored residual rides the next round's message.
        assert np.array_equal(
            restored.transfer(np.zeros(4), worker=0), ef.transfer(np.zeros(4), worker=0)
        )

    def test_json_safe(self):
        import json

        ef = EFChannel(HalfChannel())
        ef.transfer(np.arange(4.0), worker=0)
        blob = json.dumps(ef.state_dict(), sort_keys=True)
        restored = EFChannel(HalfChannel())
        restored.load_state_dict(json.loads(blob))
        assert np.array_equal(restored.residual(0), ef.residual(0))

    @pytest.mark.parametrize("state", [
        {"residuals": [{"worker": 0, "slot": 0, "values": [1.0]}], "slots": {"0": 1}},
        {"residuals": [{"worker": 0, "slot": 1, "values": [1.0]}]},
    ])
    def test_rejects_slot_keyed_state(self, state):
        """A residual per (worker, slot) has no place to go: refuse, do not merge."""
        ef = EFChannel(HalfChannel())
        with pytest.raises(ValueError, match="keyed by worker"):
            ef.load_state_dict(state)


class TestWithRealCodec:
    def test_ef_reduces_error_versus_plain_trimming(self):
        """Error feedback makes the *running sum* of delivered gradients
        track the running sum of inputs better than plain trimming."""
        rng = np.random.default_rng(0)
        n = 4096

        def channel():
            return TrimChannel(
                RHTCodec(root_seed=1, row_size=1024), trim_rate=0.6, seed=2
            )

        plain = channel()
        ef = EFChannel(channel())
        inputs = [rng.standard_normal(n) for _ in range(16)]
        sum_plain = np.zeros(n)
        sum_ef = np.zeros(n)
        for i, x in enumerate(inputs):
            sum_plain += plain.transfer(x, epoch=1, message_id=i)
            sum_ef += ef.transfer(x, epoch=1, message_id=i)
        true = np.sum(inputs, axis=0)
        err_plain = np.linalg.norm(sum_plain - true)
        err_ef = np.linalg.norm(sum_ef - true)
        assert err_ef < err_plain
