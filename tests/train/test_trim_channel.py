"""Tests for the Bernoulli trim channel and trim-transcript replay."""

import numpy as np
import pytest

from repro.core import RHTCodec, codec_by_name, nmse
from repro.core.layout import coords_per_packet
from repro.train import TrimChannel, TrimTranscript


def gradient(n=50_000, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestTrimChannel:
    def test_zero_rate_is_lossless(self):
        channel = TrimChannel(codec_by_name("sd", root_seed=1), trim_rate=0.0, seed=0)
        x = gradient()
        assert nmse(x, channel.transfer(x)) < 1e-12

    def test_full_rate_trims_everything(self):
        channel = TrimChannel(codec_by_name("sign"), trim_rate=1.0, seed=0)
        x = gradient(10_000)
        out = channel.transfer(x)
        assert np.allclose(np.abs(out), np.std(x))
        assert channel.stats.trim_fraction == 1.0

    def test_observed_trim_fraction_tracks_rate(self):
        channel = TrimChannel(codec_by_name("sq"), trim_rate=0.3, seed=1)
        for i in range(20):
            channel.transfer(gradient(20_000, seed=i), message_id=i)
        assert abs(channel.stats.trim_fraction - 0.3) < 0.05

    def test_deterministic_per_key(self):
        a = TrimChannel(codec_by_name("sd", root_seed=1), trim_rate=0.5, seed=9)
        b = TrimChannel(codec_by_name("sd", root_seed=1), trim_rate=0.5, seed=9)
        x = gradient()
        out_a = a.transfer(x, epoch=3, message_id=7, worker=1)
        out_b = b.transfer(x, epoch=3, message_id=7, worker=1)
        assert np.array_equal(out_a, out_b)

    def test_workers_get_independent_patterns(self):
        channel = TrimChannel(codec_by_name("sign"), trim_rate=0.5, seed=9)
        x = gradient()
        out0 = channel.transfer(x, epoch=1, message_id=1, worker=0)
        out1 = channel.transfer(x, epoch=1, message_id=1, worker=1)
        assert not np.array_equal(out0, out1)

    def test_rht_channel_error_scales_with_rate(self):
        x = gradient(2**16, seed=4)
        errors = []
        for rate in [0.1, 0.5, 1.0]:
            channel = TrimChannel(RHTCodec(root_seed=2, row_size=4096), rate, seed=5)
            errors.append(nmse(x, channel.transfer(x)))
        assert errors[0] < errors[1] < errors[2]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TrimChannel(codec_by_name("sign"), trim_rate=1.5)


class TestTranscriptIntegration:
    def test_record_then_replay_reproduces_exactly(self):
        transcript = TrimTranscript()
        recorder = TrimChannel(
            codec_by_name("sd", root_seed=1), trim_rate=0.4, seed=3, record=transcript
        )
        outputs = []
        for epoch in range(2):
            for message in range(3):
                outputs.append(
                    recorder.transfer(
                        gradient(20_000, seed=epoch * 3 + message),
                        epoch=epoch,
                        message_id=message,
                        worker=0,
                    )
                )
        replayer = TrimChannel(
            codec_by_name("sd", root_seed=1), trim_rate=0.0, seed=999, replay=transcript
        )
        replayed = []
        for epoch in range(2):
            for message in range(3):
                replayed.append(
                    replayer.transfer(
                        gradient(20_000, seed=epoch * 3 + message),
                        epoch=epoch,
                        message_id=message,
                        worker=0,
                    )
                )
        for a, b in zip(outputs, replayed):
            assert np.array_equal(a, b)

    def test_replay_json_round_trip(self):
        transcript = TrimTranscript()
        channel = TrimChannel(
            codec_by_name("sign"), trim_rate=0.5, seed=1, record=transcript
        )
        channel.transfer(gradient(30_000), epoch=1, message_id=1, worker=2)
        restored = TrimTranscript.from_json(transcript.to_json())
        assert restored == transcript
        assert restored.total_trimmed() == transcript.total_trimmed()

    def test_replay_missing_key_raises(self):
        channel = TrimChannel(
            codec_by_name("sign"), trim_rate=0.0, seed=0, replay=TrimTranscript()
        )
        with pytest.raises(KeyError, match="no entry"):
            channel.transfer(gradient(1000), epoch=9, message_id=9, worker=9)

    def test_cannot_record_and_replay(self):
        transcript = TrimTranscript()
        with pytest.raises(ValueError, match="record and replay"):
            TrimChannel(
                codec_by_name("sign"), 0.5, record=transcript, replay=transcript
            )

    def test_duplicate_record_rejected(self):
        transcript = TrimTranscript()
        transcript.record(1, 1, 1, [0, 2])
        with pytest.raises(ValueError, match="already has"):
            transcript.record(1, 1, 1, [1])

    def test_loaded_transcript_rejects_negative_index(self):
        # A negative index would wrap to the message's last packet.
        with pytest.raises(ValueError, match=r"negative packet index -1 for \(1, 1, 0\)"):
            TrimTranscript.from_json('{"1:1:0": [-1]}')

    def test_replay_rejects_index_past_the_message(self):
        transcript = TrimTranscript.from_json('{"1:1:0": [3, 1000000]}')
        codec = codec_by_name("sign")
        channel = TrimChannel(codec, trim_rate=0.0, seed=0, replay=transcript)
        per_packet = coords_per_packet(channel.mtu, codec.head_bits, codec.tail_bits)
        flat = gradient(14 * per_packet + 1)  # 15 packets
        with pytest.raises(
            ValueError,
            match=r"packet 1000000 of message \(epoch=1, message=1, worker=0\), "
            r"which has 15 packets",
        ):
            channel.transfer(flat, epoch=1, message_id=1, worker=0)

