"""Tests for shared-randomness streams (sender/receiver agreement)."""

import numpy as np
import pytest

from repro.transforms import StreamKey, derive_seed, shared_generator


class TestSharedGenerator:
    def test_same_key_same_stream(self):
        a = shared_generator(42, epoch=3, message_id=7, purpose="dither")
        b = shared_generator(42, epoch=3, message_id=7, purpose="dither")
        assert np.array_equal(a.random(100), b.random(100))

    def test_different_epochs_differ(self):
        a = shared_generator(42, epoch=1).random(50)
        b = shared_generator(42, epoch=2).random(50)
        assert not np.array_equal(a, b)

    def test_different_message_ids_differ(self):
        a = shared_generator(42, message_id=1).random(50)
        b = shared_generator(42, message_id=2).random(50)
        assert not np.array_equal(a, b)

    def test_different_purposes_differ(self):
        a = shared_generator(42, purpose="dither").random(50)
        b = shared_generator(42, purpose="rotation").random(50)
        assert not np.array_equal(a, b)

    def test_different_root_seeds_differ(self):
        a = shared_generator(1).random(50)
        b = shared_generator(2).random(50)
        assert not np.array_equal(a, b)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError, match="unknown purpose"):
            shared_generator(0, purpose="nonsense")


class TestStreamKey:
    def test_key_is_hashable_and_frozen(self):
        key = StreamKey(1, 2, 3, "rotation")
        assert hash(key) == hash(StreamKey(1, 2, 3, "rotation"))
        with pytest.raises(AttributeError):
            key.epoch = 9  # type: ignore[misc]

    def test_spawn_matches_shared_generator(self):
        key = StreamKey(9, 4, 5, "quantize")
        a = key.spawn().random(20)
        b = shared_generator(9, 4, 5, "quantize").random(20)
        assert np.array_equal(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_sensitive_to_every_field(self):
        base = derive_seed(1, 2, 3, "rotation")
        assert base != derive_seed(2, 2, 3, "rotation")
        assert base != derive_seed(1, 3, 3, "rotation")
        assert base != derive_seed(1, 2, 4, "rotation")
        assert base != derive_seed(1, 2, 3, "dither")

    def test_in_63_bit_range(self):
        for i in range(20):
            seed = derive_seed(i, i + 1, i + 2)
            assert 0 <= seed < 2**63

    def test_a_reused_seed_equals_a_fresh_derivation(self):
        """A key derived again (every worker of a job derives its message's
        key) returns the cached seed, which is the one a fresh generator
        draws."""
        fresh = shared_generator(5, 2, 9, "rotation").integers(0, 2**63 - 1)
        derive_seed.cache_clear()
        first = derive_seed(5, 2, 9, "rotation")
        hits = derive_seed.cache_info().hits
        again = derive_seed(5, 2, 9, "rotation")
        assert derive_seed.cache_info().hits == hits + 1
        assert first == again == fresh == derive_seed.__wrapped__(5, 2, 9, "rotation")

    def test_a_seed_evicted_from_the_cache_derives_the_same(self):
        first = derive_seed(7, 1, 1)
        for message_id in range(2, 2 + 2 * derive_seed.cache_info().maxsize):
            derive_seed(7, 1, message_id)
        assert derive_seed(7, 1, 1) == first
