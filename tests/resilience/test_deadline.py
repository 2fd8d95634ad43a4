"""RoundDeadline: responder/straggler split and partial aggregation."""

import numpy as np
import pytest

from repro.collectives import PerfectChannel, allreduce_mean
from repro.resilience import RoundDeadline


def grads(world=4, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(world)]


class TestRoundDeadline:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            RoundDeadline(0.0)
        with pytest.raises(ValueError, match="positive"):
            RoundDeadline(-1.0)

    def test_split_before_begin_round_is_identity(self):
        deadline = RoundDeadline(1.0)
        responders, stragglers = deadline.split([0, 1, 2])
        assert responders == [0, 1, 2]
        assert stragglers == []

    def test_begin_round_fixes_the_set(self):
        deadline = RoundDeadline(1.0)
        deadline.begin_round({0: 0.5, 1: 2.0, 2: 0.9, 3: float("inf")})
        assert deadline.last_responders == (0, 2)
        assert deadline.last_stragglers == (1, 3)
        assert deadline.total_stragglers == 2
        # split only filters the fixed set -- calling it repeatedly
        # must not double-count.
        for _ in range(3):
            responders, stragglers = deadline.split([0, 1, 2, 3])
            assert responders == [0, 2]
            assert stragglers == [1, 3]
        assert deadline.total_stragglers == 2

    def test_boundary_is_inclusive(self):
        deadline = RoundDeadline(1.0)
        deadline.begin_round({0: 1.0, 1: 1.0 + 1e-9})
        assert deadline.last_responders == (0,)
        assert deadline.last_stragglers == (1,)

    def test_from_time_model_scales_nominal(self):
        from repro.train.timing import RoundTimeModel

        model = RoundTimeModel()
        nominal = model.round_time(1000, world_size=4)
        deadline = RoundDeadline.from_time_model(model, 1000, factor=2.0, world_size=4)
        assert deadline.deadline_s == pytest.approx(2.0 * nominal.total_s)
        with pytest.raises(ValueError, match="exceed 1"):
            RoundDeadline.from_time_model(model, 1000, factor=1.0)

    def test_state_dict_round_trip(self):
        deadline = RoundDeadline(1.0)
        deadline.begin_round({0: 0.5, 1: 2.0})
        restored = RoundDeadline(1.0)
        restored.load_state_dict(deadline.state_dict())
        assert restored.rounds == 1
        assert restored.total_stragglers == 1
        assert restored.last_responders == (0,)
        assert restored.last_stragglers == (1,)


class TestPartialAllreduceMean:
    def test_mean_rescaled_over_responders(self):
        tensors = grads(world=4)
        deadline = RoundDeadline(1.0)
        deadline.begin_round({0: 0.5, 1: 5.0, 2: 0.5, 3: 0.5})
        out = allreduce_mean(tensors, PerfectChannel(), deadline=deadline)
        expected = np.mean([tensors[0], tensors[2], tensors[3]], axis=0)
        assert np.allclose(out, expected)

    def test_all_stragglers_surrenders_to_zeros(self):
        tensors = grads(world=3)
        channel = PerfectChannel()
        deadline = RoundDeadline(1.0)
        deadline.begin_round({0: 9.0, 1: 9.0, 2: 9.0})
        out = allreduce_mean(tensors, channel, deadline=deadline)
        assert np.array_equal(out, np.zeros_like(tensors[0]))
        assert channel.stats.rounds_surrendered == 1

    def test_no_deadline_is_plain_mean(self):
        tensors = grads(world=4)
        out = allreduce_mean(tensors, PerfectChannel())
        assert np.allclose(out, np.mean(tensors, axis=0))

