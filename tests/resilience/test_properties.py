"""Property suite: partial aggregation and error feedback hold for any input.

Two invariants from the issue:

* partial aggregation is the exact (unbiased) mean over *any* non-empty
  responder subset — the straggler exclusion only changes which tensors
  are averaged, never the weighting;
* error-feedback residuals telescope — after T rounds through any lossy
  channel, ``sum(delivered) + residual_T == sum(inputs)`` to float
  accumulation error.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import PerfectChannel, allreduce_mean
from repro.collectives.channel import GradientChannel
from repro.resilience import EFChannel, RoundDeadline


class MaskChannel(GradientChannel):
    """Lossy channel delivering a deterministic, seed-driven subset of
    coordinates (stands in for trim/drop/quantize in the proofs)."""

    def __init__(self, keep_prob, seed):
        super().__init__()
        self.keep_prob = keep_prob
        self._rng = np.random.default_rng(seed)

    def transfer(self, flat, *, epoch=0, message_id=0, worker=0):
        flat = np.asarray(flat, dtype=np.float64)
        mask = self._rng.random(flat.size) < self.keep_prob
        return np.where(mask, flat, 0.0)


def subset_deadline(responders, world):
    """A deadline whose round has exactly ``responders`` in time."""
    deadline = RoundDeadline(1.0)
    deadline.begin_round(
        {rank: (0.5 if rank in responders else 2.0) for rank in range(world)}
    )
    return deadline


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), world=st.integers(min_value=1, max_value=6),
       n=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_partial_allreduce_mean_is_responder_mean(data, world, n, seed):
    responders = data.draw(
        st.sets(st.integers(min_value=0, max_value=world - 1), min_size=1),
        label="responders",
    )
    rng = np.random.default_rng(seed)
    tensors = [rng.standard_normal(n) for _ in range(world)]
    out = allreduce_mean(
        tensors, PerfectChannel(), deadline=subset_deadline(responders, world)
    )
    expected = np.mean([tensors[r] for r in sorted(responders)], axis=0)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rounds=st.integers(min_value=1, max_value=12),
       n=st.integers(min_value=1, max_value=128),
       keep=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_ef_residual_telescopes(rounds, n, keep, seed):
    ef = EFChannel(MaskChannel(keep, seed=seed))
    rng = np.random.default_rng(seed + 1)
    inputs = [rng.standard_normal(n) for _ in range(rounds)]
    delivered_sum = np.zeros(n)
    for t, x in enumerate(inputs):
        delivered_sum += ef.transfer(x, epoch=1, message_id=t, worker=0)
    total = delivered_sum + ef.residual(0)
    np.testing.assert_allclose(total, np.sum(inputs, axis=0), rtol=1e-9, atol=1e-9)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rounds=st.integers(min_value=1, max_value=8),
       workers=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_ef_telescopes_per_worker(rounds, workers, seed):
    """The invariant holds independently per worker over a shared channel."""
    ef = EFChannel(MaskChannel(0.5, seed=seed))
    rng = np.random.default_rng(seed + 1)
    n = 32
    sums = {w: np.zeros(n) for w in range(workers)}
    totals = {w: np.zeros(n) for w in range(workers)}
    for t in range(rounds):
        for w in range(workers):
            x = rng.standard_normal(n)
            totals[w] += x
            sums[w] += ef.transfer(x, epoch=1, message_id=t, worker=w)
    for w in range(workers):
        np.testing.assert_allclose(
            sums[w] + ef.residual(w), totals[w], rtol=1e-9, atol=1e-9
        )
