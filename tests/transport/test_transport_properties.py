"""Property-based tests: transports under arbitrary impairment.

Hypothesis drives random loss/trim probabilities and message sizes; the
invariants are delivery (every transport eventually completes under
partial loss) and conservation (a switch never invents or silently
destroys packets beyond its counted drops).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RHTCodec, decode_packets, nmse, packetize
from repro.net import dumbbell
from repro.packet import SingleLevelTrim
from repro.transport import (
    AIMD,
    FixedWindow,
    GoBackNReceiver,
    GoBackNSender,
    TrimmingReceiver,
    TrimmingSender,
    segment_bytes,
)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drop=st.floats(min_value=0.0, max_value=0.15),
    kilobytes=st.integers(min_value=10, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_gbn_always_delivers_in_order(drop, kilobytes, seed):
    """Go-back-N delivers the complete message, in order, at any loss
    rate it can survive (RTO backstop), with no duplicates delivered."""
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", drop_prob=drop)
    net.link_between("s0", "s1")._rng = np.random.default_rng(seed)
    sender = GoBackNSender(
        net.hosts["tx0"], flow_id=1, cc=AIMD(initial_window=16), rto_min=1e-4
    )
    messages = []
    GoBackNReceiver(net.hosts["rx0"], flow_id=1, on_message=messages.append)
    packets = segment_bytes("tx0", "rx0", kilobytes * 1000, flow_id=1)
    sender.send_message(packets)
    net.sim.run(until=60.0)
    assert sender.done
    assert len(messages) == 1
    seqs = [p.seq for p in messages[0]]
    assert seqs == list(range(len(packets)))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trim=st.floats(min_value=0.0, max_value=1.0),
    coords=st.integers(min_value=1000, max_value=60_000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_trimming_transport_completes_without_retransmission(trim, coords, seed):
    """At ANY trim probability the trimming transport completes with
    zero retransmissions and the decode error stays under the DRIVE
    full-trim bound."""
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", trim_prob=trim)
    net.link_between("s0", "s1")._rng = np.random.default_rng(seed)
    codec = RHTCodec(root_seed=seed % 1000, row_size=2048)
    x = np.random.default_rng(seed).standard_normal(coords)
    sender = TrimmingSender(net.hosts["tx0"], flow_id=2, cc=FixedWindow(64))
    messages = []
    TrimmingReceiver(net.hosts["rx0"], flow_id=2, on_message=messages.append)
    sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=2))
    net.sim.run(until=60.0)
    assert sender.done
    assert sender.tally.retransmissions == 0
    decoded = decode_packets(messages[0], codec)
    assert nmse(x, decoded) <= (np.pi / 2 - 1) + 0.3


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    burst_packets=st.integers(min_value=5, max_value=120),
    buffer_kb=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_switch_conservation_invariant(burst_packets, buffer_kb, seed):
    """forwarded + trimmed + dropped == packets offered, and every
    packet the receiver sees was accounted as forwarded or trimmed."""
    net = dumbbell(
        pairs=1,
        edge_rate_bps=100e9,
        bottleneck_rate_bps=1e9,
        trim_policy=SingleLevelTrim(),
        buffer_bytes=buffer_kb * 1000,
    )
    codec = RHTCodec(root_seed=1, row_size=1024)
    x = np.random.default_rng(seed).standard_normal(burst_packets * 364)
    packets = packetize(codec.encode(x), "tx0", "rx0", flow_id=3)
    got = []
    net.hosts["rx0"].set_default_handler(got.append)
    for pkt in packets:
        net.hosts["tx0"].send(pkt)
    net.sim.run()
    s0 = net.switches["s0"].stats
    s1 = net.switches["s1"].stats
    # s0 sees every offered packet exactly once.
    assert s0.forwarded + s0.trimmed + s0.dropped == len(packets)
    # s1 sees exactly what s0 let through.
    assert s1.forwarded + s1.trimmed + s1.dropped == s0.forwarded + s0.trimmed
    # The receiver gets exactly what s1 let through.
    assert len(got) == s1.forwarded + s1.trimmed


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drop=st.floats(min_value=0.0, max_value=0.1),
    trim=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_trimming_transport_survives_mixed_impairment(drop, trim, seed):
    """Drops + trims together: timer recovers drops, trims are kept."""
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", drop_prob=drop, trim_prob=trim)
    net.link_between("s0", "s1")._rng = np.random.default_rng(seed)
    codec = RHTCodec(root_seed=5, row_size=1024)
    x = np.random.default_rng(seed + 1).standard_normal(20_000)
    sender = TrimmingSender(
        net.hosts["tx0"], flow_id=4, cc=FixedWindow(32), rto_min=1e-4
    )
    messages = []
    TrimmingReceiver(net.hosts["rx0"], flow_id=4, on_message=messages.append)
    sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=4))
    net.sim.run(until=60.0)
    assert sender.done
    decoded = decode_packets(messages[0], codec)
    assert np.all(np.isfinite(decoded))


# -- RttEstimator properties --------------------------------------------------

_rtt_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("sample"),
            st.floats(min_value=1e-7, max_value=10.0, allow_nan=False),
        ),
        st.tuples(st.just("backoff"), st.just(0.0)),
    ),
    min_size=0,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    rto_min=st.floats(min_value=1e-6, max_value=1e-2),
    spread=st.floats(min_value=2.0, max_value=1e4),
    ops=_rtt_ops,
)
def test_rto_always_within_configured_bounds(rto_min, spread, ops):
    """No sample/backoff sequence can push rto outside [rto_min, rto_max]."""
    from repro.transport import RttEstimator

    est = RttEstimator(rto_min=rto_min, rto_max=rto_min * spread)
    assert est.rto_min <= est.rto <= est.rto_max
    for op, value in ops:
        if op == "sample":
            est.sample(value)
        else:
            est.backoff()
        assert est.rto_min <= est.rto <= est.rto_max


@settings(max_examples=200, deadline=None)
@given(
    rtt=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    expiries=st.integers(min_value=1, max_value=12),
)
def test_backoff_monotone_until_next_sample(rtt, expiries):
    """Consecutive expiries never shorten the timeout; only a fresh
    sample may bring it back down."""
    from repro.transport import RttEstimator

    est = RttEstimator()
    est.sample(rtt)
    timeline = [est.rto]
    for _ in range(expiries):
        est.backoff()
        timeline.append(est.rto)
    assert timeline == sorted(timeline)
    assert timeline[-1] <= est.rto_max


@settings(max_examples=200, deadline=None)
@given(
    rtt=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    expiries=st.integers(min_value=1, max_value=12),
    fresh=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)
def test_fresh_sample_resets_backoff_multiplier(rtt, expiries, fresh):
    """A successful measurement cancels the exponential penalty: the rto
    right after sample() is the un-backed-off estimate."""
    from repro.transport import RttEstimator

    est = RttEstimator()
    est.sample(rtt)
    for _ in range(expiries):
        est.backoff()
    est.sample(fresh)
    assert est.srtt is not None and est.rttvar is not None
    unbacked = min(est.rto_max, max(est.rto_min, est.srtt + 4 * est.rttvar))
    assert est.rto == unbacked
