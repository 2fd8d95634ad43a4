"""Span wrappers around ``repro``'s public entry points (traced run only).

The benchmark never edits the program: it replaces functions and
methods, from outside, with versions that open a span and call the
original.  Functions imported by name (``from .packetizer import
packetize``) are rebound in every ``repro.*`` module that holds the
original object, so internal callers are traced too.

Inside ``Simulator.run`` spans would cost more than the events they
time, so the event loop is split by the existing
:class:`repro.obs.profile.SimProfiler` instead: its per-stage wall
totals become aggregate child records of the ``net.sim_run`` span, and
that span's self time is what the loop itself costs (``net.dispatch_s``).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterator

from repro.obs.profile import SimProfiler

from spans import Tracer

__all__ = ["install", "profile_network"]


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every attribute of ``repro.*`` (and the workloads) holding ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name in ("repro", "workloads") or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, fn: Callable, name: str, leaf: bool = False) -> None:
    _rebind(fn, tracer.wrap(fn, name, leaf=leaf))


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, inner: bool = False) -> None:
    original = cls.__dict__[attr]
    wrapped = tracer.wrap_inner(original, name) if inner else tracer.wrap(original, name)
    setattr(cls, attr, wrapped)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class _StageProfiler(SimProfiler):
    """A SimProfiler whose ``sim.run`` is also a ``net.sim_run`` span."""

    def __init__(self, tracer: Tracer, sim) -> None:
        super().__init__()
        self.tracer = tracer
        self.modeled_s = 0.0
        self.install(sim)
        profiled_run = sim.run

        def run(until=None, max_events=None):
            if not tracer.enabled:
                return profiled_run(until=until, max_events=max_events)
            before = {stage: p.wall_s for stage, p in self.profiles.items()}
            modeled_before = self.total_modeled_s
            with tracer.span("net.sim_run", leaf=True) as index:
                try:
                    return profiled_run(until=until, max_events=max_events)
                finally:
                    children: Dict[str, int] = {
                        f"sim.{stage}": int((p.wall_s - before.get(stage, 0.0)) * 1e9)
                        for stage, p in self.profiles.items()
                    }
                    for name, spent in tracer.take_inner().items():
                        children[f"{name}@sim"] = spent
                    tracer.add_children(index, children)
                    self.modeled_s += self.total_modeled_s - modeled_before

        sim.run = run

    def _observe(self, callback, now, wall_s):
        # Time already credited to a wrap_inner() bucket (Packet.trim, INT
        # stamping) must not be credited to the callback's stage as well.
        tracer = self.tracer
        if tracer.inner_ns:
            wall_s -= tracer.inner_ns * 1e-9
            tracer.inner_ns = 0
        super()._observe(callback, now, wall_s)


def profile_network(tracer: Tracer, network, sink: list) -> None:
    """Split ``network.sim.run`` by stage; the profiler is kept in ``sink``."""
    sink.append(_StageProfiler(tracer, network.sim))


def install(tracer: Tracer, profilers: list) -> None:
    """Wrap every traced entry point.  Call once, after importing ``repro``."""
    import repro.cluster.driver as cluster_driver
    import repro.core as core
    import repro.faults.campaign as campaign
    import repro.nn.functional as functional
    import repro.nn.metrics as nn_metrics
    import repro.packet.bitpack as bitpack
    import repro.transforms.hadamard as hadamard
    import repro.transforms.prng as prng
    import repro.transforms.rotation as rotation
    from repro.collectives.hooks import CommHook
    from repro.core.codec import GradientCodec
    from repro.nn.data import DataLoader
    from repro.nn.layers import Module
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor
    from repro.obs.int_telemetry import INTCollector, INTExtension
    from repro.packet.packet import Packet
    from repro.train.network_channel import NetworkChannel
    from repro.transport.base import MessageSenderBase

    # nn
    _wrap_method(tracer, Module, "__call__", "nn.forward")
    _wrap_method(tracer, Tensor, "backward", "nn.backward")
    for attr in ("zero_grad", "flat_gradient", "load_flat_gradient"):
        _wrap_method(tracer, Module, attr, "nn.grad")
    _wrap_method(tracer, SGD, "step", "nn.optim")
    _wrap_function(tracer, functional.cross_entropy, "nn.loss")
    _wrap_function(tracer, nn_metrics.evaluate, "nn.eval", leaf=True)
    batches = DataLoader.__iter__

    def traced_batches(self):
        source = batches(self)
        while True:
            with tracer.span("nn.data"):
                try:
                    batch = next(source)
                except StopIteration:
                    return
            yield batch

    DataLoader.__iter__ = traced_batches

    # core / transforms / packet
    for codec in _subclasses(GradientCodec):
        for attr in ("encode", "decode"):
            if attr in codec.__dict__:
                _wrap_method(tracer, codec, attr, f"core.{attr}.{codec.name}")
    _wrap_function(tracer, core.packetize, "core.packetize")
    depacketize = core.depacketize
    full = tracer.wrap(depacketize, "core.depacketize")
    cut = tracer.wrap(depacketize, "core.depacketize_trimmed")

    def traced_depacketize(packets, length=None):
        packets = list(packets)
        if tracer.enabled and any(p.is_trimmed for p in packets):
            return cut(packets, length=length)
        return full(packets, length=length)

    _rebind(depacketize, traced_depacketize)
    _wrap_function(tracer, bitpack.pack_segments, "packet.bitpack")
    _wrap_function(tracer, bitpack.unpack_batch, "packet.bitpack")
    _wrap_function(tracer, hadamard.fwht_inplace, "transforms.fwht")
    _wrap_function(tracer, hadamard.fwht, "transforms.fwht")
    _wrap_function(tracer, prng.shared_generator, "transforms.prng")
    _wrap_function(tracer, prng.derive_seed, "transforms.prng")
    _wrap_function(tracer, rotation.random_signs, "transforms.prng")
    _wrap_method(tracer, Packet, "trim", "packet.trim", inner=True)

    # collectives / train / transport
    _wrap_method(tracer, CommHook, "aggregate", "collectives.aggregate")
    _wrap_method(tracer, NetworkChannel, "transfer", "train.transfer")
    _wrap_method(tracer, MessageSenderBase, "send_message", "transport.send")

    # cluster / faults / obs
    ClusterDriver = cluster_driver.ClusterDriver
    build_network = ClusterDriver.__dict__["build_network"].__func__
    ClusterDriver.build_network = staticmethod(tracer.wrap(build_network, "net.build"))
    construct = tracer.wrap(ClusterDriver.__init__, "cluster.build")

    def traced_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        profile_network(tracer, self.net, profilers)

    ClusterDriver.__init__ = traced_init
    _wrap_method(tracer, ClusterDriver, "run", "cluster.driver")
    _wrap_function(tracer, campaign.draw_plan, "faults.plan")
    _wrap_function(tracer, campaign.run_campaign, "faults.campaign")
    _wrap_method(tracer, INTExtension, "stamp", "obs.int", inner=True)
    _wrap_method(tracer, INTCollector, "collect", "obs.int", inner=True)
