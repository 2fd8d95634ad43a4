"""One entry point per paper figure/table (see DESIGN.md experiment index).

All experiments share the scaled-down training setting calibrated in
EXPERIMENTS.md: a BN-free VGG-style CNN (matching VGG-19's heterogeneous
layer gradient scales, the mechanism behind the sign codec's failure) on
a 50-class synthetic CIFAR-100 stand-in, 2 workers, the paper's SGD
recipe.  Training runs are cached per (codec, trim rate) so Figure 3 and
Figure 4 reuse one sweep.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from ..collectives import AllReduceHook
from ..core import RHTCodec, codec_by_name, nmse
from ..nn import make_dataset, make_vgg
from ..train import (
    DDPTrainer,
    RoundTimeModel,
    TimingConfig,
    TrainConfig,
    TrimChannel,
    measure_codec_throughput,
)
from .harness import ExperimentResult, bench_scale

__all__ = [
    "CODEC_NAMES",
    "trim_rates",
    "train_epochs",
    "training_dataset",
    "run_training",
    "time_model",
    "fig3_tta",
    "fig4_time_to_baseline",
    "fig5_breakdown",
    "t1_transport_drops",
    "t2_codec_nmse",
    "f2_layout",
]

CODEC_NAMES = ("sign", "sq", "sd", "rht")

#: RHT row size for the scaled-down models (the paper's 2^15 exceeds the
#: model size here; see the A3 ablation for the row-size sweep).
RHT_ROW_SIZE = 4096


def trim_rates(scale: Optional[str] = None) -> List[float]:
    """Trim-rate grid: the paper sweeps 0.1 % .. 50 %."""
    scale = scale or bench_scale()
    if scale == "full":
        return [0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    return [0.01, 0.1, 0.5]


def train_epochs(scale: Optional[str] = None) -> int:
    """Scaled-down stand-in for the paper's 150 epochs."""
    scale = scale or bench_scale()
    return 16 if scale == "full" else 8


@lru_cache(maxsize=1)
def training_dataset():
    """The synthetic CIFAR-100 stand-in (see DESIGN.md substitutions)."""
    return make_dataset(
        num_classes=50,
        train_per_class=40,
        test_per_class=10,
        image_size=12,
        noise=2.5,
        seed=0,
    )


def _make_model():
    """BN-free VGG (heterogeneous layer gradient scales, like VGG-19)."""
    return make_vgg(
        "vgg-mini",
        num_classes=50,
        image_size=12,
        batch_norm=False,
        classifier_width=64,
        seed=1,
    )


@lru_cache(maxsize=1)
def time_model() -> RoundTimeModel:
    """Cost model fed with this machine's measured codec throughput."""
    measured = measure_codec_throughput(num_coords=2**16, repeats=2)
    return RoundTimeModel(TimingConfig(), measured)


@lru_cache(maxsize=64)
def run_training(codec_name: Optional[str], trim_rate: float, epochs: int):
    """One cached training run; returns a TrainingHistory."""
    train, test = training_dataset()
    model = _make_model()
    if codec_name is None:
        hook = AllReduceHook()
    else:
        kwargs = {"row_size": RHT_ROW_SIZE} if codec_name == "rht" else {}
        codec = codec_by_name(codec_name, root_seed=3, **kwargs)
        hook = AllReduceHook(TrimChannel(codec, trim_rate, seed=5))
    config = TrainConfig(
        epochs=epochs,
        batch_size=16,
        lr=0.05,
        momentum=0.9,
        step_size=max(2, epochs * 5 // 8),
        gamma=0.2,
        seed=0,
        augment=False,
    )
    trainer = DDPTrainer(
        model,
        train,
        test,
        world_size=2,
        hook=hook,
        config=config,
        time_model=time_model(),
        codec_name=codec_name,
        trim_rate=trim_rate,
    )
    return trainer.train()


# -- Figure 3: TTA curves ------------------------------------------------------


def fig3_tta(scale: Optional[str] = None) -> Dict[float, Dict[str, list]]:
    """Top-1 accuracy vs modeled wall-clock per codec, per trim rate.

    Returns ``{trim_rate: {label: [(seconds, top1), ...]}}`` — one panel
    per trim rate, exactly Figure 3's layout.
    """
    epochs = train_epochs(scale)
    baseline = run_training(None, 0.0, epochs)
    panels: Dict[float, Dict[str, list]] = {}
    for rate in trim_rates(scale):
        panel = {"baseline": baseline.accuracy_curve()}
        for name in CODEC_NAMES:
            panel[name] = run_training(name, rate, epochs).accuracy_curve()
        panels[rate] = panel
    return panels


# -- Figure 4: time-to-baseline-accuracy -----------------------------------------


def fig4_time_to_baseline(scale: Optional[str] = None) -> ExperimentResult:
    """Seconds to reach the baseline's accuracy band, per codec & rate.

    The paper's Figure 4: each codec's time to reach the no-congestion
    NCCL baseline accuracy, as a function of trim rate; "n/a" marks runs
    that never get there (the sign codec at high rates).
    """
    epochs = train_epochs(scale)
    baseline = run_training(None, 0.0, epochs)
    target = 0.9 * baseline.best_top1  # accuracy band, robust to noise
    rows = []
    for rate in trim_rates(scale):
        for name in CODEC_NAMES:
            history = run_training(name, rate, epochs)
            tta = history.time_to_accuracy(target)
            rows.append(
                [
                    f"{rate:.1%}",
                    name,
                    f"{tta:.1f}" if tta is not None else "n/a (never reaches)",
                    f"{history.final_top1:.3f}",
                    f"{history.final_top5:.3f}",
                    "yes" if history.diverged or history.final_top1 < 0.1 else "no",
                ]
            )
    baseline_time = baseline.time_to_accuracy(target)
    notes = (
        f"baseline best top-1 {baseline.best_top1:.3f}; target band "
        f"{target:.3f}; baseline reaches it in {baseline_time:.1f}s "
        f"(modeled wall-clock, {epochs} epochs)"
    )
    return ExperimentResult(
        experiment_id="F4 time-to-baseline-accuracy",
        headers=["trim rate", "codec", "time-to-target (s)", "final top1", "final top5", "failed"],
        rows=rows,
        notes=notes,
    )


# -- Figure 5: per-round time breakdown -------------------------------------------


def fig5_breakdown(num_coords: int = 20_000_000) -> ExperimentResult:
    """Compute / encode / comm breakdown per training round, per codec.

    Paper facts to match in shape: trimmable encoding adds ~42-68 % per
    round; RHT is ~18 % slower than the scalar codecs.
    """
    tm = time_model()
    rows = []
    base = tm.round_time(num_coords, codec_name=None)
    rows.append(
        ["baseline", f"{base.compute_s*1e3:.1f}", "0.0",
         f"{base.comm_s*1e3:.2f}", f"{base.total_s*1e3:.1f}", "1.00"]
    )
    sq_total = None
    for name in CODEC_NAMES:
        rt = tm.round_time(num_coords, codec_name=name)
        if name == "sq":
            sq_total = rt.total_s
        rows.append(
            [
                name,
                f"{rt.compute_s*1e3:.1f}",
                f"{rt.encode_s*1e3:.1f}",
                f"{rt.comm_s*1e3:.2f}",
                f"{rt.total_s*1e3:.1f}",
                f"{rt.total_s / base.total_s:.2f}",
            ]
        )
    rht_total = tm.round_time(num_coords, codec_name="rht").total_s
    notes = (
        f"encode overhead vs baseline: sq {sq_total / base.total_s - 1:.0%}, "
        f"rht {rht_total / base.total_s - 1:.0%} "
        f"(paper: +42-68%); rht vs scalar: {rht_total / sq_total - 1:+.0%} "
        f"(paper: ~+18%); measured ns/coord: "
        + ", ".join(f"{k}={v:.1f}" for k, v in tm.codec_ns_per_coord.items())
    )
    return ExperimentResult(
        experiment_id="F5 per-round time breakdown",
        headers=["codec", "compute ms", "encode ms", "comm ms", "total ms", "vs baseline"],
        rows=rows,
        notes=notes,
    )


# -- T1: transport drop tolerance (Section 4.4 in-text claims) -----------------------


def t1_transport_drops(scale: Optional[str] = None) -> ExperimentResult:
    """Go-back-N FCT blow-up vs drop rate; trimming transport stays flat.

    Reproduces the Section 4.4 in-text numbers on the discrete-event
    simulator: the baseline tolerates ~0.2 % drops, collapses at 1-2 %;
    the trimming transport completes with zero retransmissions even when
    half its packets are trimmed.  Each flow is one
    :class:`~repro.transport.transfer.Transfer`; FCT is the sender's
    (first send to completing ACK), counts are its tally.
    """
    from ..core import packetize
    from ..net import dumbbell
    from ..transport import (
        AIMD,
        FixedWindow,
        GoBackNSender,
        Transfer,
        TrimmingSender,
        segment_bytes,
    )

    scale = scale or bench_scale()
    message_bytes = 2_000_000 if scale == "quick" else 8_000_000
    drop_grid = [0.0, 0.002, 0.01, 0.02] if scale == "quick" else [
        0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    ]
    rows = []
    base_fct = None
    for drop in drop_grid:
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", drop_prob=drop)
        sender = GoBackNSender(
            net.hosts["tx0"], flow_id=1, cc=AIMD(initial_window=32), rto_min=1e-3
        )
        Transfer(net, sender, segment_bytes("tx0", "rx0", message_bytes, flow_id=1)).start()
        net.sim.run(until=30.0)
        fct = sender.fct_s
        if drop <= 0.0:
            base_fct = fct
        rows.append(
            [
                "go-back-N",
                f"{drop:.2%}",
                f"{fct*1e3:.2f}",
                f"{fct / base_fct:.1f}x",
                sender.tally.retransmissions,
                "-",
            ]
        )
    # Trimming transport under heavy trimming.
    for trim in [0.0, 0.2, 0.5]:
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", trim_prob=trim)
        x = np.random.default_rng(0).standard_normal(message_bytes // 4)
        codec = RHTCodec(root_seed=1, row_size=RHT_ROW_SIZE)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=2, cc=FixedWindow(64))
        Transfer(net, sender, packetize(codec.encode(x), "tx0", "rx0", flow_id=2)).start()
        net.sim.run(until=30.0)
        rows.append(
            [
                "trimming",
                f"trim {trim:.0%}",
                f"{sender.fct_s*1e3:.2f}",
                f"{sender.fct_s / base_fct:.1f}x",
                sender.tally.retransmissions,
                sender.tally.trims_reported,
            ]
        )
    return ExperimentResult(
        experiment_id="T1 transport drop tolerance (Section 4.4)",
        headers=["transport", "impairment", "FCT ms", "vs clean GBN", "retransmissions", "trimmed"],
        rows=rows,
        notes="paper: baseline tolerates 0.15-0.25% drops; 1-2% -> 5-10x or timeouts",
    )


# -- T2: codec reconstruction quality ---------------------------------------------


def t2_codec_nmse(num_coords: int = 2**16) -> ExperimentResult:
    """NMSE vs trim rate per codec, Gaussian and heavy-tailed inputs.

    The quality mechanism behind Figure 3: RHT's rotation makes its
    1-bit decode distribution-independent, while the scalar codecs
    degrade badly on heavy-tailed gradients (which real training has).
    """
    rng = np.random.default_rng(0)
    inputs = {
        "gaussian": rng.standard_normal(num_coords),
        "heavy-tail": rng.standard_t(df=2, size=num_coords),
    }
    rows = []
    for input_name, x in inputs.items():
        for rate in [0.02, 0.1, 0.5, 1.0]:
            row = [input_name, f"{rate:.0%}"]
            for name in CODEC_NAMES:
                kwargs = {"row_size": RHT_ROW_SIZE} if name == "rht" else {}
                codec = codec_by_name(name, root_seed=1, **kwargs)
                enc = codec.encode(x, epoch=0, message_id=1)
                mask = np.random.default_rng(2).random(enc.length) < rate
                row.append(f"{nmse(x, codec.decode(enc, trimmed=mask)):.3f}")
            rows.append(row)
    return ExperimentResult(
        experiment_id="T2 codec NMSE vs trim rate",
        headers=["input", "trim rate", *CODEC_NAMES],
        rows=rows,
        notes="lower is better; rht should dominate at high rates on heavy tails",
    )


# -- F2: Section 2 worked layout example -------------------------------------------


def f2_layout() -> ExperimentResult:
    """The Section 2 arithmetic: n≈365 coords, trim at 87 B, 94.2 %."""
    from ..core import TrimmableLayout, paper_worked_example

    paper = paper_worked_example()
    ours = TrimmableLayout()
    jumbo = TrimmableLayout(mtu=9000)
    rows = [
        ["paper (42 B hdr only)", paper.mtu, paper.coords, paper.trim_threshold,
         f"{paper.compression_ratio:.1%}"],
        ["self-describing hdr", ours.mtu, ours.coords, ours.trim_threshold,
         f"{ours.compression_ratio:.1%}"],
        ["jumbo frames", jumbo.mtu, jumbo.coords, jumbo.trim_threshold,
         f"{jumbo.compression_ratio:.1%}"],
    ]
    return ExperimentResult(
        experiment_id="F2 packet layout worked example (Section 2)",
        headers=["layout", "MTU", "coords/pkt", "trim at (B)", "compression"],
        rows=rows,
        notes="paper's numbers: n=365, trim at 87 B, 94.2% compression",
    )
