"""Benchmark harness and per-figure experiment entry points."""

from .experiments import (
    CODEC_NAMES,
    f2_layout,
    fig3_tta,
    fig4_time_to_baseline,
    fig5_breakdown,
    run_training,
    t1_transport_drops,
    t2_codec_nmse,
    time_model,
    train_epochs,
    training_dataset,
    trim_rates,
)
from .harness import (
    ExperimentResult,
    ascii_chart,
    bench_scale,
    emit,
    format_table,
)

__all__ = [
    "CODEC_NAMES",
    "f2_layout",
    "fig3_tta",
    "fig4_time_to_baseline",
    "fig5_breakdown",
    "run_training",
    "t1_transport_drops",
    "t2_codec_nmse",
    "time_model",
    "train_epochs",
    "training_dataset",
    "trim_rates",
    "ExperimentResult",
    "ascii_chart",
    "bench_scale",
    "emit",
    "format_table",
]
