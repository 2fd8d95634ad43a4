"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Regenerates any paper figure/table without pytest::

    python -m repro.bench f2            # Section 2 layout example
    python -m repro.bench t2            # codec NMSE vs trim rate
    python -m repro.bench fig5          # per-round time breakdown
    python -m repro.bench t1            # transport drop tolerance
    python -m repro.bench fig3 --scale full
    python -m repro.bench fig4
    python -m repro.bench all           # everything (slow)

Pass ``--trace run.jsonl`` to record the gradient-path trace and
append the observability report.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from ..obs.trace import trace_to
from .harness import ascii_chart, emit_obs_report, format_table

_log = logging.getLogger("repro.bench.cli")


def _print_fig3(scale: str) -> None:
    from .experiments import fig3_tta

    panels = fig3_tta(scale)
    for rate, series in sorted(panels.items()):
        _log.info("\n[F3] top-1 accuracy vs modeled wall-clock, trim rate %.1f%%", rate * 100)
        _log.info("%s", ascii_chart(series, x_label="seconds", y_label="top-1"))
        rows = [
            [label, f"{pts[-1][0]:.1f}", f"{pts[-1][1]:.3f}"]
            for label, pts in series.items()
        ]
        _log.info("%s", format_table(["codec", "end time (s)", "final top-1"], rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=["f2", "t2", "fig5", "t1", "fig3", "fig4", "all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "full"],
        default=None,
        help="sweep size (default: REPRO_BENCH_SCALE or 'quick')",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a gradient-path JSONL trace here and append the run report",
    )
    args = parser.parse_args(argv)
    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    scale = args.scale or os.environ.get("REPRO_BENCH_SCALE", "quick")

    from .. import configure_logging

    configure_logging()
    tracer = trace_to(args.trace) if args.trace else None

    from .experiments import (
        f2_layout,
        fig4_time_to_baseline,
        fig5_breakdown,
        t1_transport_drops,
        t2_codec_nmse,
    )

    simple = {
        "f2": f2_layout,
        "t2": t2_codec_nmse,
        "fig5": fig5_breakdown,
        "t1": lambda: t1_transport_drops(scale),
        "fig4": lambda: fig4_time_to_baseline(scale),
    }
    wanted = (
        ["f2", "t2", "fig5", "t1", "fig3", "fig4"]
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in wanted:
        if name == "fig3":
            _print_fig3(scale)
        else:
            _log.info("\n%s", simple[name]().render())
    if tracer is not None:
        emit_obs_report(tracer, title=f"bench {args.experiment}")
        tracer.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
