"""Benchmark harness utilities: scale control, tables, ASCII series.

Every benchmark prints the same rows/series the paper's figures report,
through :func:`emit` (which bypasses pytest's capture so the output
lands in the terminal / tee file).  ``REPRO_BENCH_SCALE=full`` widens
sweeps and lengthens training to paper-like grids; the default ``quick``
profile keeps the whole suite to a few minutes while preserving every
qualitative shape.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.export import build_report
from ..obs.metrics import get_registry
from ..obs.trace import Tracer, get_tracer

__all__ = [
    "bench_scale",
    "emit",
    "format_table",
    "ascii_chart",
    "ExperimentResult",
    "emit_obs_report",
]


def bench_scale() -> str:
    """``quick`` (default) or ``full``, from REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'quick' or 'full', got {scale!r}")
    return scale


#: Every emitted line, in order — the benchmarks' conftest replays this
#: buffer in the terminal summary (pytest captures stdout at the fd
#: level, so direct writes from inside a test would be swallowed).
EMITTED: List[str] = []


def emit(text: str) -> None:
    """Record a result block and best-effort print it immediately."""
    EMITTED.append(text)
    try:
        sys.__stdout__.write(text + "\n")
        sys.__stdout__.flush()
    except (OSError, ValueError):  # no real stdout (rare CI setups)
        pass


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: Optional[str] = None
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit_obs_report(tracer: Optional[Tracer] = None, title: str = "bench run") -> None:
    """Emit the observability report for ``tracer`` (default: the global one).

    A disabled or empty tracer emits nothing, so benchmarks can call
    this unconditionally.
    """
    tracer = tracer or get_tracer()
    if not tracer.enabled or not tracer.events:
        return
    events = [e.to_json() for e in tracer.events]
    emit("\n" + build_report(events, registry=get_registry(), title=title))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def ascii_chart(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 72,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot several (x, y) series as an ASCII chart (one glyph each)."""
    glyphs = "ox+*#@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs, ys = zip(*points)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for idx, (label, pts) in enumerate(series.items()):
        glyph = glyphs[idx % len(glyphs)]
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph
    lines = [f"{y_label} ({y_lo:.3g} .. {y_hi:.3g})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_lo:.3g} .. {x_hi:.3g}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={label}" for i, label in enumerate(series)
    )
    lines.append(" " + legend)
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """A labelled bundle of table rows, for EXPERIMENTS.md extraction."""

    experiment_id: str
    headers: List[str]
    rows: List[List]
    notes: str = ""

    def render(self) -> str:
        table = format_table(self.headers, self.rows, title=f"[{self.experiment_id}]")
        return table + (f"\n{self.notes}" if self.notes else "")

    def to_json(self) -> str:
        """Machine-readable form (archived next to the text tables)."""
        import json

        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "headers": list(self.headers),
                "rows": [[_json_safe(c) for c in row] for row in self.rows],
                "notes": self.notes,
            }
        )


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return value.item()  # numpy scalars
    except AttributeError:
        return str(value)
