"""``run.py --compare A B``: is B worse than A, metric by metric?

Each side is one or more result files written by ``run.py --out`` (a
file, a directory of ``*.json``, or a comma-separated list).  For every
(end-to-end metric, workload) pair both sides report, one row:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  a side's own quartile spread exceeds the bound, so the
                  runs cannot tell (needs at least two files a side);
* ``ok``          otherwise.

Bounds of the gated metrics come from ``BENCHMARK.json``, those of the
exact per-seed metrics from the catalogue.  There is no combined score:
a change is judged row by row.  Exact counters (``totals``) of runs with
the same seed and unit count must be identical, or the row says so.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import catalogue
import protocol

__all__ = ["load_side", "judge", "main"]


def load_side(spec: str) -> List[dict]:
    """Result records of every file one ``--compare`` argument names."""
    records: List[dict] = []
    for part in spec.split(","):
        path = Path(part)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            records.extend(json.loads(file.read_text())["results"])
    return records


def judge(a: List[float], b: List[float], bound: float, better: str, absolute: bool) -> Tuple[str, float]:
    """Verdict and B's change relative to A (positive = worse)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = median_b - median_a if better == "lower" else median_a - median_b
    if not absolute:
        change = change / abs(median_a) if median_a else (0.0 if change == 0 else float("inf"))
    spreads = []
    for values in (a, b):
        spread = protocol.quartile_spread(values)
        if absolute:
            spread *= abs(statistics.median(values))
        spreads.append(spread)
    if max(spreads) > bound:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def main(spec_a: str, spec_b: str, benchmark_json: Path) -> int:
    gated = {m["name"]: m["bound"] for m in json.loads(benchmark_json.read_text())["end_to_end"]}
    sides = []
    for spec in (spec_a, spec_b):
        values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        exact: Dict[Tuple[str, int, int], str] = {}
        for record in load_side(spec):
            for name, value in record["end_to_end"].items():
                values[(record["workload"], name)].append(value)
            key = (record["workload"], record["seed"], record["units"])
            exact[key] = json.dumps(record["totals"], sort_keys=True)
        sides.append((values, exact))
    (values_a, exact_a), (values_b, exact_b) = sides

    worse = 0
    print(f"{'workload':<16} {'metric':<22} {'A median':>12} {'B median':>12} {'change':>9} {'bound':>8}  verdict")
    for workload in catalogue.WORKLOADS:
        for entry in catalogue.END_TO_END:
            a, b = values_a.get((workload, entry.name)), values_b.get((workload, entry.name))
            if not a or not b:
                continue
            bound = gated.get(entry.name, entry.bound)
            verdict, change = judge(a, b, bound, entry.better, entry.absolute)
            worse += verdict == "worse"
            shown = f"{change:+.2e}" if entry.absolute else f"{change:+.2%}"
            print(
                f"{workload:<16} {entry.name:<22} {statistics.median(a):>12.6g} "
                f"{statistics.median(b):>12.6g} {shown:>9} {bound:>8g}  {verdict} (n={len(a)},{len(b)})"
            )
    for key in sorted(set(exact_a) & set(exact_b)):
        if exact_a[key] != exact_b[key]:
            worse += 1
            print(f"{key[0]:<16} exact counters differ for seed {key[1]}, {key[2]} units: "
                  f"{exact_a[key]} vs {exact_b[key]}")
    return 1 if worse else 0
