"""Perf ledger: five end-to-end workloads, host-normalised, with a per-layer trace.

    python benchmarks/ledger/run.py [--workload NAME|all] [--seed N]
                                    [--seconds S] [--trace [0|1]] [--out FILE]
    python benchmarks/ledger/run.py --compare A B

Each workload runs in its own child process (``child.py``), pinned to
one CPU under a fixed hash seed: once untraced for the end-to-end
numbers and, with ``--trace``, once more traced for the per-layer ones.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  The exit code is non-zero when any output check
failed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import child as child_module  # noqa: E402
import compare  # noqa: E402
import protocol  # noqa: E402
from refkernel import RefKernel  # noqa: E402

#: Set-up is timed this many times per run (fresh process each); the
#: median is reported, since one sample of a 0.4 s import is mostly noise.
SETUP_SAMPLES = 3
#: Set-up is imports and small-object construction: mostly interpreter-bound.
SETUP_INTERP_SHARE = 0.8
MIN_UNITS = 4
#: With at most 20 units no percentile above the median has ten samples
#: beyond it, so medians are all the ledger reports.
MAX_UNITS = 20
QUICK_UNITS = 2
#: Unit wall times (s) on the host the ledger was sized on; they turn
#: ``--seconds`` into a unit count that does not depend on the host, so
#: the exact metrics (top1 after N epochs) are the same everywhere.
NOMINAL_UNIT_S = {
    "wire-1m": 1.3,
    "ddp-dumbbell": 0.87,
    "fabric-tenants": 0.45,
    "cluster-incast": 0.36,
    "chaos-campaign": 1.35,
}


def units_for(workload: str, seconds: float) -> int:
    return max(MIN_UNITS, min(MAX_UNITS, round(seconds / NOMINAL_UNIT_S[workload])))


def run_child(workload: str, seed: int, extra: Sequence[str]) -> dict:
    """Start one child, wait for it, return its result record."""
    env = {**os.environ, **child_module.FIXED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.setdefault("REPRO_LOG_LEVEL", "WARNING")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--t0", repr(time.perf_counter()), *extra,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    for line in reversed(done.stdout.splitlines()):
        if line.startswith(child_module.MARKER):
            return json.loads(line[len(child_module.MARKER):])
    raise RuntimeError(f"child for {workload} exited {done.returncode} without a result")


def sample_setup(workload: str, seed: int, samples: int, kernel: RefKernel) -> List[float]:
    """Host-normalised set-up times, each bracketed by the reference kernel."""
    refs = [kernel.run()]
    walls = []
    for _ in range(samples):
        walls.append(run_child(workload, seed, ["--setup-only"])["setup_wall_s"])
        refs.append(kernel.run())
    return protocol.normalise(walls, refs, SETUP_INTERP_SHARE)


def layer_metrics(traced: dict, untraced_unit_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced child (0 where a layer did not run)."""
    self_s = traced["self_s"]
    counters = traced["counters"]
    process = traced["process"]
    summary = traced["summary"]
    values: Dict[str, float] = {}
    for layer in catalogue.PER_LAYER:
        if layer.spans:
            values[layer.name] = sum(self_s.get(name, 0.0) for name in layer.spans)
        else:
            values[layer.name] = float(counters.get(layer.name, 0.0))
    data_packets = counters.get("packet.packets", 0) - counters.get("core.messages", 0)
    lookups = process["cache_hits"] + process["cache_misses"]
    events = counters.get("net.events", 0)
    values.update(
        {
            "train.trim_share": counters.get("packets_trimmed", 0) / data_packets if data_packets else 0.0,
            "transport.retransmits": process["retransmits"],
            "transforms.cache_hit_share": process["cache_hits"] / lookups if lookups else 0.0,
            "packet.arena_acquired": process["arena_acquired"],
            "packet.arena_reuse_share": (
                process["arena_reused"] / process["arena_acquired"] if process["arena_acquired"] else 0.0
            ),
            "net.us_per_event": values["net.sim_run_s"] / events * 1e6 if events else 0.0,
            "net.modeled_s": traced["modeled_s"],
            "obs.metric_series": traced["metric_series"],
            "bench.reps": summary["reps"],
            "bench.unit_raw_s": summary["unit_raw_s"],
            "bench.unit_iqr": summary["unit_iqr"],
            "bench.ref_s": summary["ref_s"],
            "bench.ref_spread": summary["ref_spread"],
            "bench.trace_overhead": summary["unit_s"] / untraced_unit_s,
            "bench.unattributed_share": traced["unattributed_share"],
            "fail_share": traced["failed"] / traced["attempted"],
        }
    )
    values.update(traced["outputs"])
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
                 keep_spans: bool, kernel: RefKernel) -> dict:
    """Everything one workload reports, as one result record."""
    units = QUICK_UNITS if quick else units_for(workload, seconds)
    extra = ["--units", str(units)] + (["--warmups", "0"] if quick else [])
    setups = sample_setup(workload, seed, 1 if quick else SETUP_SAMPLES, kernel)
    untraced = run_child(workload, seed, extra)
    summary = untraced["summary"]
    runs = [untraced]
    end_to_end = {
        "unit_s": summary["unit_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "fail_share": untraced["failed"] / untraced["attempted"],
        **untraced["outputs"],
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "units": units,
        "noisy": summary["noisy"],
        "end_to_end": end_to_end,
        "n": {"unit_s": summary["reps"], "setup_s": len(setups)},
        "bench": {k: summary[k] for k in ("unit_raw_s", "unit_iqr", "ref_s", "ref_spread")},
        "setup_samples_s": setups,
        "unit_samples_s": summary["normalised"],
        "steady_units": summary["steady"],
        "raw": {"unit_walls_s": untraced["unit_walls"], "ref_walls_s": untraced["ref_walls"]},
        "totals": untraced["totals"],
    }
    if trace:
        traced = run_child(workload, seed, extra + ["--traced", "1", "--spans", str(int(keep_spans))])
        runs.append(traced)
        record["noisy"] = record["noisy"] or traced["summary"]["noisy"]
        record["per_layer"] = layer_metrics(traced, summary["unit_s"])
        if traced["totals"] != untraced["totals"] or traced["outputs"] != untraced["outputs"]:
            traced["problems"].append(
                "traced and untraced runs disagree on exact counters: "
                f"{traced['totals']} {traced['outputs']} vs {untraced['totals']} {untraced['outputs']}"
            )
        if keep_spans:
            record["spans"] = traced["spans"]
    record["attempted"] = sum(run["attempted"] for run in runs)
    record["failed"] = sum(run["failed"] for run in runs)
    record["problems"] = [line for run in runs for line in run["problems"]]
    record["correct"] = not record["problems"] and record["failed"] == 0
    return record


def print_record(record: dict) -> None:
    """Every metric by name with its unit, one per line."""
    name = record["workload"]
    flag = "  [noisy: host too unsteady, do not trust timings]" if record["noisy"] else ""
    print(f"== {name}  seed={record['seed']}  units={record['units']}{flag}")
    for entry in catalogue.END_TO_END:
        if entry.name in record["end_to_end"]:
            n = record["n"].get(entry.name)
            count = f"  (median, n={n})" if n else ""
            print(f"  {entry.name:<24} {record['end_to_end'][entry.name]:>14.6g} {entry.unit}{count}")
    printed = {entry.name for entry in catalogue.END_TO_END}
    layers = {
        layer: record["per_layer"][layer.name]
        for layer in catalogue.PER_LAYER
        if "per_layer" in record and layer.name not in printed
    }
    for layer, value in layers.items():
        if value:
            print(f"  {layer.name:<32} {value:>14.6g} {layer.unit}")
    idle = [layer.name for layer, value in layers.items() if not value]
    if idle:
        print(f"  0 (layer does not run here): {' '.join(idle)}")
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed")
    for line in record["problems"]:
        print(f"  CHECK FAILED: {line}")


def contract_line(records: List[dict], trace: bool) -> str:
    """The one-object summary the driver reads from the last stdout line."""
    if len(records) == 1:
        source = records[0]["per_layer"] if trace else records[0]["end_to_end"]
        listed = catalogue.PER_LAYER if trace else [
            e for e in catalogue.END_TO_END if e.name in catalogue.GATED
        ]
        metrics = {m.name: {"value": source.get(m.name, 0.0), "unit": m.unit} for m in listed}
    else:
        metrics = {}
    return json.dumps(
        {
            "correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics,
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*catalogue.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS,
                        help="timed seconds per workload on the sizing host (sets the unit count)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run the traced child and report per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="2 units, no warm-up: a smoke run")
    parser.add_argument("--out", type=Path, help="write the result records (and spans) here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sets of result files (file, directory or comma list each)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: the ledger measures the package in this checkout", file=sys.stderr)
        return 2

    child_module.pin_to_one_cpu()
    kernel = RefKernel()
    kernel.run()
    names = list(catalogue.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.quick, args.out is not None, kernel
        )
        print_record(record)
        records.append(record)
    if args.out is not None:
        args.out.write_text(json.dumps({"schema": 1, "results": records}))
    print(contract_line(records, bool(args.trace)))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
