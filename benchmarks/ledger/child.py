"""One measurement process: set up one workload, warm up, time its units.

``run.py`` starts this file once per (workload, traced or not) and, with
``--setup-only``, once more per set-up sample.  The result is one JSON
line on stdout, prefixed with :data:`MARKER` so that anything the
program itself prints cannot be mistaken for it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

MARKER = "@@ledger@@"

#: The environment every measurement process runs under (it re-executes
#: itself when started without it).
FIXED_ENV = {
    # Set iteration order must not differ between two runs.
    "PYTHONHASHSEED": "0",
    # glibc malloc: keep freed heap and serve arrays below 32 MB from it.
    # By default the codec's 8 MB numpy temporaries go back to the kernel
    # and are faulted in again by a hysteresis that makes wire-1m's units
    # differ by 90-250 ms of page-fault time (+-7 %).  Page-fault cost is
    # therefore not part of unit_s; peak_rss_mb carries the memory side.
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}

def pin_to_one_cpu() -> None:
    """Run on a single CPU: the cluster driver's job threads otherwise
    hand the GIL across cores and unit times turn bimodal."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def process_counters() -> Dict[str, int]:
    """Snapshot of the process-wide pools and caches (0 where removed).

    They depend on what ran before in the process, so their per-unit
    deltas are reported but never compared between units or runs.
    """
    import repro.core.quantizers as quantizers
    import repro.transforms.rotation as rotation
    from repro.obs.metrics import get_registry

    from workloads import get_arena

    hits = misses = 0
    for module, name in (
        (rotation, "_cached_signs"),
        (rotation, "_row_plan"),
        (quantizers, "_cached_dither"),
    ):
        cache_info = getattr(getattr(module, name, None), "cache_info", None)
        if cache_info is not None:
            info = cache_info()
            hits += info.hits
            misses += info.misses
    arena = get_arena() if get_arena is not None else None
    retransmits = get_registry().get("repro_transport_retransmissions_total")
    return {
        "arena_acquired": arena.acquired if arena is not None else 0,
        "arena_reused": arena.reused if arena is not None else 0,
        "cache_hits": hits,
        "cache_misses": misses,
        "retransmits": int(retransmits.total()) if retransmits is not None else 0,
    }


def metric_series() -> int:
    from repro.obs.metrics import get_registry

    return sum(len(metric.series()) for metric in get_registry().collect())


def measure(workload, units: int, warmups: int, tracer, keep_spans: bool) -> dict:
    """Warm up, then time ``units`` units bracketed by the reference kernel."""
    import protocol
    import spans
    from refkernel import RefKernel

    kernel = RefKernel()
    results = []
    for index in range(warmups):
        results.append(workload.unit(index))
    kernel.run()  # the kernel's own first run is cold
    refs = [kernel.run()]
    unit_walls: List[float] = []
    process: List[Dict[str, int]] = []
    modeled_s: List[float] = []
    unit_records: List[list] = []
    for index in range(warmups, warmups + units):
        gc.collect()
        workload.profilers.clear()
        before = process_counters()
        first_record = len(tracer.records) if tracer is not None else 0
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        with workload.span("unit"):
            results.append(workload.unit(index))
        unit_walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
            unit_records.append(spans.rebase(tracer.records[first_record:], first_record))
        after = process_counters()
        process.append({key: after[key] - before[key] for key in after})
        modeled_s.append(sum(p.modeled_s for p in workload.profilers))
        refs.append(kernel.run())

    summary = protocol.summarise(unit_walls, refs, workload.interp_share)
    problems = [line for unit in results for line in unit.problems]
    timed = results[warmups:]
    if workload.repeats:
        first = results[0].counters
        for index, unit in enumerate(results[1:], start=1):
            for key, value in unit.counters.items():
                if key not in workload.varies and value != first[key]:
                    problems.append(
                        f"unit {index} is not a repeat of unit 0: {key} {value!r} != {first[key]!r}"
                    )
    out = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced": tracer is not None,
        "units": units,
        "warmups": warmups,
        "unit_walls": unit_walls,
        "ref_walls": refs,
        "summary": summary,
        "attempted": sum(unit.attempted for unit in results),
        "failed": sum(unit.failed for unit in results),
        "problems": problems,
        "counters": workload.per_unit(timed),
        "totals": workload.totals(results),
        "outputs": workload.outputs(results),
        "process": {key: statistics.median(p[key] for p in process) for key in process[0]},
        "metric_series": metric_series(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # Per unit: self seconds by span name, scaled like the unit itself.
        per_unit: List[Dict[str, float]] = []
        unattributed: List[float] = []
        for records, wall, before, after in zip(unit_records, unit_walls, refs, refs[1:]):
            scale = 1.0 / protocol.slowdown(before, after, workload.interp_share)
            self_ns = spans.self_times(records)
            attributed = sum(ns for name, ns in self_ns.items() if name != "unit")
            unattributed.append(1.0 - attributed * 1e-9 / wall)
            per_unit.append({name: ns * 1e-9 * scale for name, ns in self_ns.items()})
        steady = summary["steady"]
        names = sorted({name for unit in per_unit for name in unit})
        out["self_s"] = {
            name: statistics.median(per_unit[i].get(name, 0.0) for i in steady) for name in names
        }
        out["unattributed_share"] = statistics.median(unattributed[i] for i in steady)
        out["modeled_s"] = statistics.median(modeled_s)
        if keep_spans:
            out["spans"] = tracer.records
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=10)
    parser.add_argument("--warmups", type=int, default=None)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spans", type=int, default=0, help="include span records in the result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--t0", type=float, default=None,
        help="perf_counter() of the parent just before it started this process",
    )
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.perf_counter()
    if any(os.environ.get(key) != value for key, value in FIXED_ENV.items()):
        os.environ.update(FIXED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    pin_to_one_cpu()

    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        tracer = Tracer(time.thread_time_ns if cls.threaded else time.perf_counter_ns)
    workload = cls(args.seed, tracer)
    setup_wall = time.perf_counter() - t0
    if args.setup_only:
        result = {"workload": args.workload, "seed": args.seed, "setup_wall_s": setup_wall}
    else:
        if tracer is not None:
            import tracing

            tracing.install(tracer, workload.profilers)
        warmups = cls.warmups if args.warmups is None else args.warmups
        result = measure(workload, args.units, warmups, tracer, bool(args.spans))
        result["setup_wall_s"] = setup_wall
    sys.stdout.write(f"\n{MARKER}{json.dumps(result)}\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
