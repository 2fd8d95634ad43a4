"""Timing protocol shared by every workload: bracket, normalise, summarise.

A run is ``ref, unit, ref, unit, ..., ref``: every timed unit sits
between two runs of the reference kernel.  The kernel reports how much
slower than nominal the host currently runs interpreter-bound work
(``interp``) and memory-streaming work (``stream``); a unit that spends
the share ``interp_share`` of its time in the former is reported as

    unit_wall / (interp_share * interp_slowdown + (1 - interp_share) * stream_slowdown)

with both slowdowns averaged over the two bracketing kernel runs — the
unit's time on a host where each kernel part takes its nominal 25 ms.
Raw medians cannot be compared between two runs on this box (see
``refkernel``); dividing by a yardstick measured within a second of the
unit, and mixed like the unit, can.

A unit whose two bracketing kernel runs disagree saw the host change
state midway, so neither bracket describes it: such units are left out
of the medians (second-long units straddle a flip four times in ten).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from refkernel import NOMINAL_INTERP_S, NOMINAL_STREAM_S, RefSample

__all__ = [
    "NOISY_REF_SPREAD",
    "NOISY_UNIT_IQR",
    "BRACKET_TOLERANCE",
    "slowdown",
    "normalise",
    "steady_units",
    "quartile_spread",
    "summarise",
]

#: max/min of the run's reference walls above which the host was not
#: steady enough for the normalisation to be trusted.
NOISY_REF_SPREAD = 1.5
#: quartile spread of the normalised unit times above which the median
#: is not a stable summary.
NOISY_UNIT_IQR = 0.10
#: Largest relative difference between the interp parts of a unit's two
#: brackets for the unit to count.  The host's two clock states are ~25 %
#: apart and the part repeats within ~3 % inside one state.
BRACKET_TOLERANCE = 0.10
#: Below this many steady units the filter is not applied at all.
MIN_STEADY = 3


def slowdown(before: RefSample, after: RefSample, interp_share: float) -> float:
    """How much slower than nominal work of this mix ran between two kernel runs."""
    interp = (before.interp_s + after.interp_s) / 2.0 / NOMINAL_INTERP_S
    stream = (before.stream_s + after.stream_s) / 2.0 / NOMINAL_STREAM_S
    return interp_share * interp + (1.0 - interp_share) * stream


def normalise(
    unit_walls: Sequence[float], refs: Sequence[RefSample], interp_share: float
) -> List[float]:
    """Host-normalised unit times; ``refs`` has one more entry than units."""
    if len(refs) != len(unit_walls) + 1:
        raise ValueError(
            f"{len(unit_walls)} units need {len(unit_walls) + 1} reference "
            f"runs, got {len(refs)}"
        )
    return [
        wall / slowdown(refs[i], refs[i + 1], interp_share)
        for i, wall in enumerate(unit_walls)
    ]


def steady_units(refs: Sequence[RefSample]) -> List[int]:
    """Indices of the units the host did not change state under."""
    steady = [
        i
        for i, (before, after) in enumerate(zip(refs, refs[1:]))
        if abs(before.interp_s - after.interp_s)
        <= BRACKET_TOLERANCE * min(before.interp_s, after.interp_s)
    ]
    return steady if len(steady) >= MIN_STEADY else list(range(len(refs) - 1))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the acceptance rule uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summarise(
    unit_walls: Sequence[float], refs: Sequence[RefSample], interp_share: float
) -> Dict[str, object]:
    """The ``bench.*`` view of one run plus its ``noisy`` verdict."""
    normalised = normalise(unit_walls, refs, interp_share)
    steady = steady_units(refs)
    used = [normalised[i] for i in steady]
    totals = [ref.total_s for ref in refs]
    ref_spread = max(totals) / min(totals)
    unit_iqr = quartile_spread(used)
    return {
        "normalised": normalised,
        "steady": steady,
        "unit_s": statistics.median(used),
        "reps": len(used),
        "unit_raw_s": statistics.median(unit_walls),
        "unit_iqr": unit_iqr,
        "ref_s": statistics.median(totals),
        "ref_spread": ref_spread,
        "noisy": ref_spread > NOISY_REF_SPREAD or unit_iqr > NOISY_UNIT_IQR,
    }
