"""A6 — ahead-of-time Q adaptation + just-in-time trimming (§5.3).

A byte-budgeted bottleneck carries the same gradient repeatedly while
the sender chooses its ahead-of-time depth three ways:

* **static 32-bit** — rely on JIT trimming alone: full packets hog the
  budget, later packets cascade to 1 bit or drop;
* **static 1-bit** — over-compress: never trimmed, but the link idles
  and quality is capped at sign-level;
* **adaptive** — the §5.3 controller: step down only when the link
  reports heavy trimming, step back up when calm, targeting a small
  positive trim fraction ("slightly under-compress and over-send").
"""

import numpy as np

from repro.bench import emit, format_table
from repro.core import MultiLevelCodec, nmse, packetize
from repro.train import AdaptiveQController, BudgetedLinkChannel

NUM_COORDS = 2**15
MESSAGES = 6


def run_a6():
    codec = MultiLevelCodec(root_seed=1, row_size=4096)
    x = np.random.default_rng(0).standard_normal(NUM_COORDS)
    full_bytes = sum(p.wire_size for p in packetize(codec.encode(x), "a", "b"))
    rows = []
    for budget_frac in [0.35, 0.6]:
        budget = int(full_bytes * budget_frac)
        setups = {
            "static 32b (JIT only)": dict(static_send_bits=32),
            "static 1b (overcompress)": dict(static_send_bits=1),
            "adaptive (Section 5.3)": dict(controller=AdaptiveQController()),
        }
        for label, kwargs in setups.items():
            channel = BudgetedLinkChannel(codec, capacity_bytes=budget, **kwargs)
            out = None
            for m in range(MESSAGES):
                out = channel.transfer(x, message_id=m)
            utilization = channel.stats.bytes_sent / (budget * MESSAGES)
            rows.append(
                [
                    f"{budget_frac:.0%}",
                    label,
                    channel.last_send_bits,
                    f"{channel.last_trim_fraction:.2f}",
                    channel.stats.packets_dropped,
                    f"{utilization:.0%}",
                    f"{nmse(x, out):.5f}",
                ]
            )
    return rows


def test_a6_adaptive_q(benchmark):
    rows = benchmark.pedantic(run_a6, rounds=1, iterations=1)
    emit("\n" + format_table(
        ["link budget", "sender policy", "send bits", "JIT trim frac",
         "dropped", "link util", "final NMSE"],
        rows,
        title="[A6] ahead-of-time Q adaptation vs JIT-only vs overcompression",
    ))
    # At the tight 35% budget: adaptive beats both static extremes.
    tight = {r[1]: r for r in rows if r[0] == "35%"}
    adaptive_err = float(tight["adaptive (Section 5.3)"][6])
    jit_err = float(tight["static 32b (JIT only)"][6])
    over_err = float(tight["static 1b (overcompress)"][6])
    assert adaptive_err < jit_err
    assert adaptive_err < over_err
    # Overcompression never drops but wastes the link.
    assert tight["static 1b (overcompress)"][4] == 0
    assert float(tight["static 1b (overcompress)"][5].rstrip("%")) < 30
