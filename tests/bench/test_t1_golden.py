"""T1's quick-scale table, pinned byte for byte.

Both halves of T1 (go-back-N under Bernoulli drops, the trimming
transport under Bernoulli trims) are deterministic simulations, so the
rendered table is too.  The text below was taken before T1's flows
moved onto the shared transfer and its numbers stopped coming from a
separate flow log.
"""

from repro.bench.experiments import t1_transport_drops

T1_QUICK = (
    "[T1 transport drop tolerance (Section 4.4)]",
    "transport | impairment | FCT ms | vs clean GBN | retransmissions | trimmed",
    "----------+------------+--------+--------------+-----------------+--------",
    "go-back-N | 0.00%      | 0.20   | 1.0x         | 0               | -      ",
    "go-back-N | 0.20%      | 0.40   | 2.0x         | 121             | -      ",
    "go-back-N | 1.00%      | 0.90   | 4.5x         | 268             | -      ",
    "go-back-N | 2.00%      | 3.53   | 17.5x        | 381             | -      ",
    "trimming  | trim 0%    | 0.18   | 0.9x         | 0               | 0      ",
    "trimming  | trim 20%   | 0.18   | 0.9x         | 0               | 285    ",
    "trimming  | trim 50%   | 0.18   | 0.9x         | 0               | 685    ",
    "paper: baseline tolerates 0.15-0.25% drops; 1-2% -> 5-10x or timeouts",
)


def test_quick_t1_table_is_pinned():
    assert t1_transport_drops("quick").render() == "\n".join(T1_QUICK)
