"""The seed-7 reports of the three healthy cluster presets, pinned by digest.

``trim-4job`` and its drop-tail control are pinned in
``test_trim_headline.py``; these are the other presets a user runs.  Each
digest is the sha256 of the report as ``repro-cluster run --out`` writes
it, taken before the wire layer moved from one message to one wave at a
time, so a change to how a wave is packetized, carried or decoded that
moves a single byte of a report fails here.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterDriver, cluster_scenario_by_name

SEED = 7

#: preset -> sha256 of its seed-7 report bytes.
DIGESTS = {
    "incast-4job": "7cfc864df2d4d957f635a1b629d0fb210976e790d60f355acc6e0cab410670c7",
    "elephant-2job": "e7b8f3edc3856e6a92e4090da79da927700f5fcaa2311030671e66b81f0f39b4",
    "idle-1job": "df78b929a788c52940bd5f0cd5c8211fc267f255b9f2f4d8258e848457479704",
}


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_report_bytes_are_pinned(preset):
    report = ClusterDriver(cluster_scenario_by_name(preset), seed=SEED).run()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[preset]
