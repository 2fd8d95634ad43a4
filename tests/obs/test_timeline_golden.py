"""Golden digests of one recorded run, pinned before the two tracers merged.

``repro-timeline record incast-plus-corruption --seed 7 --html`` arms
every telemetry layer at once — events, causal spans, INT, the queue
monitor — and writes one artifact per layer.  The digests below were
taken from those artifacts at the commit *before* span recording moved
from its own recorder into :class:`repro.obs.trace.Tracer`; merging the
two recorders promised the same bytes, and this file holds it to that.

``trace.jsonl`` carries host clock readings (``wall_time``, and
``duration_s`` on wall-clock stages), so it is compared with those two
keys removed: one sorted-keys JSON line per event, 1,468 events.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.timeline import main

#: artifact -> sha256 of its bytes (``trace.jsonl``: of its stripped form).
GOLDEN = {
    "spans.jsonl": "23be4724daee4b436113f400565ad16a5f551a7dc1f602b009953e48f6400d5b",
    "int.jsonl": "326830d99b5f2d1a4efa0b584afb1de661ab311f595281a463760798585b3978",
    "int_summary.json": "7f0a8d6003e25d5af25f5658a525eab50007d0f1a4f410893aad4c9d04967bb6",
    "timeline.txt": "b4feb5cc1557b56ce5323a442d538b6dc6eddfdd83cff9056909d84184c3e8d8",
    "timeline.html": "1c633558f0d50281e479e09dd00491c83c2e644c77a89884c672c5dfb3b2f950",
    "trace.jsonl": "e2e648654158d049c21ff6aa70188f3e63f104b9c1ba5f40f7ffe5169a8f82c9",
}
TRACE_EVENTS = 1468


def _strip_host_clock(raw: bytes) -> bytes:
    lines = []
    for line in raw.decode("utf-8").splitlines():
        record = json.loads(line)
        record.pop("wall_time", None)
        record.pop("duration_s", None)
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    out = tmp_path_factory.mktemp("incast-plus-corruption")
    rc = main(
        ["record", "incast-plus-corruption", "--seed", "7", "--html", "--out-dir", str(out)]
    )
    assert rc == 0
    return out


def test_trace_holds_every_event(recorded):
    assert len((recorded / "trace.jsonl").read_bytes().splitlines()) == TRACE_EVENTS


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_matches_the_digest(recorded, artifact):
    raw = (recorded / artifact).read_bytes()
    if artifact == "trace.jsonl":
        raw = _strip_host_clock(raw)
    assert hashlib.sha256(raw).hexdigest() == GOLDEN[artifact], artifact


FAT_TREE_FIRST = """
import hashlib, sys
from pathlib import Path
sys.path.insert(0, {src!r})
from repro.net.topology import fat_tree
from repro.obs.timeline import main

fat_tree(k=4)
out = Path(sys.argv[1])
assert main(["record", "incast-plus-corruption", "--seed", "7", "--out-dir", str(out)]) == 0
for artifact in ("int.jsonl", "int_summary.json"):
    print(artifact, hashlib.sha256((out / artifact).read_bytes()).hexdigest())
"""


def test_int_artifacts_ignore_fabrics_built_before_the_run(tmp_path):
    # A fresh interpreter, so that the fat tree's switches and links are the
    # first names the process ever interns.  Hop ids count from 0 in each
    # network's construction order, so the recorded run's bytes stay the
    # pinned ones.
    src = str(Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run(
        [sys.executable, "-c", FAT_TREE_FIRST.format(src=src), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "REPRO_LOG_LEVEL": "WARNING"},
    )
    assert done.returncode == 0, done.stderr
    digests = dict(line.split() for line in done.stdout.splitlines())
    assert digests == {name: GOLDEN[name] for name in ("int.jsonl", "int_summary.json")}
