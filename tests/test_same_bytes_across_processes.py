"""Same (scenario, seed), same bytes — in every process.

SD and RHT decode only because the receiver regenerates the sender's
random streams, so a value that changes between processes (``hash()`` of
a string, the iteration order of a set of strings, an unseeded
generator) is a correctness defect, not untidiness.  Every "same seed
twice" test elsewhere runs both runs in one process, where the hash seed
is fixed, and passes with such a value in place.  Here the same seeded
producers run in two fresh interpreters at once, under
``PYTHONHASHSEED=0`` and ``1``, and each prints one ``producer sha256``
line; the digests must match.

The producers, and which of ``core transforms collectives transport
train faults resilience net packet`` each one runs code of:

* ``ecmp-trace`` — ``tests/net/test_ecmp_properties._run_traced(3)``, an
  on/off flow over an ECMP leaf-spine: net, packet, transforms.
* ``wire-golden`` — ``tests/core/test_wire_golden._digests`` for the four
  codecs (wire, depacketized message, decode): core, packet, transforms.
* ``cluster`` — ``repro-cluster run incast-4job --seed 7``:
  core, transforms, collectives, transport, train, net, packet.
* ``timeline`` — ``repro-timeline record incast-plus-corruption --seed 7``,
  every artifact (``trace.jsonl`` without its host clock, as
  ``tests/obs/test_timeline_golden.py`` compares it): core, transforms,
  transport, faults, net, packet.
* ``resilience`` — ``repro-faults train worker-crash --epochs 1 --seed 7``,
  the history JSON: core, transforms, collectives, train, faults,
  resilience.

No package of the nine is left unreached.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "1")
PRODUCERS = ("ecmp-trace", "wire-golden", "cluster", "timeline", "resilience")

SCRIPT = """
import hashlib, sys
from pathlib import Path
sys.path[:0] = [{root!r}, {src!r}]
from repro.cluster.cli import main as cluster
from repro.obs.timeline import main as timeline
from repro.faults.cli import main as faults
from tests.core.test_wire_golden import CODECS, _digests
from tests.net.test_ecmp_properties import _run_traced
from tests.obs.test_timeline_golden import _strip_host_clock

out = Path(sys.argv[1])

def emit(producer, *chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    print(producer, digest.hexdigest(), flush=True)

emit("ecmp-trace", _run_traced(3).encode())
emit("wire-golden", *(d.encode() for name in sorted(CODECS) for d in _digests(name)))
assert cluster(["run", "incast-4job", "--seed", "7",
                "--out", str(out / "cluster.json")]) == 0
emit("cluster", (out / "cluster.json").read_bytes())
assert timeline(["record", "incast-plus-corruption", "--seed", "7",
                 "--out-dir", str(out / "timeline")]) == 0
chunks = []
for path in sorted((out / "timeline").iterdir()):
    raw = path.read_bytes()
    chunks += [path.name.encode(), _strip_host_clock(raw) if path.name == "trace.jsonl" else raw]
emit("timeline", *chunks)
assert faults(["train", "worker-crash", "--epochs", "1", "--seed", "7",
               "--out", str(out / "resilience.json")]) == 0
emit("resilience", (out / "resilience.json").read_bytes())
"""


def test_every_producer_gives_the_same_bytes_under_two_hash_seeds(tmp_path):
    script = SCRIPT.format(root=str(REPO_ROOT), src=str(REPO_ROOT / "src"))
    runs = []
    for seed in HASH_SEEDS:
        out = tmp_path / f"hashseed-{seed}"
        out.mkdir()
        runs.append(subprocess.Popen(
            [sys.executable, "-c", script, str(out)], cwd=REPO_ROOT,
            env=dict(os.environ, PYTHONHASHSEED=seed, REPRO_LOG_LEVEL="WARNING"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    for run in runs:
        stdout, stderr = run.communicate()
        assert run.returncode == 0, stderr
        outputs.append(dict(line.split() for line in stdout.splitlines()))
    assert [sorted(digests) for digests in outputs] == [sorted(PRODUCERS)] * len(HASH_SEEDS)
    differ = [name for name in PRODUCERS if outputs[0][name] != outputs[1][name]]
    assert not differ, f"bytes change with PYTHONHASHSEED: {', '.join(differ)}"
