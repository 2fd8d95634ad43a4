"""The start-up path stays clean.

Everything a run pays before its first simulated event includes the
imports.  ``repro`` needs numpy and the standard library; a graph,
plotting or data-frame library slipping into the import graph (networkx
alone was a quarter of ``import repro.cluster``) costs every process
that ever builds a fabric.  Checked in a fresh interpreter, because the
test session itself imports networkx as an oracle.
"""

import os
import subprocess
import sys

import repro

HEAVY = ("networkx", "scipy", "matplotlib", "pandas")

SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro, repro.cluster, repro.faults.campaign, repro.train.ddp, repro.bench
from repro.net.topology import fat_tree
net = fat_tree(k=4, ecmp=True)
assert net.flow_path("h0_0_0", "h3_1_1", flow_id=1)[-1] == "h3_1_1"
print("loaded:", ",".join(m for m in {heavy!r} if m in sys.modules))
"""


def test_startup_path_imports_no_heavy_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=src, heavy=HEAVY)],
        env=dict(os.environ, REPRO_LOG_LEVEL="WARNING"),
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "loaded:", done.stdout


CLI_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro.faults.campaign, repro.train.ddp
cli = ("repro.argtypes", "repro.obs.timeline", "repro.bench.__main__")
print("cli:", ",".join(sorted(m for m in sys.modules if m in cli or m.endswith(".cli"))))
"""


def test_the_ledger_path_imports_no_cli_code():
    # The perf ledger imports both modules; everything they import is
    # compiled again inside its measured setup when bytecode is not cached.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT.format(src=src)],
        env=dict(os.environ, REPRO_LOG_LEVEL="WARNING"),
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "cli:", done.stdout
