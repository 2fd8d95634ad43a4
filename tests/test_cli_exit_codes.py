"""An unknown or missing preset or scenario name is a usage error on every CLI.

Each command prints one line naming the names it knows and exits 2,
as ``repro-bench`` and ``repro-lint`` do — no traceback.
"""

import importlib

import pytest

CASES = {
    "repro-faults run": (
        "repro.faults.cli",
        ["run", "no-such"],
        "repro-faults: unknown scenario 'no-such'; available: ",
        "flaky-link",
    ),
    "repro-faults campaign run": (
        "repro.faults.cli",
        ["campaign", "run", "--cluster", "no-such"],
        "repro-faults: unknown cluster scenario 'no-such'; available: ",
        "idle-1job",
    ),
    "repro-resilience run": (
        "repro.resilience.cli",
        ["run", "no-such"],
        "repro-resilience: unknown scenario 'no-such'; available: ",
        "worker-crash",
    ),
    "repro-resilience resume-check": (
        "repro.resilience.cli",
        ["resume-check", "no-such"],
        "repro-resilience: unknown scenario 'no-such'; available: ",
        "worker-crash",
    ),
    "repro-timeline record": (
        "repro.obs.timeline",
        ["record", "no-such"],
        "repro-timeline: unknown scenario 'no-such'; available: ",
        "flaky-link",
    ),
    "repro-cluster run": (
        "repro.cluster.cli",
        ["run", "--preset", "no-such"],
        "repro-cluster: unknown cluster scenario 'no-such'; available: ",
        "incast-4job",
    ),
    "repro-cluster show": (
        "repro.cluster.cli",
        ["show", "no-such"],
        "repro-cluster: unknown cluster scenario 'no-such'; available: ",
        "incast-4job",
    ),
    # Neither a file nor --preset: a usage error that lists the presets.
    "repro-cluster run (no scenario)": (
        "repro.cluster.cli",
        ["run"],
        "repro-cluster: run needs --preset NAME or a scenario JSON path; presets: ",
        "incast-4job",
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_unknown_name_is_one_line_and_exit_2(command, tmp_path, caplog):
    module, argv, prefix, known = CASES[command]
    main = importlib.import_module(module).main
    if module == "repro.obs.timeline":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    with caplog.at_level("ERROR"):
        assert main(argv) == 2
    (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert line.startswith(prefix)
    assert known in line and "\n" not in line
    assert not (tmp_path / "out").exists()
