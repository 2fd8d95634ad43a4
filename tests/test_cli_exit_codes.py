"""An unknown name or an unusable number is a usage error on every CLI.

An unknown or missing preset or scenario name makes each command log
one line naming the names it knows and exit 2, as ``repro-bench`` does.
A negative ``--seed``, ``--faults`` below 1 or ``--world`` below 1 is
rejected while the arguments are parsed: argparse's usage and one
``error:`` line, exit 2.  Neither ends in a traceback.
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
    # A number below its option's minimum is refused while the arguments
    # are parsed: argparse's usage, then its one ``error:`` line.
    "repro-cluster run --seed -1": (
        "repro.cluster.cli",
        ["run", "--preset", "incast-4job", "--seed", "-1"],
        "repro-cluster run: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    "repro-faults run --seed -1": (
        "repro.faults.cli",
        ["run", "flaky-link", "--seed", "-1"],
        "repro-faults run: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    "repro-faults campaign run --seed -1": (
        "repro.faults.cli",
        ["campaign", "run", "--seed", "-1"],
        "repro-faults campaign run: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    "repro-faults campaign run --faults -1": (
        "repro.faults.cli",
        ["campaign", "run", "--faults", "-1"],
        "repro-faults campaign run: error: argument --faults: must be at least 1, ",
        "got -1",
    ),
    "repro-faults campaign run --faults 0": (
        "repro.faults.cli",
        ["campaign", "run", "--faults", "0"],
        "repro-faults campaign run: error: argument --faults: must be at least 1, ",
        "got 0",
    ),
    "repro-timeline record --seed -1": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--seed", "-1"],
        "repro-timeline record: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    "repro-resilience run --seed -1": (
        "repro.resilience.cli",
        ["run", "worker-crash", "--seed", "-1"],
        "repro-resilience run: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    "repro-resilience run --world 0": (
        "repro.resilience.cli",
        ["run", "worker-crash", "--world", "0"],
        "repro-resilience run: error: argument --world: must be at least 1, ",
        "got 0",
    ),
    "repro-resilience resume-check --seed -1": (
        "repro.resilience.cli",
        ["resume-check", "worker-crash", "--seed", "-1"],
        "repro-resilience resume-check: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_unknown_name_is_one_line_and_exit_2(command, tmp_path, caplog, capsys):
    module, argv, prefix, known = CASES[command]
    main = importlib.import_module(module).main
    if module == "repro.obs.timeline":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    with caplog.at_level("ERROR"):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refused a value
            status = exc.code
    assert status == 2
    (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] + [
        line for line in capsys.readouterr().err.splitlines() if ": error: " in line
    ]
    assert line.startswith(prefix)
    assert known in line and "\n" not in line
    assert not (tmp_path / "out").exists()

