"""An unusable argument is a usage error on every CLI.

Every argument is resolved while the arguments are parsed, through the
shared types of ``repro.argtypes``: an unknown preset or transport (the
line names the ones it knows), a missing scenario file, a number outside
its option's range (a negative ``--seed``, ``--faults``, ``--world``,
``--epochs``, ``--evict-after``, ``--crash-round``, ``--bins`` or
``--max-events`` below 1, ``--int-capacity`` outside [1, 255],
``--sample-period`` not above 0, ``--deadline-factor`` not above 1,
``--trim-rate`` outside [0, 1]) or an output file in a directory that
does not exist gives argparse's
usage and one ``error:`` line, exit 2, before anything runs.  None ends
in a traceback.
"""

import importlib

import pytest

CASES = {
    "repro-faults run": (
        "repro.faults.cli",
        ["run", "no-such"],
        "repro-faults run: error: argument scenario: unknown scenario 'no-such'; available: ",
        "flaky-link",
    ),
    "repro-faults campaign run": (
        "repro.faults.cli",
        ["campaign", "run", "--cluster", "no-such"],
        "repro-faults campaign run: error: argument --cluster: "
        "unknown cluster scenario 'no-such'; available: ",
        "idle-1job",
    ),
    "repro-faults train": (
        "repro.faults.cli",
        ["train", "no-such"],
        "repro-faults train: error: argument scenario: unknown scenario 'no-such'; available: ",
        "worker-crash",
    ),
    "repro-faults resume-check": (
        "repro.faults.cli",
        ["resume-check", "no-such"],
        "repro-faults resume-check: error: argument scenario: "
        "unknown scenario 'no-such'; available: ",
        "worker-crash",
    ),
    "repro-timeline record": (
        "repro.obs.timeline",
        ["record", "no-such"],
        "repro-timeline record: error: argument scenario: unknown scenario 'no-such'; available: ",
        "flaky-link",
    ),
    "repro-cluster run": (
        "repro.cluster.cli",
        ["run", "no-such"],
        "repro-cluster run: error: argument scenario: "
        "unknown cluster scenario 'no-such'; available: ",
        "incast-4job",
    ),
    "repro-cluster show": (
        "repro.cluster.cli",
        ["show", "no-such"],
        "repro-cluster show: error: argument scenario: "
        "unknown cluster scenario 'no-such'; available: ",
        "incast-4job",
    ),
    "repro-cluster run (no scenario)": (
        "repro.cluster.cli",
        ["run"],
        "repro-cluster run: error: the following arguments are required: ",
        "scenario",
    ),
    # A scenario file that is not there: the same line, not a traceback.
    "repro-faults train missing.json": (
        "repro.faults.cli",
        ["train", "missing.json"],
        "repro-faults train: error: argument scenario: missing.json: ",
        "No such file",
    ),
    "repro-timeline record missing.json": (
        "repro.obs.timeline",
        ["record", "missing.json"],
        "repro-timeline record: error: argument scenario: missing.json: ",
        "No such file",
    ),
    # A number below its option's minimum is refused while the arguments
    # are parsed: argparse's usage, then its one ``error:`` line.
    "repro-cluster run --seed -1": (
        "repro.cluster.cli",
        ["run", "incast-4job", "--seed", "-1"],
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
    "repro-faults train --seed -1": (
        "repro.faults.cli",
        ["train", "worker-crash", "--seed", "-1"],
        "repro-faults train: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    "repro-faults train --world 0": (
        "repro.faults.cli",
        ["train", "worker-crash", "--world", "0"],
        "repro-faults train: error: argument --world: must be at least 1, ",
        "got 0",
    ),
    # Zero epochs trained nothing and exited 0; a deadline factor or an
    # eviction streak out of range ended in ResilienceConfig's traceback.
    "repro-faults train --epochs 0": (
        "repro.faults.cli",
        ["train", "worker-crash", "--epochs", "0"],
        "repro-faults train: error: argument --epochs: must be at least 1, ",
        "got 0",
    ),
    "repro-faults train --epochs -1": (
        "repro.faults.cli",
        ["train", "worker-crash", "--epochs", "-1"],
        "repro-faults train: error: argument --epochs: must be at least 1, ",
        "got -1",
    ),
    "repro-faults train --deadline-factor 0": (
        "repro.faults.cli",
        ["train", "worker-crash", "--deadline-factor", "0"],
        "repro-faults train: error: argument --deadline-factor: must be above 1, ",
        "got 0.0",
    ),
    "repro-faults train --evict-after 0": (
        "repro.faults.cli",
        ["train", "worker-crash", "--evict-after", "0"],
        "repro-faults train: error: argument --evict-after: must be at least 1, ",
        "got 0",
    ),
    "repro-faults resume-check --epochs 0": (
        "repro.faults.cli",
        ["resume-check", "worker-crash", "--epochs", "0"],
        "repro-faults resume-check: error: argument --epochs: must be at least 1, ",
        "got 0",
    ),
    "repro-faults resume-check --deadline-factor 1": (
        "repro.faults.cli",
        ["resume-check", "worker-crash", "--deadline-factor", "1"],
        "repro-faults resume-check: error: argument --deadline-factor: must be above 1, ",
        "got 1.0",
    ),
    "repro-faults resume-check --evict-after 0": (
        "repro.faults.cli",
        ["resume-check", "worker-crash", "--evict-after", "0"],
        "repro-faults resume-check: error: argument --evict-after: must be at least 1, ",
        "got 0",
    ),
    "repro-timeline record --bins 0": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--bins", "0"],
        "repro-timeline record: error: argument --bins: must be at least 1, ",
        "got 0",
    ),
    "repro-timeline record --int-capacity 0": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--int-capacity", "0"],
        "repro-timeline record: error: argument --int-capacity: must be in [1, 255], ",
        "got 0",
    ),
    "repro-timeline record --int-capacity 256": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--int-capacity", "256"],
        "repro-timeline record: error: argument --int-capacity: must be in [1, 255], ",
        "got 256",
    ),
    "repro-timeline record --sample-period 0": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--sample-period", "0"],
        "repro-timeline record: error: argument --sample-period: must be above 0, ",
        "got 0.0",
    ),
    "repro-timeline record --max-events 0": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--max-events", "0"],
        "repro-timeline record: error: argument --max-events: must be at least 1, ",
        "got 0",
    ),
    # An unknown transport used to create --out-dir, then end in the
    # harness's ValueError traceback.
    "repro-timeline record --transport bogus": (
        "repro.obs.timeline",
        ["record", "flaky-link", "--transport", "bogus"],
        "repro-timeline record: error: argument --transport: unknown transport 'bogus'; ",
        "trimming",
    ),
    "repro-timeline render --bins 0": (
        "repro.obs.timeline",
        ["render", "trace.jsonl", "--bins", "0"],
        "repro-timeline render: error: argument --bins: must be at least 1, ",
        "got 0",
    ),
    "repro-faults run --max-events 0": (
        "repro.faults.cli",
        ["run", "flaky-link", "--max-events", "0"],
        "repro-faults run: error: argument --max-events: must be at least 1, ",
        "got 0",
    ),
    "repro-faults train --trim-rate 2": (
        "repro.faults.cli",
        ["train", "worker-crash", "--trim-rate", "2"],
        "repro-faults train: error: argument --trim-rate: must be in [0, 1], ",
        "got 2.0",
    ),
    "repro-faults train --trim-rate nan": (
        "repro.faults.cli",
        ["train", "worker-crash", "--trim-rate", "nan"],
        "repro-faults train: error: argument --trim-rate: must be in [0, 1], ",
        "got nan",
    ),
    # A crash before round 1 used to be refused only after the whole
    # reference run had trained.
    "repro-faults resume-check --crash-round 0": (
        "repro.faults.cli",
        ["resume-check", "worker-crash", "--crash-round", "0"],
        "repro-faults resume-check: error: argument --crash-round: must be at least 1, ",
        "got 0",
    ),
    "repro-faults resume-check --seed -1": (
        "repro.faults.cli",
        ["resume-check", "worker-crash", "--seed", "-1"],
        "repro-faults resume-check: error: argument --seed: must be at least 0, ",
        "got -1",
    ),
    # An output file in a missing directory is refused before the run,
    # which used to end in a FileNotFoundError traceback.
    "repro-cluster run --out": (
        "repro.cluster.cli",
        ["run", "incast-4job", "--out", "no-such-dir/report.json"],
        "repro-cluster run: error: argument --out: no directory 'no-such-dir' ",
        "no-such-dir/report.json",
    ),
    "repro-faults run --out": (
        "repro.faults.cli",
        ["run", "flaky-link", "--out", "no-such-dir/log.jsonl"],
        "repro-faults run: error: argument --out: no directory 'no-such-dir' ",
        "no-such-dir/log.jsonl",
    ),
    "repro-faults train --out": (
        "repro.faults.cli",
        ["train", "worker-crash", "--out", "no-such-dir/history.json"],
        "repro-faults train: error: argument --out: no directory 'no-such-dir' ",
        "no-such-dir/history.json",
    ),
    "repro-faults campaign replay --out": (
        "repro.faults.cli",
        ["campaign", "replay", "--out", "no-such-dir/replay.jsonl", "--plan", "plan.json"],
        "repro-faults campaign replay: error: argument --out: no directory 'no-such-dir' ",
        "no-such-dir/replay.jsonl",
    ),
    "repro-timeline render --html": (
        "repro.obs.timeline",
        ["render", "trace.jsonl", "--html", "no-such-dir/timeline.html"],
        "repro-timeline render: error: argument --html: no directory 'no-such-dir' ",
        "no-such-dir/timeline.html",
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

