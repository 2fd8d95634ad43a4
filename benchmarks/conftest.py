"""Benchmark-suite plumbing.

pytest captures stdout at the file-descriptor level, so the result
tables the benchmarks emit would never reach the terminal.  This hook
replays everything recorded through :func:`repro.bench.emit` in the
terminal summary.  Nothing is archived: these are print-only
experiments, and the perf ledger (``benchmarks/ledger/``) is the only
gate.
"""

from repro.bench.harness import EMITTED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not EMITTED:
        return
    terminalreporter.section("paper figure/table reproductions")
    for block in EMITTED:
        for line in block.splitlines():
            terminalreporter.write_line(line)
