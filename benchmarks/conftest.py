"""Shared fixtures and reporting for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures through
:mod:`repro.experiments` (expensive artifacts — documents, workloads,
XBUILD sweeps — are memoized inside that module, so the suite builds each
exactly once), then benchmarks the latency-critical operation behind it
(estimation calls, summary construction).

The regenerated tables are printed in the terminal summary at the end of
the run and also written to ``benchmarks/results/*.txt``.  Timings live
in the ``perfbench`` benchmark (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import DEFAULT_CONFIG

RESULTS_DIR = Path(__file__).parent / "results"

_reports: list[tuple[str, str]] = []


def record_report(name: str, text: str) -> None:
    """Register a rendered table for the terminal summary + results dir."""
    _reports.append((name, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf8")


def run_recorded(name: str, runner, formatter, config):
    """Run one figure/table regeneration and record its rendered table.

    Renders ``runner(config)`` through ``formatter`` into the terminal
    summary and ``benchmarks/results/<name>.txt``.  Returns the runner's
    result unchanged, so module fixtures can hand it to their assertions.
    """
    result = runner(config)
    record_report(name, formatter(result))
    return result


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _reports:
        return
    terminalreporter.section("paper tables and figures (reproduced)")
    for name, text in _reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)


@pytest.fixture(scope="session")
def experiment_config():
    """The experiment scale configuration (env-overridable)."""
    return DEFAULT_CONFIG
