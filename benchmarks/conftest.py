"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures on scaled proxy
datasets (``REPRO_SCALE`` environment variable, default 1.0 — see
``repro.datasets.registry`` for the proxy sizes).  Built systems are
cached across benchmarks within a session, so the analysis experiments
reuse the ingest done by the throughput experiments.

Run with ``pytest benchmarks/ --benchmark-only``; printed tables land
in the captured output (and thus in ``bench_output.txt``).
"""

import json
import pathlib

import pytest

from repro.bench.reporting import flush_reports
from repro.datasets import env_scale


def pytest_terminal_summary(terminalreporter):
    """Replay every experiment table into the terminal (and the tee'd
    bench_output.txt) — per-test stdout of passing tests is captured."""
    reports = flush_reports()
    if reports:
        terminalreporter.section("regenerated paper tables & figures")
        for block in reports:
            terminalreporter.write_line("")
            terminalreporter.write_line(block)


BASELINES = pathlib.Path(__file__).parent / "baselines"


def load_baseline(name: str) -> dict:
    """The seed-environment baseline ``baselines/<name>.json``.

    One schema: a ``description`` string, a ``min_required_speedup``
    dict of per-arm floors, and per-arm seed measurements.
    """
    return json.loads((BASELINES / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def scale() -> float:
    return env_scale(1.0)


def run_once(benchmark, fn):
    """Record one timed run of ``fn`` with pytest-benchmark (experiments
    are long; statistical repetition adds nothing to modeled results)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
