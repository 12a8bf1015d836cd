"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` module regenerates one of the paper experiments E1–E10.
Besides the timing numbers collected by pytest-benchmark, each experiment
produces a small result table (the "rows the paper reports" — here, the
logical predictions of each theorem and the measured values).  The
:func:`emit` helper prints that table and also writes it to
``benchmarks/results/E*.txt`` so the committed tables can be regenerated and
diffed.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Sequence

import pytest

RESULTS_DIRECTORY = Path(__file__).parent / "results"


def emit(experiment_id: str, title: str, table_text: str) -> None:
    """Print an experiment's result table and persist it under benchmarks/results/."""
    banner = f"\n=== {experiment_id}: {title} ===\n{table_text}\n"
    print(banner)
    RESULTS_DIRECTORY.mkdir(exist_ok=True)
    path = RESULTS_DIRECTORY / f"{experiment_id}.txt"
    path.write_text(banner.lstrip("\n") + "\n")


@pytest.fixture(scope="session")
def emit_result():
    """Fixture handing benchmarks the :func:`emit` helper."""
    return emit
