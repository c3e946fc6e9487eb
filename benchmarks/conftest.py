"""Shared benchmark infrastructure.

Every benchmark regenerates one table/figure of the paper at a reduced
corpus scale, times the full experiment driver with pytest-benchmark, and
prints the rendered result table.  With ``PERF_RECORD=1`` the table is
also written to ``benchmarks/results/<name>.txt`` so the committed
reproduction output can be inspected side by side with the paper; plain
runs leave the checkout untouched.

Path setup (``src/`` and the repo root on ``sys.path``) is done by the
repo-root ``conftest.py``, which pytest loads for every run including
``pytest benchmarks``; shared corpus fixtures live in
``tests/fixtures.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.reporting import ExperimentResult

#: Directory collecting the rendered result tables.
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Reduced-scale configuration shared by all benchmarks.

    One run per cell and ~60% of the default replica sizes keep the whole
    suite in the minutes range while preserving the qualitative shapes.
    """
    return ExperimentConfig(
        seed=7,
        runs=1,
        scale_factor=0.6,
        em_iterations=2,
        gibbs_samples=10,
        candidate_limit=12,
    )


@pytest.fixture
def record_result():
    """Print an experiment result table; write it under ``PERF_RECORD=1``."""

    def _record(result: ExperimentResult) -> None:
        table = result.format_table()
        print()
        print(table)
        if os.environ.get("PERF_RECORD"):
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{result.name}.txt").write_text(
                table + "\n", encoding="utf-8"
            )

    return _record
