"""§8.8 — model update time per streaming arrival.

The paper reports average per-arrival update times of Alg. 2 (0.34s /
0.61s / 1.22s for wiki / health / snopes on its hardware).  We replay each
corpus replica as a stream and measure the wall-clock cost of
:meth:`~repro.streaming.process.StreamingFactChecker.observe`.  Expected
shape: update time grows with corpus size and stays in the same order of
magnitude as the validation-iteration response time (Prop. 2 vs. Prop. 3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import ExperimentConfig, build_database
from repro.streaming.process import StreamingFactChecker
from repro.streaming.stream import stream_from_database
from repro.utils.rng import ensure_rng


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Average streaming update time per dataset."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="stream_update_time",
        title="§8.8 — Streaming update time per arrival",
        headers=[
            "dataset",
            "arrivals",
            "avg_seconds",
            "avg_ingest",
            "avg_update",
            "max_seconds",
        ],
        notes="expected shape: update time grows with dataset size; "
        "avg_seconds = avg_ingest (structure growth) + avg_update "
        "(online EM)",
    )
    for dataset in config.datasets:
        rng = ensure_rng(config.seed)
        database = build_database(dataset, config, rng)
        checker = StreamingFactChecker(seed=rng)
        times, ingests, updates = [], [], []
        for arrival in stream_from_database(database):
            update = checker.observe(arrival)
            times.append(update.elapsed_seconds)
            ingests.append(update.ingest_seconds)
            updates.append(update.update_seconds)
        result.add_row(
            dataset,
            len(times),
            float(np.mean(times)) if times else 0.0,
            float(np.mean(ingests)) if ingests else 0.0,
            float(np.mean(updates)) if updates else 0.0,
            float(np.max(times)) if times else 0.0,
        )
    return result
