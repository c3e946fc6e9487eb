"""Fig. 3 — response time as validation progresses (§8.2).

The paper bins per-iteration response times of the largest dataset
(snopes) by relative user effort and observes a peak between 40% and 60%:
at those effort levels user input "enables the most conclusions", i.e.
inference moves the most probability mass.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import ExperimentConfig, build_database, make_process
from repro.utils.rng import spawn_rngs

#: Effort bins of the figure's x-axis (fractions of |C|).
DEFAULT_BINS = (0.2, 0.4, 0.6, 0.8, 1.0)


def run(
    config: Optional[ExperimentConfig] = None,
    dataset: str = "snopes",
    bins: Sequence[float] = DEFAULT_BINS,
) -> ExperimentResult:
    """Average response time per effort bin on one dataset.

    Args:
        config: Experiment configuration.
        dataset: Corpus to run (the paper uses its largest, snopes).
        bins: Upper edges of the effort bins.
    """
    config = config if config is not None else ExperimentConfig()
    binned = [[] for _ in bins]
    for rng in spawn_rngs(config.seed, config.runs):
        database = build_database(dataset, config, rng)
        process = make_process(database, "hybrid", config, rng)
        process.initialize()
        total = database.num_claims
        while process.state.unlabelled_indices.size > 0:
            record = process.step()
            effort = process.state.num_labelled / total
            for index, edge in enumerate(bins):
                if effort <= edge + 1e-9:
                    binned[index].append(record.response_seconds)
                    break

    result = ExperimentResult(
        name="fig3_time_vs_effort",
        title=f"Fig. 3 — Response time vs. label effort ({dataset})",
        headers=["effort_bin", "avg_seconds", "samples"],
        notes="expected shape: response time peaks at mid-range effort",
    )
    for edge, samples in zip(bins, binned):
        mean = float(np.mean(samples)) if samples else 0.0
        result.add_row(f"<={int(edge * 100)}%", mean, len(samples))
    return result
