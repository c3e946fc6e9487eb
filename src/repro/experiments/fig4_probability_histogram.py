"""Fig. 4 — histogram of the probabilities of correct assignments (§8.3).

For every claim the probability assigned to its *correct* credibility
value is tracked (``P(c=1)`` for true claims, ``P(c=0)`` for false ones)
at 0%, 20% and 40% user effort.  The paper's reading: with growing user
effort the mass shifts from low to high probability bins — user input
sharpens the model's beliefs in the right direction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import ExperimentConfig, build_database, make_process
from repro.utils.rng import spawn_rngs

#: Effort checkpoints of the figure.
DEFAULT_CHECKPOINTS = (0.0, 0.2, 0.4)
#: Probability bins of the histogram (upper edges).
DEFAULT_BIN_EDGES = tuple(np.round(np.arange(0.1, 1.01, 0.1), 2))


def run(
    config: Optional[ExperimentConfig] = None,
    checkpoints: Sequence[float] = DEFAULT_CHECKPOINTS,
    bin_edges: Sequence[float] = DEFAULT_BIN_EDGES,
) -> ExperimentResult:
    """Histogram of correct-value probabilities at effort checkpoints.

    Aggregated over all configured datasets, as in the paper.
    """
    config = config if config is not None else ExperimentConfig()
    collected = {round(cp, 2): [] for cp in checkpoints}
    for dataset in config.datasets:
        for rng in spawn_rngs(config.seed, config.runs):
            database = build_database(dataset, config, rng)
            truth = database.truth_vector()
            process = make_process(database, "info", config, rng)
            process.initialize()
            _collect(collected, 0.0, process.state, truth)
            total = database.num_claims
            remaining = sorted(cp for cp in checkpoints if cp > 0)
            for checkpoint in remaining:
                target_labels = int(round(checkpoint * total))
                while (
                    process.state.num_labelled < target_labels
                    and process.state.unlabelled_indices.size > 0
                ):
                    process.step()
                _collect(collected, checkpoint, process.state, truth)

    result = ExperimentResult(
        name="fig4_probability_histogram",
        title="Fig. 4 — Probabilities of correct credibility values",
        headers=["probability_bin"]
        + [f"effort_{int(cp * 100)}%" for cp in checkpoints],
        notes=(
            "cells are frequencies (%); expected shape: mass shifts to "
            "higher bins as effort grows"
        ),
    )
    histograms = {}
    for checkpoint, values in collected.items():
        values = np.asarray(values)
        counts = np.zeros(len(bin_edges))
        for value in values:
            for index, edge in enumerate(bin_edges):
                if value <= edge + 1e-9:
                    counts[index] += 1
                    break
        total = counts.sum()
        histograms[checkpoint] = 100.0 * counts / total if total else counts
    lower = 0.0
    for index, edge in enumerate(bin_edges):
        row = [f"({lower:.1f},{edge:.1f}]"]
        for checkpoint in checkpoints:
            row.append(float(histograms[round(checkpoint, 2)][index]))
        result.add_row(*row)
        lower = edge
    return result


def _collect(collected, checkpoint, state, truth) -> None:
    """Record P(correct value) of every claim at a checkpoint."""
    probabilities = np.asarray(state.probabilities)
    correct = np.where(truth == 1, probabilities, 1.0 - probabilities)
    collected[round(checkpoint, 2)].extend(float(v) for v in correct)
