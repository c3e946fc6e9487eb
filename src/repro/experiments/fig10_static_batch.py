"""Fig. 10 — effects of a static batch size (§8.7).

For batch sizes k ∈ {1, 2, 5, 10, 20} the validation process runs with
greedy top-k batching to a fixed effort budget.  Reported per k: the cost
saving ``CS(k) = 1 - 1/k^α`` for α ∈ {¼, ½, 1} and the *precision
degradation* relative to the unbatched (k = 1) process at equal label
effort.  Expected shape: larger batches save more set-up cost but degrade
precision, with medium k (5–10) the sweet spot.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.effort.cost import cost_saving, precision_degradation
from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import (
    ExperimentConfig,
    build_database,
    make_process,
)
from repro.utils.rng import ensure_rng, spawn_rngs

DEFAULT_BATCH_SIZES = (1, 2, 5, 10, 20)
DEFAULT_ALPHAS = (0.25, 0.5, 1.0)


def run(
    config: Optional[ExperimentConfig] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    effort_fraction: float = 0.5,
) -> ExperimentResult:
    """Precision degradation and cost savings per batch size and dataset."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="fig10_static_batch",
        title="Fig. 10 — Precision degradation vs. cost saving (static k)",
        headers=["dataset", "k", "precision", "degradation_%"]
        + [f"CS(alpha={a})_%" for a in alphas],
        notes=(
            "expected shape: larger k -> larger cost saving, larger "
            "precision degradation; medium k is the sweet spot"
        ),
    )
    for dataset in config.datasets:
        precisions = {}
        for k in batch_sizes:
            values = []
            for seed in spawn_rngs(config.seed, config.runs):
                values.append(
                    _precision_at_effort(dataset, k, effort_fraction, config, seed)
                )
            precisions[k] = float(np.mean(values))
        unbatched = max(precisions[batch_sizes[0]], 1e-9)
        for k in batch_sizes:
            degradation = 100.0 * precision_degradation(unbatched, precisions[k])
            savings = [100.0 * cost_saving(k, alpha) for alpha in alphas]
            result.add_row(dataset, k, precisions[k], degradation, *savings)
    return result


def _precision_at_effort(
    dataset: str,
    batch_size: int,
    effort_fraction: float,
    config: ExperimentConfig,
    seed,
) -> float:
    """Run with batches of size k to the effort budget; return precision."""
    rng = ensure_rng(seed)
    database = build_database(dataset, config, rng)
    process = make_process(
        database, "info", config, rng, batch_size=batch_size
    )
    process.initialize()
    budget = int(round(effort_fraction * database.num_claims))
    while (
        process.state.num_labelled < budget
        and process.state.unlabelled_indices.size > 0
    ):
        process.step()
    precision = process.current_precision()
    return precision if precision is not None else 0.0
