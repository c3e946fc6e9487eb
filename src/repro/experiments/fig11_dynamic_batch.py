"""Fig. 11 — effects of a dynamic batch size (§8.7).

For each static batch size k the process runs until a precision threshold
(0.8 / 0.9) and the consumed label effort is recorded against the cost
saving ``CS(k)`` with α = 2/3 — the trade-off from which the paper derives
its dynamic schedule (start small, grow k once enough claims are
validated).  The dynamic schedule itself
(:func:`repro.effort.cost.dynamic_batch_size`) is measured as an extra row.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.effort.cost import cost_saving, dynamic_batch_size
from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import (
    ExperimentConfig,
    build_database,
    make_process,
)
from repro.utils.rng import ensure_rng, spawn_rngs

DEFAULT_BATCH_SIZES = (1, 2, 5, 10, 20)
DEFAULT_THRESHOLDS = (0.8, 0.9)
DEFAULT_ALPHA = 2.0 / 3.0


def run(
    config: Optional[ExperimentConfig] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    alpha: float = DEFAULT_ALPHA,
) -> ExperimentResult:
    """Label effort vs. cost saving per batch size and precision target."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="fig11_dynamic_batch",
        title=f"Fig. 11 — Label effort vs. cost saving (alpha={alpha:.2f})",
        headers=["dataset", "k", "cost_saving_%"]
        + [f"effort@prec={t}" for t in thresholds],
        notes=(
            "expected shape: larger k -> more cost saving but more label "
            "effort to reach a precision level; 'dynamic' approaches small-k "
            "effort with large-k savings"
        ),
    )
    for dataset in config.datasets:
        for k in batch_sizes:
            efforts = _efforts_to_thresholds(
                dataset, k, thresholds, config, dynamic=False
            )
            result.add_row(
                dataset,
                k,
                100.0 * cost_saving(k, alpha),
                *[efforts[t] for t in thresholds],
            )
        efforts = _efforts_to_thresholds(
            dataset, 0, thresholds, config, dynamic=True
        )
        # The dynamic schedule's saving is computed from its mean batch size.
        mean_k = max(int(round(efforts.pop("mean_k"))), 1)
        result.add_row(
            dataset,
            "dynamic",
            100.0 * cost_saving(mean_k, alpha),
            *[efforts[t] for t in thresholds],
        )
    return result


def _efforts_to_thresholds(
    dataset: str,
    batch_size: int,
    thresholds: Sequence[float],
    config: ExperimentConfig,
    dynamic: bool,
):
    """Mean label effort needed for each threshold; optionally dynamic k."""
    sums = {t: [] for t in thresholds}
    batch_sizes_used = []
    for seed in spawn_rngs(config.seed, config.runs):
        rng = ensure_rng(seed)
        database = build_database(dataset, config, rng)
        process = make_process(
            database,
            "info",
            config,
            rng,
            batch_size=batch_size if not dynamic else 1,
        )
        process.initialize()
        reached = {t: None for t in thresholds}
        while database.unlabelled_indices.size > 0:
            if dynamic:
                fraction = database.num_labelled / database.num_claims
                process.batch_size = dynamic_batch_size(fraction)
            batch_sizes_used.append(process.batch_size)
            process.step()
            effort = database.num_labelled / database.num_claims
            precision = process.current_precision() or 0.0
            for t in thresholds:
                if reached[t] is None and precision >= t:
                    reached[t] = effort
            if all(v is not None for v in reached.values()):
                break
        for t in thresholds:
            sums[t].append(reached[t] if reached[t] is not None else 1.0)
    out = {t: float(np.mean(v)) for t, v in sums.items()}
    if dynamic:
        out["mean_k"] = float(np.mean(batch_sizes_used)) if batch_sizes_used else 1.0
    return out
