"""Fig. 9 — effectiveness of the early-termination indicators (§8.6).

One validation run to exhaustion on the snopes replica; per effort grid
point the precision improvement (%) is reported next to each convergence
indicator of §6.1: URR (uncertainty reduction rate), CNG (grounding
changes), PRE (validated predictions), and PIR (cross-validated precision
improvement rate).  Expected shape: the indicators decay (PRE rises) as
precision improvement saturates — stopping when, e.g., URR falls below
20% already captures > 80% of the achievable improvement at roughly 40%
effort.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.effort.crossval import estimate_precision
from repro.effort.termination import cng_series, pre_series, urr_series
from repro.experiments.reporting import ExperimentResult, series_at_grid
from repro.experiments.runner import ExperimentConfig, build_database, make_process
from repro.utils.rng import ensure_rng

DEFAULT_GRID = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def run(
    config: Optional[ExperimentConfig] = None,
    dataset: str = "snopes",
    grid: Sequence[float] = DEFAULT_GRID,
    pir_folds: int = 4,
) -> ExperimentResult:
    """All four indicators next to precision improvement, on one run."""
    config = config if config is not None else ExperimentConfig()
    rng = ensure_rng(config.seed)
    database = build_database(dataset, config, rng)
    process = make_process(database, "hybrid", config, rng)
    process.initialize()

    precision_estimates = []
    while database.unlabelled_indices.size > 0:
        process.step()
        if database.num_labelled >= max(pir_folds, 4):
            precision_estimates.append(
                estimate_precision(process, folds=pir_folds)
            )
        else:
            precision_estimates.append(np.nan)
    trace = process.trace

    efforts = list(trace.efforts())
    improvements = 100.0 * np.nan_to_num(trace.precision_improvements(), nan=0.0)
    urr = 100.0 * urr_series(trace)
    cng = 100.0 * cng_series(trace)
    pre = 100.0 * pre_series(trace)
    estimates = np.asarray(precision_estimates, dtype=float)
    pir = np.zeros_like(estimates)
    for index in range(1, estimates.size):
        previous, current = estimates[index - 1], estimates[index]
        if np.isnan(previous) or np.isnan(current) or previous <= 0:
            pir[index] = 0.0
        else:
            pir[index] = 100.0 * (current - previous) / previous

    result = ExperimentResult(
        name="fig9_early_termination",
        title=f"Fig. 9 — Early-termination indicators ({dataset})",
        headers=["effort", "prec_improv_%", "URR_%", "CNG_%", "PRE_%", "PIR_%"],
        notes=(
            "expected shape: URR/CNG/PIR decay and PRE rises while the "
            "precision improvement saturates"
        ),
    )
    for point in grid:
        result.add_row(
            f"{int(point * 100)}%",
            series_at_grid(efforts, list(improvements), [point])[0],
            series_at_grid(efforts, list(urr), [point])[0],
            series_at_grid(efforts, list(cng), [point])[0],
            series_at_grid(efforts, list(pre), [point])[0],
            series_at_grid(efforts, list(pir), [point])[0],
        )
    return result
