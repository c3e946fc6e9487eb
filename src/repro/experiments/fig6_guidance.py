"""Fig. 6 — effectiveness of the guidance strategies (§8.4).

The headline experiment: for each dataset and each selection strategy
(random, uncertainty, info, source, hybrid), the validation process runs
until perfect precision while the precision-vs-effort curve is recorded.
The paper's headline numbers: on snopes, ``hybrid`` reaches precision
> 0.9 with input on only 31% of the claims while every baseline needs at
least 67% — i.e. roughly *half the effort* of the baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult, series_at_grid
from repro.experiments.runner import ExperimentConfig, run_to_precision
from repro.utils.rng import spawn_rngs

#: Strategies of the figure, in legend order.
STRATEGY_NAMES = ("random", "uncertainty", "info", "source", "hybrid")
#: Effort grid (fractions of |C|) for the reported curves.
DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def run(
    config: Optional[ExperimentConfig] = None,
    strategies: Sequence[str] = STRATEGY_NAMES,
    grid: Sequence[float] = DEFAULT_GRID,
    target_precision: float = 0.9,
) -> ExperimentResult:
    """Precision-vs-effort curves plus effort-to-target summaries.

    Args:
        config: Experiment configuration.
        strategies: Strategies to compare.
        grid: Effort grid for the sampled curves.
        target_precision: The summary target (paper: 0.9).
    """
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="fig6_guidance",
        title="Fig. 6 — Precision vs. label effort per guidance strategy",
        headers=["dataset", "strategy"]
        + [f"P@{int(g * 100)}%" for g in grid]
        + [f"effort_to_{target_precision}"],
        notes=(
            "expected shape: hybrid dominates; it reaches the target "
            "precision with roughly half the effort of random selection"
        ),
    )
    for dataset in config.datasets:
        for strategy in strategies:
            curves = []
            efforts_to_target = []
            for rng in spawn_rngs(config.seed, config.runs):
                trace, _ = run_to_precision(
                    dataset, strategy, config, rng, precision=1.0
                )
                efforts = np.concatenate(([0.0], trace.efforts()))
                precisions = np.concatenate(
                    (
                        [trace.initial_precision or 0.0],
                        np.nan_to_num(trace.precisions(), nan=0.0),
                    )
                )
                curves.append(
                    series_at_grid(list(efforts), list(precisions), grid)
                )
                reached = trace.effort_to_reach(target_precision)
                efforts_to_target.append(reached if reached is not None else 1.0)
            mean_curve = np.mean(np.asarray(curves), axis=0)
            result.add_row(
                dataset,
                strategy,
                *[float(v) for v in mean_curve],
                float(np.mean(efforts_to_target)),
            )
    return result

