"""Fig. 7 — guidance effectiveness under erroneous user input (§8.5).

Identical protocol to Fig. 6, but the simulated user flips its input with
probability p and the confirmation check (§5.2) repairs detected mistakes;
every repair adds to the invested effort ("label+repair effort").
Expected shape: all curves need more effort than in Fig. 6, but the
guided strategies — hybrid in particular — retain their advantage over
the baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult, series_at_grid
from repro.experiments.runner import (
    ExperimentConfig,
    build_database,
    make_process,
)
from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs
from repro.validation.oracle import SimulatedUser

STRATEGY_NAMES = ("random", "uncertainty", "info", "source", "hybrid")
DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def run(
    config: Optional[ExperimentConfig] = None,
    strategies: Sequence[str] = STRATEGY_NAMES,
    error_probability: float = 0.2,
    grid: Sequence[float] = DEFAULT_GRID,
    target_precision: float = 0.9,
) -> ExperimentResult:
    """Precision vs. label+repair effort with an error-prone user."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="fig7_erroneous_input",
        title=(
            "Fig. 7 — Precision vs. label+repair effort "
            f"(user error p={error_probability})"
        ),
        headers=["dataset", "strategy"]
        + [f"P@{int(g * 100)}%" for g in grid]
        + [f"effort_to_{target_precision}"],
        notes=(
            "expected shape: more effort than Fig. 6 overall, guided "
            "strategies still dominate the baselines"
        ),
    )
    for dataset in config.datasets:
        for strategy in strategies:
            curves = []
            efforts_to_target = []
            for seed in spawn_rngs(config.seed, config.runs):
                rng = ensure_rng(seed)
                database = build_database(dataset, config, rng)
                interval = max(1, database.num_claims // 100)
                user = SimulatedUser(
                    error_probability=error_probability,
                    seed=derive_rng(rng, 1),
                )
                process = make_process(
                    database,
                    strategy,
                    config,
                    derive_rng(rng, 2),
                    precision_goal=1.0,
                    user=user,
                    confirmation_interval=interval,
                )
                trace = process.run()
                efforts = np.concatenate(
                    ([0.0], trace.efforts(include_repairs=True))
                )
                precisions = np.concatenate(
                    (
                        [trace.initial_precision or 0.0],
                        np.nan_to_num(trace.precisions(), nan=0.0),
                    )
                )
                curves.append(series_at_grid(list(efforts), list(precisions), grid))
                reached = trace.effort_to_reach(
                    target_precision, include_repairs=True
                )
                efforts_to_target.append(reached if reached is not None else 1.5)
            mean_curve = np.mean(np.asarray(curves), axis=0)
            result.add_row(
                dataset,
                strategy,
                *[float(v) for v in mean_curve],
                float(np.mean(efforts_to_target)),
            )
    return result
