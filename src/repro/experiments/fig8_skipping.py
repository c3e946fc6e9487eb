"""Fig. 8 — effects of missing user input (§8.5).

A user may skip a claim with probability ``p_m``, in which case the
process validates the next-best candidate.  The figure reports *saved
effort*: how much effort guided validation saves relative to the random
baseline when reaching a precision target, under skipping.  Expected
shape: savings of up to ~30% that shrink when skipping strikes early
(low precision targets) because the second-best candidate yields worse
inference.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import (
    ExperimentConfig,
    build_database,
    make_process,
)
from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs
from repro.validation.oracle import SimulatedUser

#: Skip probabilities of the figure's x-axis.
DEFAULT_SKIP_PROBABILITIES = (0.1, 0.25, 0.5)
#: Precision targets of the figure's series.
DEFAULT_TARGETS = (0.7, 0.8, 0.9)


def run(
    config: Optional[ExperimentConfig] = None,
    skip_probabilities: Sequence[float] = DEFAULT_SKIP_PROBABILITIES,
    targets: Sequence[float] = DEFAULT_TARGETS,
) -> ExperimentResult:
    """Saved effort (%) vs. skipping probability, per precision target."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="fig8_skipping",
        title="Fig. 8 — Saved effort (%) under skipping",
        headers=["dataset", "skip_pm"]
        + [f"saved@prec={t}" for t in targets],
        notes=(
            "saved effort of hybrid guidance relative to random selection; "
            "expected shape: positive savings, reduced at low precision "
            "targets when skipping strikes early"
        ),
    )
    for dataset in config.datasets:
        baseline = _mean_efforts(dataset, "random", 0.0, targets, config)
        for pm in skip_probabilities:
            guided = _mean_efforts(dataset, "hybrid", pm, targets, config)
            row = [dataset, pm]
            for target in targets:
                base = baseline[target]
                ours = guided[target]
                saved = 100.0 * (base - ours) / base if base > 0 else 0.0
                row.append(float(saved))
            result.add_row(*row)
    return result


def _mean_efforts(
    dataset: str,
    strategy: str,
    skip_probability: float,
    targets: Sequence[float],
    config: ExperimentConfig,
):
    """Mean effort fraction needed to reach each precision target."""
    sums = {t: [] for t in targets}
    for seed in spawn_rngs(config.seed, config.runs):
        rng = ensure_rng(seed)
        database = build_database(dataset, config, rng)
        user = SimulatedUser(
            skip_probability=skip_probability, seed=derive_rng(rng, 1)
        )
        process = make_process(
            database,
            strategy,
            config,
            derive_rng(rng, 2),
            precision_goal=max(targets),
            user=user,
        )
        trace = process.run()
        for target in targets:
            reached = trace.effort_to_reach(target)
            sums[target].append(reached if reached is not None else 1.0)
    return {t: float(np.mean(v)) for t, v in sums.items()}
