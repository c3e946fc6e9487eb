"""Table 1 — detection of erroneous user input (§8.5).

User mistakes are injected by flipping correct input with probability p;
the confirmation check of §5.2 runs periodically.  Reported per dataset
and p: the percentage of injected mistakes that were detected.  Expected
shape (paper): detection stays high (≈ 80–100%) and degrades gently as p
grows — with more simultaneous mistakes the redundancy the check exploits
weakens.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import ExperimentConfig, build_database, make_process
from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs
from repro.validation.oracle import SimulatedUser

#: Mistake probabilities of the table's columns.
DEFAULT_PROBABILITIES = (0.15, 0.20, 0.25, 0.30)


def run(
    config: Optional[ExperimentConfig] = None,
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    effort_fraction: float = 0.6,
) -> ExperimentResult:
    """Detection rate of injected mistakes per dataset and p.

    Args:
        config: Experiment configuration.
        probabilities: Mistake probabilities p to sweep.
        effort_fraction: Fraction of claims validated per run.
    """
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="table1_mistake_detection",
        title="Table 1 — Detected mistakes (%)",
        headers=["dataset"] + [f"p={p}" for p in probabilities],
        notes="expected shape: high detection, decreasing with p",
    )
    for dataset in config.datasets:
        row = [dataset]
        for probability in probabilities:
            rates = []
            for rng in spawn_rngs(config.seed, config.runs):
                rates.append(
                    _detection_rate(dataset, probability, effort_fraction,
                                    config, rng)
                )
            row.append(100.0 * float(np.mean(rates)))
        result.add_row(*row)
    return result


def _detection_rate(
    dataset: str,
    probability: float,
    effort_fraction: float,
    config: ExperimentConfig,
    seed,
) -> float:
    """One run: detected / (detected + undetected) injected mistakes."""
    rng = ensure_rng(seed)
    database = build_database(dataset, config, rng)
    truth = database.truth_vector()
    # The paper triggers the check after each 1% of total validations;
    # with the scaled corpora that is at least every claim.
    interval = max(1, database.num_claims // 100)
    user = SimulatedUser(error_probability=probability, seed=derive_rng(rng, 1))
    process = make_process(
        database,
        "hybrid",
        config,
        derive_rng(rng, 2),
        user=user,
        confirmation_interval=interval,
    )
    process.initialize()
    budget = int(round(effort_fraction * database.num_claims))
    for _ in range(budget):
        if process.state.unlabelled_indices.size == 0:
            break
        process.step()
    detected = process.robustness_stats.true_detections
    # Mistakes still standing at the end were never detected.
    undetected = sum(
        1
        for claim_index, label in process.state.labels.items()
        if label != int(truth[claim_index])
    )
    total = detected + undetected
    if total == 0:
        return 1.0
    return detected / total
