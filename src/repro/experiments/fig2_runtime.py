"""Fig. 2 — per-iteration response time across datasets and variants (§8.2).

Three implementation variants of claim selection + inference are compared:

* ``origin`` — Gibbs-based hypothetical inference over the whole graph
  with exact (enumeration-based) entropy where feasible;
* ``scalable`` — the linear-time entropy approximation of §4.1 (Eq. 13);
* ``parallel+partition`` — additionally the optimisations of §5.1, as
  far as they pay here: component-restricted (partitioned) inference
  with mean-field hypotheses.  Candidates are evaluated in sequence, not
  in parallel: thread dispatch measured slower than one thread on a
  2-core host (ROADMAP.md, "Open items", item 3).  The name follows the
  paper.

Expected shape (paper): response time grows with dataset size and drops
sharply across the variants, with ``parallel+partition`` staying below
half a second.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import ExperimentConfig, build_database, build_process
from repro.guidance.gain import GainConfig
from repro.utils.rng import spawn_rngs

#: The three measured variants and their gain configurations.
VARIANTS = {
    "origin": GainConfig(
        inference_mode="gibbs", entropy_method="exact", localize=False
    ),
    "scalable": GainConfig(
        inference_mode="gibbs", entropy_method="approx", localize=False
    ),
    "parallel+partition": GainConfig(
        inference_mode="meanfield", entropy_method="approx", localize=True
    ),
}


def run(
    config: Optional[ExperimentConfig] = None, iterations: int = 8
) -> ExperimentResult:
    """Measure mean response time per variant and dataset.

    Args:
        config: Experiment configuration (defaults apply when omitted).
        iterations: Validation iterations measured per run.
    """
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="fig2_runtime",
        title="Fig. 2 — Avg. response time (s) per validation iteration",
        headers=["dataset", "variant", "avg_seconds", "iterations"],
        notes=(
            "expected shape: times increase with dataset size and decrease "
            "origin -> scalable -> parallel+partition "
            "(parallel+partition evaluates candidates in sequence; see "
            "repro.experiments.fig2_runtime)"
        ),
    )
    for dataset in config.datasets:
        for variant, gain_config in VARIANTS.items():
            times = []
            for rng in spawn_rngs(config.seed, config.runs):
                database = build_database(dataset, config, rng)
                process = build_process(
                    database,
                    "hybrid",
                    config,
                    rng,
                    gain_config=gain_config,
                )
                process.initialize()
                steps = min(iterations, database.num_claims - 1)
                for _ in range(steps):
                    record = process.step()
                    times.append(record.response_seconds)
            result.add_row(dataset, variant, float(np.mean(times)), len(times))
    return result
