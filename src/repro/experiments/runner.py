"""Shared infrastructure of the experiment drivers (§8).

The drivers replay the paper's protocols on the synthetic corpus replicas.
Entity counts are shrunk through per-dataset ``scale`` factors so a full
experiment sweep completes in minutes on a laptop while preserving each
corpus's *shape* (documents-per-claim and claims-per-source ratios are
scale-invariant in the generator); pass ``scale_factor > 1`` to approach
the published sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.api.specs import (
    EffortSpec,
    GoalSpec,
    GuidanceSpec,
    InferenceSpec,
    SessionSpec,
)
from repro.data.database import FactDatabase
from repro.datasets import generate_dataset, get_profile
from repro.guidance.gain import GainConfig
from repro.inference.icrf import ICrf
from repro.inference.mstep import MStepConfig
from repro.utils.rng import RandomState, ensure_rng
from repro.validation.oracle import SimulatedUser
from repro.validation.process import ValidationProcess

#: Default corpus scales: chosen so each replica has 25–50 claims and a few
#: hundred to ~1.5k documents — large enough for the guidance dynamics to
#: show, small enough for full sweeps in CI.
DEFAULT_SCALES: Dict[str, float] = {
    "wiki": 0.20,
    "health": 0.05,
    "snopes": 0.008,
}

#: All dataset keys, in the paper's presentation order.
DATASETS = ("wiki", "health", "snopes")


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    Attributes:
        seed: Root seed; every run derives deterministic children.
        scale_factor: Multiplier on :data:`DEFAULT_SCALES` (1.0 = default
            replica sizes; larger values approach the published corpora).
        datasets: Which corpora to run.
        runs: Independent repetitions to average over.
        em_iterations: EM budget per validation iteration.
        gibbs_samples: Gibbs samples per E-step.
        candidate_limit: Candidate-pool cap for gain-based strategies
            (``None`` scans all unlabelled claims).
    """

    seed: int = 7
    scale_factor: float = 1.0
    datasets: Sequence[str] = DATASETS
    runs: int = 2
    em_iterations: int = 2
    gibbs_samples: int = 12
    candidate_limit: Optional[int] = 20
    scales: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SCALES))

    def scale_of(self, dataset: str) -> float:
        """Effective generation scale of one dataset."""
        return self.scales[dataset] * self.scale_factor

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


def build_database(
    dataset: str, config: ExperimentConfig, seed: RandomState
) -> FactDatabase:
    """Generate the synthetic replica of one corpus."""
    profile = get_profile(dataset)
    return generate_dataset(profile, seed=seed, scale=config.scale_of(dataset))


def make_process(
    database: FactDatabase,
    strategy_name: str,
    config: ExperimentConfig,
    seed: RandomState,
    precision_goal: Optional[float] = None,
    user: Optional[SimulatedUser] = None,
    gain_config: Optional[GainConfig] = None,
    confirmation_interval: Optional[int] = None,
    batch_size: int = 1,
) -> ValidationProcess:
    """Assemble a validation process with the experiment defaults.

    Args:
        precision_goal: Stop once the true precision reaches this value
            (``None``: no goal).
        confirmation_interval: Run the §5.2 confirmation check after this
            many validations (``None``: off).
    """
    rng = ensure_rng(seed)
    spec = SessionSpec(
        inference=InferenceSpec(
            em_iterations=config.em_iterations,
            num_samples=config.gibbs_samples,
            mstep=MStepConfig(max_iterations=15),
        ),
        guidance=GuidanceSpec(
            strategy=strategy_name,
            candidate_limit=config.candidate_limit,
            gain=gain_config or GainConfig(),
        ),
        effort=EffortSpec(
            goal=(
                GoalSpec()
                if precision_goal is None
                else GoalSpec(kind="true_precision", threshold=precision_goal)
            ),
            batch_size=batch_size,
            confirmation_interval=confirmation_interval,
        ),
    )
    icrf = ICrf(database, spec.inference, seed=rng)
    if user is None:
        user = SimulatedUser(seed=rng)
    return ValidationProcess(database, spec, user=user, icrf=icrf, seed=rng)


def run_to_precision(
    dataset: str,
    strategy_name: str,
    config: ExperimentConfig,
    seed: RandomState,
    precision: float = 1.0,
):
    """Run one validation process until a precision target (or exhaustion).

    Returns:
        ``(trace, process)``.
    """
    rng = ensure_rng(seed)
    database = build_database(dataset, config, rng)
    process = make_process(
        database, strategy_name, config, rng, precision_goal=precision
    )
    trace = process.run()
    return trace, process
