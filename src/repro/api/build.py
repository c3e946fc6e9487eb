"""Builders turning declarative specs into runtime objects.

The session façade (and the ``from_spec`` classmethods on the legacy
classes) construct every framework component through these helpers.  All
construction happens inside :func:`~repro._legacy.suppress_legacy_warnings`
so the deprecation nudge on the kwarg constructors fires only for direct
user code.
"""

from __future__ import annotations

from typing import Optional

from repro._legacy import suppress_legacy_warnings
from repro.data.database import FactDatabase
from repro.errors import SpecError
from repro.guidance.strategies import make_strategy
from repro.utils.rng import RandomState, ensure_rng
from repro.validation.oracle import SimulatedUser, User

from repro.api.specs import InferenceSpec, SessionSpec, UserSpec


def build_user(spec: UserSpec, seed: RandomState = None) -> SimulatedUser:
    """Simulated oracle user from a :class:`UserSpec`."""
    return SimulatedUser(
        error_probability=spec.error_probability,
        skip_probability=spec.skip_probability,
        seed=seed,
    )


def build_icrf(
    database: FactDatabase,
    spec: Optional[InferenceSpec] = None,
    seed: RandomState = None,
):
    """iCRF engine configured by an :class:`InferenceSpec`."""
    from repro.inference.icrf import ICrf

    spec = spec if spec is not None else InferenceSpec()
    with suppress_legacy_warnings():
        return ICrf(
            database,
            aggregation=spec.aggregation,
            coupling_enabled=spec.coupling_enabled,
            em_iterations=spec.em_iterations,
            em_tolerance=spec.em_tolerance,
            burn_in=spec.burn_in,
            num_samples=spec.num_samples,
            initial_bias=spec.initial_bias,
            mstep=spec.mstep,
            estep_mode=spec.estep_mode,
            seed=seed,
        )


def build_process(
    database: FactDatabase,
    spec: SessionSpec,
    user: Optional[User] = None,
    icrf=None,
    seed: RandomState = None,
):
    """Validation process (Alg. 1) assembled from a :class:`SessionSpec`.

    Args:
        database: The corpus to validate.
        spec: The session configuration.
        user: Validating user; built from ``spec.user`` when omitted (the
            caller is then responsible for seeding determinism).
        icrf: Inference engine; built from ``spec.inference`` when omitted.
        seed: Seed or generator for the process (strategy roulette, tie
            breaks, skip fallbacks) and — when built here — the iCRF chain.
    """
    from repro.validation.process import ValidationProcess
    from repro.validation.robustness import ConfirmationChecker

    rng = ensure_rng(seed)
    effort = spec.effort
    robustness = (
        ConfirmationChecker(interval=effort.confirmation_interval)
        if effort.confirmation_interval is not None
        else None
    )
    with suppress_legacy_warnings():
        if icrf is None:
            from repro.utils.rng import derive_rng

            icrf = build_icrf(database, spec.inference, seed=derive_rng(rng, 0))
        if user is None:
            user = build_user(spec.user)
        return ValidationProcess(
            database,
            strategy=make_strategy(spec.guidance.strategy),
            user=user,
            goal=effort.goal.build(),
            budget=effort.budget,
            icrf=icrf,
            gain_config=spec.guidance.gain,
            candidate_limit=spec.guidance.candidate_limit,
            batch_size=effort.batch_size,
            batch_utility_weight=effort.batch_utility_weight,
            robustness=robustness,
            termination=[entry.build() for entry in effort.termination],
            max_skip_attempts=effort.max_skip_attempts,
            deterministic_ties=spec.guidance.deterministic_ties,
            seed=rng,
        )


def build_checker(spec: SessionSpec, seed: RandomState = None):
    """Streaming fact checker (Alg. 2) assembled from a :class:`SessionSpec`."""
    import dataclasses

    from repro.streaming.process import StreamingFactChecker
    from repro.streaming.schedule import RobbinsMonroSchedule

    stream = spec.stream
    inference = spec.inference
    online_mstep = dataclasses.replace(
        inference.mstep, max_iterations=stream.online_mstep_iterations
    )
    with suppress_legacy_warnings():
        return StreamingFactChecker(
            schedule=RobbinsMonroSchedule(
                beta=stream.schedule_beta, scale=stream.schedule_scale
            ),
            aggregation=inference.aggregation,
            coupling_enabled=inference.coupling_enabled,
            mstep=online_mstep,
            meanfield_steps=stream.meanfield_steps,
            initial_bias=inference.initial_bias,
            prior=stream.prior,
            incremental=stream.incremental,
            allow_pending_labels=stream.allow_pending_labels,
            seed=seed,
        )


def resolve_database(
    spec: SessionSpec, database: Optional[FactDatabase]
) -> FactDatabase:
    """The corpus a session runs on: explicit object or ``spec.dataset``."""
    if database is not None:
        return database
    if spec.dataset is None:
        raise SpecError(
            "no corpus: pass a FactDatabase to the session or set "
            "SessionSpec.dataset"
        )
    return spec.dataset.load()
