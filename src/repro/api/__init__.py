"""Declarative session API: specs, the unified façade, and checkpoints.

The high-level entry point of the framework::

    from repro.api import FactCheckSession, SessionSpec, GoalSpec, EffortSpec

    spec = SessionSpec(
        seed=7,
        dataset={"name": "snopes", "seed": 7, "scale": 0.01},
        effort=EffortSpec(goal=GoalSpec(kind="true_precision", threshold=0.9)),
    )
    with FactCheckSession(spec) as session:
        result = session.run()
    print(result.stop_reason, result.final_precision)

Specs serialise to/from JSON (``spec.to_json()`` / ``SessionSpec.from_json``)
and fully determine a run; sessions checkpoint mid-run with
``session.save(path)`` and resume bit-for-bit with
``FactCheckSession.load(path)``.  See ``docs/API.md`` for the lifecycle,
every spec field, and the constructors of the runtime classes.
"""

from repro.api.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.api.session import FactCheckSession, SessionResult
from repro.api.specs import (
    GOAL_KINDS,
    SESSION_MODES,
    TERMINATION_KINDS,
    DatasetSpec,
    EffortSpec,
    GoalSpec,
    GuidanceSpec,
    InferenceSpec,
    SessionSpec,
    StreamSourceSpec,
    StreamSpec,
    TerminationSpec,
    UserSpec,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "DatasetSpec",
    "EffortSpec",
    "FactCheckSession",
    "GOAL_KINDS",
    "GoalSpec",
    "GuidanceSpec",
    "InferenceSpec",
    "SESSION_MODES",
    "SessionResult",
    "SessionSpec",
    "StreamSourceSpec",
    "StreamSpec",
    "TERMINATION_KINDS",
    "TerminationSpec",
    "UserSpec",
]
