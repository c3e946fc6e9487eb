"""repro — reproduction of "User Guidance for Efficient Fact Checking".

A framework for guiding users in the validation of candidate facts
extracted from Web sources (Nguyen Thanh Tam et al., PVLDB 2019).  The
recommended entry point is the declarative session API:

* :mod:`repro.api` — :class:`SessionSpec` configs (JSON-serialisable) and
  the :class:`FactCheckSession` façade unifying batch validation (Alg. 1)
  and streaming claim arrival (Alg. 2) behind one lifecycle with
  checkpoint/resume.
* :mod:`repro.service` — the multi-session service layer: a managed
  registry of sessions behind an HTTP API (``python -m repro serve``)
  with checkpoint-backed durability; see ``docs/SERVICE.md``.

The paper-structured subsystems remain importable for advanced use:

* :mod:`repro.data` — the probabilistic fact database Q = <S, D, C, P>.
* :mod:`repro.datasets` — synthetic replicas of the evaluation corpora.
* :mod:`repro.crf` — the CRF substrate (potentials, Gibbs, entropy).
* :mod:`repro.inference` — iCRF incremental EM and the TRON optimiser.
* :mod:`repro.guidance` — claim-selection strategies (info/source/hybrid).
* :mod:`repro.validation` — the interactive validation process (Alg. 1).
* :mod:`repro.effort` — early termination and batch selection.
* :mod:`repro.streaming` — streaming fact checking (Alg. 2).
* :mod:`repro.crowd` — simulated expert/crowd validators and consensus.
* :mod:`repro.experiments` — drivers for every table/figure of §8.

Quickstart::

    from repro import FactCheckSession, SessionSpec

    spec = SessionSpec(
        seed=7,
        dataset={"name": "snopes", "seed": 7, "scale": 0.01},
        effort={"goal": {"kind": "true_precision", "threshold": 0.9}},
    )
    with FactCheckSession(spec) as session:
        result = session.run()
    print(result.stop_reason, result.num_labelled, result.final_precision)

The runtime classes (``ValidationProcess``, ``ICrf``,
``StreamingFactChecker``) take the same specs directly; see
``docs/API.md``.
"""

from repro.api import (
    DatasetSpec,
    EffortSpec,
    FactCheckSession,
    GoalSpec,
    GuidanceSpec,
    InferenceSpec,
    SessionResult,
    SessionSpec,
    StreamSpec,
    TerminationSpec,
    UserSpec,
)
from repro.data import Claim, ClaimLink, Document, FactDatabase, Grounding, Source, Stance
from repro.datasets import load_database, load_dataset, save_database
from repro.errors import ReproError, SessionError, SpecError
from repro.guidance import make_strategy
from repro.inference import ICrf
from repro.streaming import (
    ClaimArrival,
    StreamingFactChecker,
    arrival_from_dict,
    arrival_to_dict,
    stream_from_database,
)
from repro.validation import (
    SimulatedUser,
    TruePrecisionGoal,
    User,
    ValidationProcess,
    ValidationTrace,
)

__version__ = "1.2.0"

__all__ = [
    # Declarative session API (preferred surface).
    "DatasetSpec",
    "EffortSpec",
    "FactCheckSession",
    "GoalSpec",
    "GuidanceSpec",
    "InferenceSpec",
    "SessionResult",
    "SessionSpec",
    "StreamSpec",
    "TerminationSpec",
    "UserSpec",
    # Data model and corpora.
    "Claim",
    "ClaimLink",
    "ClaimArrival",
    "Document",
    "FactDatabase",
    "Grounding",
    "Source",
    "Stance",
    "arrival_from_dict",
    "arrival_to_dict",
    "load_database",
    "load_dataset",
    "save_database",
    "stream_from_database",
    # Users and errors.
    "ReproError",
    "SessionError",
    "SimulatedUser",
    "SpecError",
    "User",
    # Runtime classes configured by the specs.
    "ICrf",
    "StreamingFactChecker",
    "TruePrecisionGoal",
    "ValidationProcess",
    "ValidationTrace",
    "make_strategy",
    "__version__",
]
