"""Credibility inference (§3): iCRF EM, TRON optimiser, grounding decisions."""

from repro.inference.decide import decide_grounding, threshold_grounding
from repro.inference.engine import (
    InferenceEngine,
    SpeculativeEngine,
    create_engine,
)
from repro.inference.icrf import ICrf
from repro.inference.mstep import MStepConfig, build_design_matrix, run_m_step
from repro.inference.result import InferenceResult
from repro.inference.tron import (
    TronResult,
    WeightedLogisticLoss,
    tron_minimize,
)

__all__ = [
    "ICrf",
    "InferenceEngine",
    "InferenceResult",
    "MStepConfig",
    "SpeculativeEngine",
    "TronResult",
    "WeightedLogisticLoss",
    "build_design_matrix",
    "create_engine",
    "decide_grounding",
    "run_m_step",
    "threshold_grounding",
    "tron_minimize",
]
