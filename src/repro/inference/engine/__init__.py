"""The inference engine — the vectorised hot path of iCRF.

The interactivity claims of the paper (Fig. 2 response times, the
linear-time Hessian-vector products of Proposition 1) stand or fall with
the cost of the E-step/M-step inner loops.  This package concentrates
that hot path in one engine, :class:`SpeculativeEngine`: exact
speculative-batch Gibbs sweeps over cached per-claim evidence matrices,
whose scan-order merge walk runs in a compiled kernel (Python fallback
when the host has no C compiler), plus fully vectorised M-step design
assembly.  See :mod:`.speculative` for the sweep.

:func:`create_engine` memoises the engine per model, so the E-step, the
M-step and the gain chains of a model share it.  The claim-at-a-time
scalar oracle that golden fixtures are recorded against lives in the
test suite (``tests/reference_engine.py``) and is plugged in through
the ``engine=`` test seam of ``ICrf``, ``GibbsSampler`` and
``run_m_step``.
"""

from repro.inference.engine.base import (
    InferenceEngine,
    MStepData,
    create_engine,
)
from repro.inference.engine.speculative import SpeculativeEngine

__all__ = [
    "InferenceEngine",
    "MStepData",
    "SpeculativeEngine",
    "create_engine",
]
