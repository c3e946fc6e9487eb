"""Engine interface and per-model memoisation."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.crf.model import CrfModel
from repro.errors import InferenceError

MStepData = Tuple[np.ndarray, np.ndarray, np.ndarray]


class InferenceEngine:
    """Hot-path operations bound to one :class:`~repro.crf.model.CrfModel`.

    An engine is stateless with respect to the Gibbs chain — all chain
    state lives in the sampler — so one engine can safely serve several
    samplers over the same model.
    """

    def __init__(self, model: CrfModel) -> None:
        self._model = model

    @property
    def model(self) -> CrfModel:
        """The model whose structure is cached."""
        return self._model

    def refresh_structure(self) -> None:
        """Re-derive cached structure after the model grows in place.

        Called by :meth:`CrfModel.grow` on every memoised engine when a
        streaming arrival extends the database.  The base implementation
        is a no-op — engines that cache structure-derived arrays override
        it.
        """

    def sweep(
        self,
        free_claims: np.ndarray,
        spins: np.ndarray,
        stats: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """One random-order sequential scan over the free claims.

        Mutates ``spins`` and keeps ``stats`` (the per-source consistency
        statistics ``A_s``) consistent with them.  The random stream is
        consumed as one permutation draw followed by one uniform draw per
        free claim.
        """
        raise NotImplementedError

    def assemble_mstep(self, state, config) -> Optional[MStepData]:
        """Expected-statistics design ``(X, targets, weights)`` for TRON.

        Reads the marginals ``q`` and the labels of ``state`` (a
        :class:`~repro.data.state.ClaimState`).  Labelled claims
        contribute one boosted row with their user label; unlabelled
        claims contribute two fractional rows (target 1 with weight
        ``q``, target 0 with weight ``1 - q``).  Returns ``None`` when no
        claim meets the coverage threshold.
        """
        raise NotImplementedError


EngineFactory = Callable[[CrfModel], InferenceEngine]


def create_engine(
    model: CrfModel,
    engine: Union[None, InferenceEngine, EngineFactory] = None,
) -> InferenceEngine:
    """The engine for ``model``, memoised on the model.

    The memo lives on the model instance, so cached engines share the
    model's lifetime, and :meth:`CrfModel.grow` can refresh them in place
    when a streaming arrival extends the structure.  The E-step, the
    M-step and the gain chains of one model therefore share one engine.

    Args:
        model: The CRF model whose structure is cached.
        engine: ``None`` for the
            :class:`~repro.inference.engine.speculative.SpeculativeEngine`;
            an engine already bound to ``model`` (returned as-is); or a
            factory ``model -> engine``, memoised per factory.  The last
            two are a test seam: equivalence tests run the scalar oracle
            or the Python merge walk through it.
    """
    if isinstance(engine, InferenceEngine):
        if engine.model is not model:
            raise InferenceError("engine is bound to a different model")
        return engine
    if engine is None:
        from repro.inference.engine.speculative import SpeculativeEngine

        engine = SpeculativeEngine
    elif not callable(engine):
        raise InferenceError(
            f"engine must be an InferenceEngine or a factory, got {engine!r}"
        )
    per_model: Optional[Dict[EngineFactory, InferenceEngine]] = getattr(
        model, "_engine_cache", None
    )
    if per_model is None:
        per_model = {}
        model._engine_cache = per_model  # type: ignore[attr-defined]
    built = per_model.get(engine)
    if built is None:
        built = engine(model)
        per_model[engine] = built
    return built
