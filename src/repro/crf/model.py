"""The CRF over sources, documents, and claims (§3.1).

:class:`CrfModel` combines the direct and indirect relations of the paper's
model into one energy function over claim configurations ``x ∈ {0,1}^|C|``:

* **Direct relation** — each clique π = {c, d, s} contributes stance-signed
  log-linear evidence about its claim (Eq. 2); per-claim aggregation yields
  the *local field* ``lf_c`` (see :class:`~repro.crf.potentials.CliqueFeaturizer`).
* **Indirect relation** — documents of different sources referring to the
  same claim interact through *source consistency*.  For source ``s``,
  ``A_s(x) = Σ_{π ∈ cliques(s)} sign_π · spin(c_π)`` (with
  ``spin = 2x - 1``) measures how consistently the source supports
  credible and refutes non-credible claims under configuration ``x``.
  The energy term ``(γ/2) Σ_s A_s(x)² / n_s`` rewards configurations under
  which each source is coherently trustworthy *or* coherently
  untrustworthy — exactly the mutual-reinforcement reading of §3.1 ("a
  source disagreeing with a claim considered credible by several sources
  shall be regarded as not trustworthy").

The unnormalised joint is::

    log P̃(x) = Σ_c lf_c · x_c + (γ/2) Σ_s A_s(x)² / n_s

whose exact single-claim conditional (used by Gibbs sampling) is::

    logit(c | x_-c) = lf_c + 2γ Σ_{s ∈ sources(c)} B_{s,c} · A_s^{-c}(x) / n_s

where ``B_{s,c}`` is the net stance of source ``s`` towards claim ``c``
(sum of stance signs over their shared cliques) and ``A_s^{-c}`` excludes
claim ``c``'s own contribution.  The same trust signal evaluated at the
current marginal probabilities is the last column of the M-step design
matrix, so the coupling weight γ is *learned*, not hand-tuned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.contracts import derived_cache, mutates
from repro.crf.potentials import CliqueFeaturizer, sigmoid
from repro.crf.weights import CrfWeights
from repro.data.database import ClaimSourceGraph, FactDatabase
from repro.errors import InferenceError


class CrfModel:
    """Energy model over claim configurations for one fact database.

    Args:
        database: The fact database (structure only is read).
        weights: Initial parameters; defaults to the maximum-entropy zero
            vector (§8.1: "model parameters are initialised ... following
            the maximum entropy principle").
        aggregation: Claim-evidence aggregation mode (see
            :class:`~repro.crf.potentials.CliqueFeaturizer`).
        coupling_enabled: When ``False`` the indirect relation is dropped —
            the model degenerates to independent logistic regression per
            claim.  Exposed for the ablation benchmark.
    """

    def __init__(
        self,
        database: FactDatabase,
        weights: Optional[CrfWeights] = None,
        aggregation: str = "sqrt",
        coupling_enabled: bool = True,
    ) -> None:
        self._database = database
        self._featurizer = CliqueFeaturizer(database, aggregation=aggregation)
        self._coupling_enabled = bool(coupling_enabled)
        if weights is None:
            weights = CrfWeights.zeros(
                database.document_features.shape[1],
                database.source_features.shape[1],
            )
        self._adopt_graph()
        self.set_weights(weights)

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------

    @mutates("engine_views")
    def _adopt_graph(self) -> None:
        """Take the database's claim–source graph as the pair table.

        ``B_{s,c}`` (``graph.stance``) sums the stance signs of all
        cliques shared by the pair; ``n_s`` (``graph.source_cliques``)
        counts the cliques of each source (with multiplicity), normalising
        its consistency statistic.
        """
        self._graph = self._database.claim_source_graph()
        self._refresh_engines()

    def _refresh_engines(self) -> None:
        """Re-derive the pair views cached by memoised inference engines.

        Engines created via :func:`repro.inference.engine.create_engine`
        gather the pair table into their own structure-derived arrays;
        whenever the model adopts a new graph they must re-gather (their
        views read only the pair structure, never the weights, so the
        refresh is safe before :meth:`set_weights` runs).  A no-op at
        construction time — the memo does not exist yet.
        """
        for engine in getattr(self, "_engine_cache", {}).values():
            engine.refresh_structure()

    def grow(self, delta) -> None:
        """Refresh the cached structure after :meth:`FactDatabase.extend`.

        The featurizer patches its matrices row-wise; the claim–source
        graph and the local fields are cheap integer/matvec derivations of
        the (already exact) columnar arrays, so they are re-derived
        wholesale — the results are bit-for-bit identical to a
        fresh model over the grown database.  Engines cached on this model
        via :func:`repro.inference.engine.create_engine` are refreshed in
        place.
        """
        self._featurizer.grow(delta)
        self._adopt_graph()
        self.set_weights(self._weights)

    @property
    def database(self) -> FactDatabase:
        """The underlying fact database."""
        return self._database

    @property
    def featurizer(self) -> CliqueFeaturizer:
        """The clique featuriser (direct-relation evidence)."""
        return self._featurizer

    @property
    def coupling_enabled(self) -> bool:
        """Whether the indirect relation participates in the energy."""
        return self._coupling_enabled

    @property
    def weights(self) -> CrfWeights:
        """Current parameters W."""
        return self._weights

    @mutates("local_fields")
    def set_weights(self, weights: CrfWeights) -> None:
        """Install new parameters and refresh the cached local fields."""
        expected = self._featurizer.feature_dim + 1
        if weights.size != expected:
            raise InferenceError(
                f"expected {expected} weights (features + coupling), "
                f"got {weights.size}"
            )
        self._weights = weights.copy()
        self._local_fields = self._featurizer.local_fields(weights.feature_weights)

    @property
    @derived_cache("local_fields", backing=("_weights",), storage="_local_fields")
    def local_fields(self) -> np.ndarray:
        """Cached per-claim direct-relation evidence ``lf_c``."""
        return self._local_fields

    @property
    @derived_cache("engine_views", backing=("_graph",), hook="_refresh_engines")
    def graph(self) -> ClaimSourceGraph:
        """The (claim, source) pair table: the database's claim–source graph."""
        return self._graph

    def pairs_of_claim(self, claim_index: int) -> np.ndarray:
        """Rows of the pair table involving the claim."""
        ptr = self._graph.claim_ptr
        return np.arange(ptr[claim_index], ptr[claim_index + 1])

    # ------------------------------------------------------------------
    # Consistency statistics and conditionals
    # ------------------------------------------------------------------

    def source_statistics(self, spins: np.ndarray) -> np.ndarray:
        """``A_s = Σ_c B_{s,c} spin_c`` for every source.

        Args:
            spins: Per-claim spin vector; hard configurations use ±1,
                expectations use ``2 P(c) - 1``.
        """
        graph = self._graph
        contributions = graph.stance * spins[graph.claim]
        return np.bincount(
            graph.source,
            weights=contributions,
            minlength=self._database.num_sources,
        )

    def trust_signals(self, probabilities: np.ndarray) -> np.ndarray:
        """Indirect-relation signal per claim at the given marginals.

        ``T_c = 2 Σ_{s} B_{s,c} A_s^{-c} / n_s`` with ``A_s`` evaluated at
        expected spins.  This is the coupling column of the M-step design
        matrix and, multiplied by γ, the coupling part of a claim's
        conditional logit.
        """
        graph = self._graph
        spins = 2.0 * np.asarray(probabilities, dtype=float) - 1.0
        stats = self.source_statistics(spins)
        own = graph.stance * spins[graph.claim]
        excluded = stats[graph.source] - own
        denom = np.maximum(graph.source_cliques[graph.source], 1.0)
        contributions = 2.0 * graph.stance * excluded / denom
        signals = np.zeros(self._database.num_claims)
        np.add.at(signals, graph.claim, contributions)
        if not self._coupling_enabled:
            signals[:] = 0.0
        return signals

    def conditional_logit(
        self, claim_index: int, spins: np.ndarray, source_stats: np.ndarray
    ) -> float:
        """Exact Gibbs conditional logit of one claim.

        Args:
            claim_index: The claim being resampled.
            spins: Current ±1 configuration over all claims.
            source_stats: Current ``A_s`` vector consistent with ``spins``.
        """
        logit = float(self._local_fields[claim_index])
        if not self._coupling_enabled:
            return logit
        gamma = self._weights.coupling
        if gamma == 0.0:
            return logit
        rows = self.pairs_of_claim(claim_index)
        if rows.size == 0:
            return logit
        sources = self._graph.source[rows]
        stances = self._graph.stance[rows]
        own = stances * spins[claim_index]
        excluded = source_stats[sources] - own
        denom = np.maximum(self._graph.source_cliques[sources], 1.0)
        logit += 2.0 * gamma * float(np.sum(stances * excluded / denom))
        return logit

    def marginal_logits(self, probabilities: np.ndarray) -> np.ndarray:
        """Mean-field logits: local field plus γ times the trust signal."""
        logits = self._local_fields.copy()
        if self._coupling_enabled:
            logits = logits + self._weights.coupling * self.trust_signals(
                probabilities
            )
        return logits

    def mean_field(
        self,
        probabilities: np.ndarray,
        *,
        steps: int,
        damping: float,
        scope: Optional[np.ndarray] = None,
        fixed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Damped mean-field fixed point — the one light-inference operator.

        Iterates ``P[f] ← d·P[f] + (1 − d)·σ(logits(P)[f])`` over the free
        claims ``f`` on a copy of ``probabilities``; every other claim keeps
        its starting value.  Hypothetical gain evaluation, the mean-field
        E-steps (batch and streaming), the confirmation check and
        cross-validated precision all run this operator.

        Args:
            probabilities: Starting marginals (not modified).
            steps: Fixed-point iterations.
            damping: Weight ``d`` of the previous value, in ``[0, 1)``.
            scope: Claims allowed to move (default: every claim).
            fixed: Claims held at their starting value even inside the
                scope — the labels, plus any hypothetical pins.
        """
        marginals = np.asarray(probabilities, dtype=float).copy()
        free = (
            np.arange(marginals.size, dtype=np.intp)
            if scope is None
            else np.asarray(scope, dtype=np.intp)
        )
        if fixed is not None and len(fixed):
            held = np.zeros(marginals.size, dtype=bool)
            held[np.asarray(fixed, dtype=np.intp)] = True
            free = free[~held[free]]
        if free.size == 0:
            return marginals
        for _ in range(steps):
            updated = sigmoid(self.marginal_logits(marginals)[free])
            marginals[free] = damping * marginals[free] + (1.0 - damping) * updated
        return marginals

    # ------------------------------------------------------------------
    # Joint (for exact entropy on small components)
    # ------------------------------------------------------------------

    def joint_log_potential(self, configuration: np.ndarray) -> float:
        """``log P̃(x)`` of a full 0/1 configuration (unnormalised)."""
        configuration = np.asarray(configuration)
        if configuration.shape != (self._database.num_claims,):
            raise InferenceError(
                f"configuration must cover all {self._database.num_claims} claims"
            )
        value = float(np.dot(self._local_fields, configuration))
        if self._coupling_enabled and self._weights.coupling != 0.0:
            spins = 2.0 * configuration.astype(float) - 1.0
            stats = self.source_statistics(spins)
            denom = np.maximum(self._graph.source_cliques, 1.0)
            value += 0.5 * self._weights.coupling * float(
                np.sum(stats * stats / denom)
            )
        return value
