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

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.analysis.contracts import derived_cache, mutates
from repro.crf.potentials import CliqueFeaturizer, sigmoid
from repro.crf.weights import CrfWeights
from repro.data.database import ClaimSourceGraph, FactDatabase
from repro.errors import InferenceError
from repro.utils.ckernel import kernel_addresses, load_kernel, run_trust_signals


@dataclass(frozen=True)
class CouplingPairs:
    """Pair rows the coupling sums read, in the layout the kernel takes.

    Rows keep pair-table order (claim, then source), so each source's
    ``A_s`` and each claim's signal add their terms in the order of the
    whole table.  Sources are renumbered ``0..num_sources-1`` over the
    rows' sources, so the per-row scratch spans only those.  All arrays
    are read-only, C-contiguous int64/float64, checked once here; the
    kernel reads them through ``addresses``.

    Attributes:
        claim: Claim index per row (int64).
        source: Compact source id per row (int64).
        stance: ``B_{s,c}`` per row.
        denom: ``max(n_s, 1)`` per row.
        num_sources: Distinct sources of the rows.
        addresses: Data addresses of the four arrays, in that order.
    """

    claim: np.ndarray
    source: np.ndarray
    stance: np.ndarray
    denom: np.ndarray
    num_sources: int
    addresses: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = (self.claim, self.source, self.stance, self.denom)
        object.__setattr__(self, "addresses", kernel_addresses(
            arrays, (np.int64, np.int64, np.float64, np.float64)
        ))
        for array in arrays:
            array.flags.writeable = False

    @classmethod
    def gather(
        cls, graph: ClaimSourceGraph, rows: Optional[np.ndarray] = None
    ) -> "CouplingPairs":
        """The given pair-table rows (ascending; default all) of ``graph``."""
        if rows is None:
            claim, source, stance = graph.claim, graph.source, graph.stance
            compact, num_sources = source, graph.source_cliques.size
        else:
            claim, source, stance = (
                graph.claim[rows], graph.source[rows], graph.stance[rows]
            )
            touched, compact = np.unique(source, return_inverse=True)
            num_sources = touched.size
        return cls(
            claim=np.ascontiguousarray(claim, dtype=np.int64),
            source=np.ascontiguousarray(compact, dtype=np.int64),
            stance=np.ascontiguousarray(stance, dtype=np.float64),
            denom=np.maximum(graph.source_cliques[source], 1.0),
            num_sources=int(num_sources),
        )


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
        its consistency statistic.  The table is also gathered once into
        the coupling kernel's layout.
        """
        self._graph = self._database.claim_source_graph()
        self._pairs = CouplingPairs.gather(self._graph)
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

    def trust_signals(
        self,
        probabilities: np.ndarray,
        pairs: Optional[CouplingPairs] = None,
    ) -> np.ndarray:
        """Indirect-relation signal per claim at the given marginals.

        ``T_c = 2 Σ_{s} B_{s,c} A_s^{-c} / n_s`` with ``A_s`` evaluated at
        expected spins.  This is the coupling column of the M-step design
        matrix and, multiplied by γ, the coupling part of a claim's
        conditional logit.

        Args:
            probabilities: Marginals, one vector of ``n`` or a K×n block
                (one signal row per marginal row).
            pairs: Pair rows to sum over (default: the whole table).  A
                claim's signal is exact when ``pairs`` holds every row of
                every source it touches — e.g. a
                :class:`~repro.crf.partition.ScopePlan`'s ``pairs`` for the
                claims of its scope; other claims' signals are partial.
        """
        marginals = np.asarray(probabilities, dtype=float)
        if marginals.shape[-1:] != (self._database.num_claims,):
            raise InferenceError(
                f"marginals must end in {self._database.num_claims} claims, "
                f"got shape {marginals.shape}"
            )
        if not self._coupling_enabled or marginals.size == 0:
            return np.zeros(marginals.shape)
        block = np.ascontiguousarray(marginals.reshape(-1, marginals.shape[-1]))
        return self._coupling_sums(block, pairs).reshape(marginals.shape)

    def _coupling_sums(
        self, block: np.ndarray, pairs: Optional[CouplingPairs]
    ) -> np.ndarray:
        """:meth:`trust_signals` of a C-contiguous float64 K×n block."""
        pairs = self._pairs if pairs is None else pairs
        kernel = load_kernel()
        if kernel is None:
            return _block_trust_signals(pairs, block)
        return run_trust_signals(
            kernel, pairs.addresses, pairs.claim.size, pairs.num_sources, block
        )

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

    def mean_field(
        self,
        probabilities: np.ndarray,
        *,
        steps: int,
        damping: float,
        scope: Optional[np.ndarray] = None,
        fixed: Optional[np.ndarray] = None,
        pairs: Optional[CouplingPairs] = None,
    ) -> np.ndarray:
        """Damped mean-field fixed point — the one light-inference operator.

        Iterates ``P[f] ← d·P[f] + (1 − d)·σ(logits(P)[f])`` over the free
        claims ``f`` on a copy of ``probabilities``, where ``logits`` is
        the local field plus γ times :meth:`trust_signals`; every other
        claim keeps its starting value.  Hypothetical gain evaluation
        (one K×n block per component), the mean-field E-steps (batch and
        streaming), the confirmation check and cross-validated precision
        all run this operator; a 1-D call is the K = 1 case.

        Args:
            probabilities: Starting marginals (not modified): a vector of
                ``n``, or a K×n block whose rows iterate independently.
            steps: Fixed-point iterations.
            damping: Weight ``d`` of the previous value, in ``[0, 1)``.
            scope: Claims allowed to move (default: every claim).
            fixed: Claims held at their starting value even inside the
                scope — the labels, plus any hypothetical pins: indices
                held in every row, or a boolean mask shaped like
                ``probabilities`` that holds per row.
            pairs: Pair rows the coupling sums read (see
                :meth:`trust_signals`); must hold every row of every
                source the scope touches.
        """
        marginals = np.array(probabilities, dtype=float)
        if marginals.size == 0:
            return marginals
        block = marginals.reshape(-1, marginals.shape[-1])
        n = block.shape[1]
        if n != self._database.num_claims:
            raise InferenceError(
                f"marginals must end in {self._database.num_claims} claims, "
                f"got shape {marginals.shape}"
            )
        movable = np.zeros(n, dtype=bool)
        if scope is None:
            movable[:] = True
        else:
            movable[np.asarray(scope, dtype=np.intp)] = True
        fixed = np.asarray(() if fixed is None else fixed)
        if fixed.dtype == bool:
            free = np.flatnonzero(movable & ~fixed.reshape(block.shape))
        else:
            if fixed.size:
                movable[fixed.astype(np.intp)] = False
            free = np.flatnonzero(movable)
            if block.shape[0] > 1:
                free = (np.arange(block.shape[0])[:, None] * n + free).ravel()
        if free.size == 0:
            return marginals
        flat = block.reshape(-1)
        local = self._local_fields[free % n]
        for _ in range(steps):
            logits = local
            if self._coupling_enabled:
                signals = self._coupling_sums(block, pairs).reshape(-1)
                logits = local + self._weights.coupling * signals[free]
            updated = sigmoid(logits)
            flat[free] = damping * flat[free] + (1.0 - damping) * updated
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


def _block_trust_signals(pairs: CouplingPairs, block: np.ndarray) -> np.ndarray:
    """NumPy twin of the compiled ``trust_signals`` kernel on a K×n block.

    Row ``k``'s bins are offset by ``k`` times the bin count, so one flat
    ``bincount`` sums every row and each bin still adds its terms in
    pair-row order — the order of the per-row ``bincount``/``np.add.at``
    the kernel reproduces.
    """
    num_rows, n = block.shape
    rows = np.arange(num_rows)[:, None]
    own = pairs.stance * (2.0 * block[:, pairs.claim] - 1.0)
    stats = np.bincount(
        (rows * pairs.num_sources + pairs.source).ravel(),
        weights=own.ravel(),
        minlength=num_rows * pairs.num_sources,
    ).reshape(num_rows, pairs.num_sources)
    excluded = stats[:, pairs.source] - own
    contributions = 2.0 * pairs.stance * excluded / pairs.denom
    # An empty weighted bincount comes back as int64.
    return np.bincount(
        (rows * n + pairs.claim).ravel(),
        weights=contributions.ravel(),
        minlength=num_rows * n,
    ).astype(float, copy=False).reshape(num_rows, n)
