"""Session traces of the validation process (§2.2 validation sequences).

Every iteration of Alg. 1 appends an :class:`IterationRecord`;
:class:`ValidationTrace` aggregates the sequence and exposes the series the
experiments of §8 plot: precision vs. effort, entropy traces, response
times, and the convergence indicators of §6.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.codec import JsonRecord
from repro.data.grounding import Grounding, precision_improvement


@dataclass
class IterationRecord(JsonRecord):
    """Everything observed during one iteration of Alg. 1.

    Attributes:
        iteration: 1-based iteration number i.
        claim_indices: Claims validated this iteration (singleton unless
            batching is active).
        user_values: User input per validated claim.
        strategy_used: Name of the selection strategy that produced the
            claims (``info`` / ``source`` under the hybrid roulette).
        error_rate: ε_i of Eq. 22 (averaged over the batch).
        hybrid_score: z_i of Eq. 23 computed *after* this iteration.
        unreliable_ratio: r_i of Alg. 1 line 17.
        entropy: H_C(Q_i) by the scalable estimator (Eq. 13).
        precision: True precision of g_i when ground truth is available.
        grounding_changes: |{c | g_i(c) ≠ g_{i-1}(c)}| (CNG signal, §6.1).
        predictions_matched: Per validated claim, whether g_{i-1} already
            agreed with the user input (PRE signal, §6.1).
        response_seconds: Wall-clock time of selection + inference.
        skipped: Claims the user declined before one was accepted (§8.5).
        repairs: Labels re-elicited by the confirmation check (§5.2).
        claim_ids: String identifiers of the validated claims, parallel to
            ``claim_indices``.  Indices address the snapshot the record was
            produced on; identifiers stay stable across streaming rebuilds,
            so the session API reports claims by id.
        effort_units: Total user interactions consumed this iteration
            (validations + repairs, as in Fig. 7's "label+repair effort").
    """

    iteration: int
    claim_indices: List[int]
    user_values: List[int]
    strategy_used: str
    error_rate: float
    hybrid_score: float
    unreliable_ratio: float
    entropy: float
    precision: Optional[float]
    grounding_changes: int
    predictions_matched: List[bool]
    response_seconds: float
    skipped: int = 0
    repairs: int = 0
    claim_ids: List[str] = field(default_factory=list)

    @property
    def effort_units(self) -> int:
        """User interactions consumed (validations plus repairs)."""
        return len(self.claim_indices) + self.repairs


@dataclass
class ValidationTrace(JsonRecord):
    """Complete record of one validation run.

    Attributes:
        num_claims: |C| of the underlying database.
        initial_precision: P_0 — precision of g_0 before any user input.
        initial_entropy: H_C(Q_0).
        records: Per-iteration records, in order.
        final_grounding: The grounding returned by the process.
        stop_reason: Why the run ended (``goal`` / ``budget`` /
            ``exhausted`` / an early-termination criterion name).
    """

    num_claims: int
    initial_precision: Optional[float]
    initial_entropy: float
    records: List[IterationRecord] = field(default_factory=list)
    final_grounding: Optional[Grounding] = None
    stop_reason: str = "unfinished"

    # ------------------------------------------------------------------
    # Series accessors used by the experiment drivers
    # ------------------------------------------------------------------

    @property
    def iterations(self) -> int:
        """Number of completed iterations."""
        return len(self.records)

    def total_validations(self) -> int:
        """Claims validated across all iterations (excludes repairs)."""
        return sum(len(r.claim_indices) for r in self.records)

    def total_effort(self) -> int:
        """User interactions including repairs (Fig. 7's x-axis)."""
        return sum(r.effort_units for r in self.records)

    def efforts(self, include_repairs: bool = False) -> np.ndarray:
        """Cumulative user effort as a fraction of |C| per iteration."""
        per_iteration = [
            r.effort_units if include_repairs else len(r.claim_indices)
            for r in self.records
        ]
        return np.cumsum(per_iteration) / self.num_claims

    def precisions(self) -> np.ndarray:
        """True precision P_i per iteration (NaN when unavailable)."""
        return np.asarray(
            [r.precision if r.precision is not None else np.nan for r in self.records]
        )

    def precision_improvements(self) -> np.ndarray:
        """R_i = (P_i - P_0) / (1 - P_0) per iteration (§8.1)."""
        if self.initial_precision is None:
            return np.full(len(self.records), np.nan)
        values = []
        for record in self.records:
            if record.precision is None:
                values.append(np.nan)
                continue
            improvement = precision_improvement(
                record.precision, self.initial_precision
            )
            values.append(np.nan if improvement is None else improvement)
        return np.asarray(values)

    def entropies(self) -> np.ndarray:
        """H_C(Q_i) per iteration."""
        return np.asarray([r.entropy for r in self.records])

    def response_times(self) -> np.ndarray:
        """Per-iteration response time Δt (Fig. 2 / Fig. 3)."""
        return np.asarray([r.response_seconds for r in self.records])

    def grounding_change_counts(self) -> np.ndarray:
        """CNG signal per iteration (§6.1)."""
        return np.asarray([r.grounding_changes for r in self.records])

    def hybrid_scores(self) -> np.ndarray:
        """z_i per iteration (Eq. 23)."""
        return np.asarray([r.hybrid_score for r in self.records])

    def prediction_match_flags(self) -> List[bool]:
        """Flattened PRE signal: inference-vs-input agreement per claim."""
        flags: List[bool] = []
        for record in self.records:
            flags.extend(record.predictions_matched)
        return flags

    def validated_claims(self) -> List[int]:
        """All validated claim indices, in validation order.

        This is the *validation sequence* compared across offline and
        streaming runs in Table 2 (Kendall's τ_b).
        """
        sequence: List[int] = []
        for record in self.records:
            sequence.extend(record.claim_indices)
        return sequence

    def effort_to_reach(self, precision: float, include_repairs: bool = False) -> Optional[float]:
        """Smallest cumulative effort fraction at which P_i ≥ ``precision``.

        Returns ``None`` when the run never reached the target.
        """
        efforts = self.efforts(include_repairs=include_repairs)
        for idx, record in enumerate(self.records):
            if record.precision is not None and record.precision >= precision:
                return float(efforts[idx])
        return None
