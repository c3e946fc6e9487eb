"""Claim-at-a-time scalar engine — the semantic ground truth.

Golden fixtures (``tests/golden/``) are recorded against this oracle and
the production engine is tested for bit-for-bit agreement with it.  It
plugs into ``ICrf``/``GibbsSampler``/``run_m_step`` through their
``engine=`` seam: pass the class as an engine factory, e.g.
``ICrf(database, spec, engine=ReferenceEngine)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crf.potentials import sigmoid
from repro.inference.engine import InferenceEngine, MStepData, SpeculativeEngine


class ReferenceEngine(InferenceEngine):
    """Claim-at-a-time scalar implementation (the seed semantics)."""

    def sweep(
        self,
        free_claims: np.ndarray,
        spins: np.ndarray,
        stats: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        model = self._model
        order = rng.permutation(free_claims.size)
        thresholds = rng.random(free_claims.size)
        for position in order:
            claim_index = int(free_claims[position])
            logit = model.conditional_logit(claim_index, spins, stats)
            probability = float(sigmoid(np.asarray(logit)))
            new_spin = 1.0 if thresholds[position] < probability else -1.0
            old_spin = spins[claim_index]
            if new_spin == old_spin:
                continue
            delta = new_spin - old_spin
            rows = model.pairs_of_claim(claim_index)
            if rows.size:
                np.add.at(
                    stats,
                    model.graph.source[rows],
                    model.graph.stance[rows] * delta,
                )
            spins[claim_index] = new_spin

    def assemble_mstep(self, state, config) -> Optional[MStepData]:
        from repro.inference.mstep import build_design_matrix

        model = self._model
        database = model.database
        marginals = state.probabilities
        design_all = build_design_matrix(model, marginals)
        covered = model.featurizer.claim_degree >= config.min_coverage
        rows = []
        targets = []
        weights = []
        labels = state.labels
        for claim_index in range(database.num_claims):
            if not covered[claim_index]:
                continue
            row = design_all[claim_index]
            label = labels.get(claim_index)
            if label is not None:
                rows.append(row)
                targets.append(float(label))
                weights.append(config.labelled_weight)
            else:
                q = float(marginals[claim_index])
                rows.append(row)
                targets.append(1.0)
                weights.append(q)
                rows.append(row)
                targets.append(0.0)
                weights.append(1.0 - q)
        if not rows:
            return None
        return np.asarray(rows), np.asarray(targets), np.asarray(weights)


class PythonWalkEngine(SpeculativeEngine):
    """The production engine with its merge walk forced onto Python.

    The fallback a host without a C compiler runs; equivalence tests and
    the perf benchmark pass it as an engine factory.
    """

    def _scan_kernel(self):
        return None
