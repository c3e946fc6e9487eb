"""The inference engine: speculative-batch Gibbs sweeps, vectorised M-step.

**Exact speculative-batch Gibbs sweeps.**  A sequential-scan Gibbs sweep
draws its permutation and its uniform thresholds *before* the scan, so
the random stream is fixed regardless of how the updates are executed.
A claim's conditional depends on the rest of the configuration only
through the per-source consistency statistics ``A_s``, and ``A_s`` only
changes when a claim actually *flips*.  The speculative sweep exploits
this: it computes every position's conditional in one batch against the
sweep-start statistics — exact for every position not preceded by a flip
touching one of its sources — and then walks the scan order with a
per-source *delta* accumulator ``dA_s`` (how far each statistic has
drifted from its sweep-start value).  A position whose correction term
``Σ (stance/n_s)·dA_s`` is exactly zero commits the batch decision; a
non-zero correction recomputes the conditional incrementally as
``batch_logit + 2γ·correction``.

The delta decomposition is *exact*, not approximate: stances and spins
are ±1/0, so every ``A_s``, every flip delta and every ``dA_s`` is an
integer-valued float far below 2⁵³ — ``A_s = A_s⁰ + dA_s`` holds
bitwise, and the correction is zero exactly when the claim's statistics
are untouched.  The recomputed logit and the scalar reference evaluate
the same real number; their summation order and exp implementation can
round differently by one ulp, which flips a decision only when a
pre-drawn threshold falls inside that ulp (~1e-16 per draw — never
observed; the golden fixtures and the hypothesis equivalence suite
assert exact chain equality).

The walk state is three flat CSR arrays per free-claim set (row
pointers, compact local source ids, ``stance/n_s`` coefficients) — a
vectorised gather over the cached pair CSR, built once per free set.  The
walk runs in a small compiled kernel (:mod:`repro.utils.ckernel`), built on the
first sweep that needs it; when the host has no C compiler the same walk
runs in Python, with identical results.

**Cached evidence matrices.**  All structure-derived arrays — the
claim-grouped (claim, source) pair table, the per-pair normalisers
``n_s``, and the walk CSR — are computed once per model and reused
across sweeps, EM rounds and validation iterations; pinning a user
label or updating weights never invalidates them.  Streaming arrivals
grow the model in place (:meth:`CrfModel.grow`), which calls
:meth:`InferenceEngine.refresh_structure` on every memoised engine.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.analysis.contracts import derived_cache, mutates
from repro.crf.model import CrfModel
from repro.crf.potentials import sigmoid
from repro.inference.engine.base import InferenceEngine, MStepData
from repro.utils.ckernel import load_kernel, run_scan_merge
from repro.utils.arrays import concat_ranges


def sigmoid_scalar(value: float) -> float:
    """Numerically stable scalar logistic, for the incremental fixups."""
    if value >= 0.0:
        return 1.0 / (1.0 + math.exp(-value))
    exp_value = math.exp(value)
    return exp_value / (1.0 + exp_value)


class SpeculativeEngine(InferenceEngine):
    """Speculative-batch sweeps + vectorised M-step over cached gathers.

    The one production engine, memoised per model by
    :func:`~repro.inference.engine.create_engine`.
    """

    def __init__(self, model: CrfModel) -> None:
        super().__init__(model)
        self.refresh_structure()

    @mutates("free_set_gather")
    def refresh_structure(self) -> None:
        """(Re)build the claim-grouped pair views from the model.

        Runs at construction and again whenever a streaming arrival grows
        the model in place; the free-set gather cache is dropped because
        claim indices shift meaning when the structure changes.
        """
        # The claim–source graph is claim-grouped: claim c's pair rows
        # are the slice ptr[c]:ptr[c + 1].
        graph = self._model.graph
        self._ptr = graph.claim_ptr
        self._g_source = graph.source
        self._g_stance = graph.stance
        self._g_denom = np.maximum(graph.source_cliques[graph.source], 1.0)
        # Gathered-row cache keyed by the free-claim set: sample() runs
        # many sweeps over the same free claims, so the scatter/gather
        # index work is done once per set, not once per sweep.  Key and
        # data live in one tuple so the swap is a single (GIL-atomic)
        # attribute assignment — the engine is memoised per model and may
        # be shared by samplers on different threads.
        self._gather_state: Optional[Tuple[bytes, dict]] = None

    # ------------------------------------------------------------------
    # Gibbs sweep
    # ------------------------------------------------------------------

    def sweep(
        self,
        free_claims: np.ndarray,
        spins: np.ndarray,
        stats: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        n = free_claims.size
        order = rng.permutation(n)
        thresholds = rng.random(n)
        model = self._model
        local_fields = model.local_fields
        gamma = model.weights.coupling if model.coupling_enabled else 0.0

        if gamma == 0.0:
            # The conditionals decouple: the whole sweep is one batch.
            scan = free_claims[order]
            self._resample_block(
                scan, thresholds[order], local_fields[scan], spins, stats
            )
            return

        # Speculative batch: every conditional against sweep-start stats,
        # in free-claim order (whose gather indices are cached).  Indexed
        # by free position: the speculative logit, the spin the pre-drawn
        # threshold selects from it, and whether that spin is a flip.
        f_source, f_stance, f_denom, f_segment, f_counts = (
            self._free_set_cache(free_claims)["batch"]
        )
        own = f_stance * np.repeat(spins[free_claims], f_counts)
        contributions = f_stance * (stats[f_source] - own) / f_denom
        sums = np.bincount(f_segment, weights=contributions, minlength=n)
        logits = local_fields[free_claims] + (2.0 * gamma) * sums
        probabilities = sigmoid(logits)
        tentative = np.where(thresholds < probabilities, 1.0, -1.0)
        flip = tentative != spins[free_claims]
        if not flip.any():
            return
        self._merge_scan(
            free_claims, order, thresholds, logits, tentative, flip,
            2.0 * gamma, spins, stats,
        )

    def _scan_kernel(self):
        """The compiled scan-merge kernel, or ``None`` for the Python walk.

        Compiled on first use (once per process), so engines whose
        sweeps never need a merge walk never pay for the build.
        """
        return load_kernel()

    def _merge_scan(
        self,
        free_claims: np.ndarray,
        order: np.ndarray,
        thresholds: np.ndarray,
        logits: np.ndarray,
        tentative: np.ndarray,
        flip: np.ndarray,
        two_gamma: float,
        spins: np.ndarray,
        stats: np.ndarray,
    ) -> None:
        """Scan-order merge of the speculative decisions.

        Walks ``order`` with the per-source delta accumulator described
        in the module docstring, committing batch decisions whose
        correction is exactly zero and recomputing the rest from
        ``batch_logit + 2γ·correction``.  Flips are applied to ``spins``
        and ``A_s`` is patched exactly (integer-valued delta adds).
        """
        walk = self._walk_arrays(free_claims)
        touched = walk["touched"]
        kernel = self._scan_kernel()
        if kernel is not None:
            spins_free = np.ascontiguousarray(
                spins[free_claims], dtype=np.float64
            )
            dstats = np.zeros(touched.size)
            changed = run_scan_merge(
                kernel,
                np.ascontiguousarray(order, dtype=np.int64),
                np.ascontiguousarray(thresholds, dtype=np.float64),
                np.ascontiguousarray(logits, dtype=np.float64),
                np.ascontiguousarray(tentative, dtype=np.float64),
                np.ascontiguousarray(flip, dtype=np.uint8),
                two_gamma,
                walk["row_ptr"],
                walk["col"],
                walk["coef"],
                walk["stance"],
                spins_free,
                dstats,
            )
            if changed:
                spins[free_claims] = spins_free
                stats[touched] += dstats
            return

        lists = walk.get("lists")
        if lists is None:
            lists = (
                walk["row_ptr"].tolist(),
                walk["col"].tolist(),
                walk["coef"].tolist(),
                walk["stance"].tolist(),
            )
            walk["lists"] = lists
        row_ptr_l, col_l, coef_l, stance_l = lists
        order_l = order.tolist()
        thresholds_l = thresholds.tolist()
        logits_l = logits.tolist()
        tentative_l = tentative.tolist()
        flip_l = flip.tolist()
        spins_l = spins[free_claims].tolist()
        dstats = [0.0] * touched.size
        changed = False
        for position in range(len(order_l)):
            free_index = order_l[position]
            row_start = row_ptr_l[free_index]
            row_end = row_ptr_l[free_index + 1]
            correction = 0.0
            for row in range(row_start, row_end):
                correction += coef_l[row] * dstats[col_l[row]]
            old_spin = spins_l[free_index]
            if correction == 0.0:
                if not flip_l[free_index]:
                    continue
                new_spin = tentative_l[free_index]
            else:
                probability = sigmoid_scalar(
                    logits_l[free_index] + two_gamma * correction
                )
                new_spin = (
                    1.0 if thresholds_l[free_index] < probability else -1.0
                )
                if new_spin == old_spin:
                    continue
            delta = new_spin - old_spin
            for row in range(row_start, row_end):
                dstats[col_l[row]] += stance_l[row] * delta
            spins_l[free_index] = new_spin
            changed = True
        if changed:
            spins[free_claims] = spins_l
            stats[touched] += np.asarray(dstats)

    def _walk_arrays(self, free_claims: np.ndarray) -> dict:
        """Flat CSR walk state of the free set (vectorised gather).

        ``touched`` holds the sorted global ids of every source the free
        claims can dirty; ``row_ptr``/``col``/``coef``/``stance`` are the
        evidence rows remapped to compact local source ids, with
        ``coef = stance / n_s`` prefolded so the walk's correction term
        is one multiply-add per row.  Built lazily (batch-only sweeps
        never pay for it) and cached with the free set.
        """
        cache = self._free_set_cache(free_claims)
        walk = cache.get("walk")
        if walk is None:
            f_source, f_stance, f_denom, _, f_counts = cache["batch"]
            touched, local_ids = np.unique(f_source, return_inverse=True)
            row_ptr = np.concatenate(
                ([0], np.cumsum(f_counts, dtype=np.int64))
            )
            walk = {
                "touched": touched,
                "row_ptr": np.ascontiguousarray(row_ptr, dtype=np.int64),
                "col": np.ascontiguousarray(local_ids, dtype=np.int64),
                "coef": np.ascontiguousarray(
                    f_stance / f_denom, dtype=np.float64
                ),
                "stance": np.ascontiguousarray(f_stance, dtype=np.float64),
            }
            cache["walk"] = walk
        return walk

    @derived_cache(
        "free_set_gather",
        backing=("_ptr", "_g_source", "_g_stance", "_g_denom"),
        storage="_gather_state",
    )
    def _free_set_cache(self, free_claims: np.ndarray) -> dict:
        """Cache entry of the free-claim set (atomic whole-dict swap).

        ``batch`` holds ``(source, stance, denom, segment, counts)``: the
        concatenated evidence rows of the free claims in order, the
        free-claim position of each row, and the rows per free claim.
        """
        key = free_claims.tobytes()
        state = self._gather_state
        if state is None or state[0] != key:
            ptr = self._ptr
            starts = ptr[free_claims]
            counts = ptr[free_claims + 1] - starts
            gathered = concat_ranges(starts, counts)
            state = (
                key,
                {
                    "batch": (
                        self._g_source[gathered],
                        self._g_stance[gathered],
                        self._g_denom[gathered],
                        np.repeat(np.arange(free_claims.size), counts),
                        counts,
                    ),
                },
            )
            self._gather_state = state
        return state[1]

    def _resample_block(
        self,
        block: np.ndarray,
        thresholds: np.ndarray,
        logits: np.ndarray,
        spins: np.ndarray,
        stats: np.ndarray,
    ) -> None:
        """Resample a batch of claims from precomputed logits.

        Flips are applied to ``spins`` and ``A_s`` is patched to stay
        consistent with them.
        """
        probabilities = sigmoid(logits)
        new_spins = np.where(thresholds < probabilities, 1.0, -1.0)
        old_spins = spins[block]
        flipped = new_spins != old_spins
        if not flipped.any():
            return
        delta = new_spins[flipped] - old_spins[flipped]
        changed = block[flipped]
        ptr = self._ptr
        starts = ptr[changed]
        counts = ptr[changed + 1] - starts
        rows = concat_ranges(starts, counts)
        if rows.size:
            np.add.at(
                stats,
                self._g_source[rows],
                self._g_stance[rows] * np.repeat(delta, counts),
            )
        spins[changed] = new_spins[flipped]

    # ------------------------------------------------------------------
    # M-step design assembly
    # ------------------------------------------------------------------

    def assemble_mstep(
        self, marginals: np.ndarray, config
    ) -> Optional[MStepData]:
        """Vectorised assembly in the scalar layout.

        Claims in index order, one row per labelled claim and a
        (target 1, target 0) pair per unlabelled claim.
        """
        from repro.inference.mstep import build_design_matrix

        model = self._model
        num_claims = model.database.num_claims
        covered = np.flatnonzero(
            model.featurizer.claim_degree >= config.min_coverage
        )
        if covered.size == 0:
            return None
        design_all = build_design_matrix(model, marginals)
        label_indices, label_values = model.database.label_arrays()
        is_labelled = np.zeros(num_claims, dtype=bool)
        is_labelled[label_indices] = True
        label_of = np.zeros(num_claims)
        label_of[label_indices] = label_values

        repeats = np.where(is_labelled[covered], 1, 2)
        row_claims = np.repeat(covered, repeats)
        design = design_all[row_claims]
        ends = np.cumsum(repeats)
        second_rows = ends[repeats == 2] - 1
        targets = np.ones(row_claims.size)
        targets[second_rows] = 0.0
        weights = np.asarray(marginals, dtype=float)[row_claims].copy()
        weights[second_rows] = 1.0 - weights[second_rows]
        labelled_rows = is_labelled[row_claims]
        targets[labelled_rows] = label_of[row_claims][labelled_rows]
        weights[labelled_rows] = config.labelled_weight
        return design, targets, weights
