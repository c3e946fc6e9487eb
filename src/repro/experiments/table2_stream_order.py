"""Table 2 — preservation of the validation sequence under streaming (§8.8).

The offline validation sequence (Alg. 1 over the complete corpus) is
compared against the sequence produced when validation interleaves with
the stream: the streaming model (Alg. 2) ingests arrivals, and after every
*validation period* (5–30% of the claims) the validation process runs on
the current snapshot — selecting among the claims that exist so far —
with model parameters exchanged between the two algorithms.  Similarity is
quantified with Kendall's τ_b.  Expected shape: τ_b grows with the period
(validating later ≈ the offline setting).

Protocol note: the comparison uses the deterministic mean-field E-step and
the information-driven strategy so that both sequences are pure functions
of the data available at selection time — with the sampling E-step and the
hybrid roulette wheel, even two *offline* runs agree only weakly
(τ_b ≈ 0.3), which would drown the structural effect the table measures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.api.specs import SessionSpec
from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import ExperimentConfig, build_database
from repro.inference.icrf import ICrf
from repro.metrics.correlation import sequence_rank_correlation
from repro.streaming.process import StreamingFactChecker
from repro.streaming.stream import stream_from_database
from repro.utils.rng import derive_rng, ensure_rng
from repro.validation.oracle import SimulatedUser
from repro.validation.process import ValidationProcess

#: Validation periods of the table's columns (fractions of |C|).
DEFAULT_PERIODS = (0.05, 0.10, 0.20, 0.30)


def run(
    config: Optional[ExperimentConfig] = None,
    periods: Sequence[float] = DEFAULT_PERIODS,
) -> ExperimentResult:
    """Kendall's τ_b between offline and streaming validation sequences."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="table2_stream_order",
        title="Table 2 — Preservation of validation sequence (Kendall's tau_b)",
        headers=["dataset"] + [f"period={int(p * 100)}%" for p in periods],
        notes="expected shape: tau_b increases with the validation period",
    )
    for dataset in config.datasets:
        taus = {period: [] for period in periods}
        for run in range(config.runs):
            data_seed = config.seed + 31 * run
            database = build_database(dataset, config, ensure_rng(data_seed))
            # Common random numbers: the offline run and every streaming
            # validation batch share one validator seed, so tau_b reflects
            # the structural effect of partial claim availability, not RNG
            # noise.
            validator_seed = data_seed + 1009
            # The offline sequence is produced by the same machinery with
            # the validation deferred past the end of the stream
            # (period > 1): all selections then happen on the complete
            # database, which is exactly the offline setting of Alg. 1.
            offline = _streaming_sequence(database, 2.0, config,
                                          validator_seed)
            for period in periods:
                fresh = build_database(dataset, config, ensure_rng(data_seed))
                streaming = _streaming_sequence(
                    fresh, period, config, validator_seed
                )
                taus[period].append(
                    sequence_rank_correlation(offline, streaming)
                )
        result.add_row(
            dataset, *[float(np.mean(taus[period])) for period in periods]
        )
    return result


def _make_process(snapshot, config: ExperimentConfig, seed, weights=None):
    """Deterministic validation process over one database snapshot."""
    spec = SessionSpec(
        inference={"em_iterations": config.em_iterations, "estep_mode": "meanfield"},
        guidance={
            "strategy": "info",
            "candidate_limit": config.candidate_limit,
            "deterministic_ties": True,
        },
    )
    rng = ensure_rng(seed)
    icrf = ICrf(snapshot, spec.inference, seed=derive_rng(rng, 0))
    if weights is not None:
        icrf.set_weights(weights)
    return ValidationProcess(
        snapshot,
        spec,
        user=SimulatedUser(seed=derive_rng(rng, 2)),
        icrf=icrf,
        seed=derive_rng(rng, 1),
    )


def _streaming_sequence(
    database, period: float, config: ExperimentConfig, validator_seed: int
) -> List[str]:
    """Validation order with arrivals interleaved every ``period``.

    Following §8.8, *one* claim is validated per period boundary while the
    stream runs ("the validation process, where a claim is selected from
    the existing claims"); once the stream is exhausted, validation
    continues on the complete snapshot until every claim is validated, so
    the sequences compared by τ_b have equal support.  Larger periods mean
    fewer selections constrained by partial claim availability — the
    mechanism behind the increasing trend of Table 2.
    """
    checker = StreamingFactChecker(seed=validator_seed)
    arrivals = list(stream_from_database(database))
    claim_arrivals = sum(1 for a in arrivals if a.claim is not None)
    period_length = max(1, int(round(period * claim_arrivals)))
    sequence: List[str] = []
    pending = 0
    for arrival in arrivals:
        checker.observe(arrival)
        if arrival.claim is not None:
            pending += 1
        if pending >= period_length:
            sequence.extend(
                _validate_batch(checker, 1, config, validator_seed)
            )
            pending = 0
    # Stream exhausted: validate the remaining claims on the full snapshot.
    snapshot = checker.database
    remaining = int(snapshot.unlabelled_indices.size)
    if remaining:
        sequence.extend(
            _validate_batch(checker, remaining, config, validator_seed)
        )
    return sequence


def _validate_batch(
    checker: StreamingFactChecker, count: int, config: ExperimentConfig, seed
) -> List[str]:
    """Run ``count`` validation iterations on the current stream snapshot.

    Parameters flow both ways (Alg. 2 lines 7 and 10): the snapshot's
    inference engine starts from the streaming parameters, and the
    parameters it learns are fed back to the streaming model.
    """
    snapshot = checker.database
    process = _make_process(snapshot, config, seed, weights=checker.weights)
    validated: List[str] = []
    for _ in range(count):
        if snapshot.unlabelled_indices.size == 0:
            break
        record = process.step()
        for claim_index, value in zip(record.claim_indices, record.user_values):
            claim_id = snapshot.claim_id(claim_index)
            checker.record_label(claim_id, value)
            validated.append(claim_id)
    checker.receive_weights(process.icrf.weights)
    return validated
