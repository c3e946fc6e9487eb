"""Quickstart: guided fact checking on a Snopes-like corpus.

Generates a scaled replica of the Snopes corpus, then runs the paper's
full validation process (Alg. 1) through the declarative session API with
hybrid user guidance until the knowledge base reaches 90% precision —
printing what the framework does at every iteration.  The goal/budget/
exhaustion loop lives inside :meth:`FactCheckSession.run`, so the trace
always carries a correct stop reason.

Run with::

    python examples/quickstart.py

Set ``EXAMPLE_SMOKE=1`` for the reduced-scale variant CI executes.
"""

from __future__ import annotations

import os

from repro import FactCheckSession, SessionSpec

SMOKE = os.environ.get("EXAMPLE_SMOKE") == "1"


def main() -> None:
    # A Snopes-shaped corpus: ~49 claims, ~800 documents, ~230 sources.
    spec = SessionSpec(
        seed=7,
        dataset={"name": "snopes", "seed": 7, "scale": 0.006 if SMOKE else 0.01},
        guidance={"strategy": "hybrid", "candidate_limit": 20},
        effort={"goal": {"kind": "true_precision", "threshold": 0.90}},
    )

    with FactCheckSession(spec) as session:
        # The corpus structure is shared by every session on this spec;
        # probabilities and labels are this session's own state.
        print(f"corpus: {session.database!r}, {session.state!r}")
        trace = session.trace
        print(
            f"before any user input: precision={trace.initial_precision:.3f} "
            f"entropy={trace.initial_entropy:.2f}"
        )

        def report(record) -> None:
            verdict = "credible" if record.user_values[0] else "non-credible"
            print(
                f"iter {record.iteration:>2}: [{record.strategy_used:>6}] "
                f"{record.claim_ids[0]} -> {verdict:13} "
                f"precision={record.precision:.3f} "
                f"entropy={record.entropy:6.2f} "
                f"z={record.hybrid_score:.3f} "
                f"dt={record.response_seconds * 1000:.0f}ms"
            )

        result = session.run(on_iteration=report)

    effort = result.num_labelled / result.num_claims
    print(
        f"\nstopped ({result.stop_reason}) at {result.final_precision:.1%} "
        f"precision with input on {result.num_labelled}/{result.num_claims} "
        f"claims ({effort:.0%} effort)"
    )


if __name__ == "__main__":
    main()
