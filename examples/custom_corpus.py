"""Bringing your own data: fact checking a hand-built corpus.

Shows the public data model end to end, without the synthetic generators:
a small corpus of claims about a fictive product launch is assembled from
raw sources / documents / claims, persisted to JSON, reloaded, and then
validated through a session configured with batching (§6.2) and early
termination (§6.1) — the spec references the corpus *file*, so the entire
run is declaratively reproducible from the JSON pair alone.

Run with::

    python examples/custom_corpus.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    Claim,
    ClaimLink,
    Document,
    FactCheckSession,
    FactDatabase,
    SessionSpec,
    Source,
    Stance,
    save_database,
)


def build_corpus() -> FactDatabase:
    """A hand-written corpus: 3 outlets and a rumour mill cover 6 claims."""
    sources = [
        # features: [editorial_standards, reach]
        Source("wire-service", features=[0.9, 0.8]),
        Source("tech-blog", features=[0.6, 0.4]),
        Source("finance-daily", features=[0.8, 0.6]),
        Source("rumour-mill", features=[0.1, 0.9]),
    ]
    claims = [
        Claim("launch-date", "device launches in March", truth=True),
        Claim("price-drop", "price cut by 50% at launch", truth=False),
        Claim("new-sensor", "device ships a new sensor", truth=True),
        Claim("ceo-resigns", "CEO resigns before launch", truth=False),
        Claim("battery-life", "battery lasts two days", truth=False),
        Claim("eu-approval", "regulatory approval in the EU", truth=True),
    ]

    def doc(doc_id, source, quality, *links):
        return Document(
            doc_id,
            source_id=source,
            features=[quality, quality - 0.1],
            claim_links=tuple(
                ClaimLink(cid, Stance.SUPPORT if sup else Stance.REFUTE)
                for cid, sup in links
            ),
        )

    documents = [
        doc("d01", "wire-service", 0.9, ("launch-date", True),
            ("eu-approval", True)),
        doc("d02", "wire-service", 0.8, ("ceo-resigns", False)),
        doc("d03", "tech-blog", 0.6, ("new-sensor", True),
            ("battery-life", True)),
        doc("d04", "tech-blog", 0.5, ("launch-date", True)),
        doc("d05", "finance-daily", 0.8, ("price-drop", False),
            ("launch-date", True)),
        doc("d06", "finance-daily", 0.7, ("eu-approval", True)),
        doc("d07", "rumour-mill", 0.2, ("price-drop", True),
            ("ceo-resigns", True)),
        doc("d08", "rumour-mill", 0.1, ("battery-life", True),
            ("new-sensor", False)),
        doc("d09", "rumour-mill", 0.2, ("launch-date", False)),
    ]
    return FactDatabase(sources, documents, claims)


def main() -> None:
    database = build_corpus()
    print(f"hand-built corpus: {database!r}")

    # Persist to JSON — the integration point for downstream users with
    # real corpora — and reference the file from the session spec, so the
    # spec alone reproduces the run.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        save_database(database, path)
        print(f"persisted to {path.name}; the spec loads it back")

        spec = SessionSpec(
            seed=1,
            dataset={"path": str(path)},
            guidance={"strategy": "info"},
            effort={
                "batch_size": 2,               # §6.2: validate claim pairs
                "termination": [
                    {"kind": "urr",
                     "params": {"threshold": 0.01, "patience": 2}},
                ],
            },
        )
        with FactCheckSession(spec) as session:
            # Structure and claim state are separate: the corpus is
            # shared, P and the labels belong to this session.
            database, state = session.database, session.state
            print("\nautomated credibility estimates (no user input yet):")
            for index, claim in enumerate(database.claims):
                print(
                    f"  {claim.claim_id:>12}: "
                    f"P={state.probability(index):.2f} "
                    f"(truth: "
                    f"{'credible' if claim.truth else 'non-credible'})"
                )
            result = session.run()
            grounding = session.process.grounding

    print(f"\nvalidation stopped: {result.stop_reason}")
    print("trusted set of facts (the grounding):")
    for index, claim in enumerate(database.claims):
        verdict = "credible" if grounding[index] else "non-credible"
        marker = "*" if state.is_labelled(index) else " "
        print(f"  {marker} {claim.claim_id:>12}: {verdict}")
    print("(* = validated by the user)")
    print(f"final precision: {result.final_precision:.2f}")


if __name__ == "__main__":
    main()
