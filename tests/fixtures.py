"""Shared test fixtures and corpus builders, importable from any suite.

This is the single home of fixtures previously duplicated between the
repo-root, ``tests/`` and ``benchmarks/`` conftests: ``tests/conftest.py``
re-exports the pytest fixtures, while test modules import the plain
builders (:func:`build_micro_database`, :func:`random_databases`)
directly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.data.database import FactDatabase
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.stance import Stance
from repro.datasets import load_dataset
from repro.inference.engine import SpeculativeEngine
from repro.streaming.stream import ClaimArrival


def build_micro_database(prior: float = 0.5) -> FactDatabase:
    """A 3-claim corpus with one reliable and one unreliable source.

    Structure:
        * ``s1`` (reliable): supports true claims c1/c3, refutes false c2.
        * ``s2`` (unreliable): supports false c2, refutes true c1.
    Claims c1 and c3 are true; c2 is false.  Source features encode
    reliability (first coordinate high for s1), document features encode
    language quality.
    """
    sources = [
        Source("s1", features=[1.0, 0.2]),
        Source("s2", features=[-1.0, 0.1]),
    ]
    claims = [
        Claim("c1", text="claim one", truth=True),
        Claim("c2", text="claim two", truth=False),
        Claim("c3", text="claim three", truth=True),
    ]
    documents = [
        Document(
            "d1",
            source_id="s1",
            features=[0.9, 0.8],
            claim_links=(
                ClaimLink("c1", Stance.SUPPORT),
                ClaimLink("c2", Stance.REFUTE),
            ),
        ),
        Document(
            "d2",
            source_id="s1",
            features=[0.8, 0.7],
            claim_links=(ClaimLink("c3", Stance.SUPPORT),),
        ),
        Document(
            "d3",
            source_id="s2",
            features=[-0.5, -0.6],
            claim_links=(ClaimLink("c2", Stance.SUPPORT),),
        ),
        Document(
            "d4",
            source_id="s2",
            features=[-0.7, -0.4],
            claim_links=(ClaimLink("c1", Stance.REFUTE),),
        ),
    ]
    return FactDatabase(sources, documents, claims, prior=prior)


@st.composite
def random_databases(draw):
    """Hypothesis strategy: a small random fact database with full truth."""
    num_claims = draw(st.integers(2, 6))
    num_sources = draw(st.integers(1, 4))
    num_documents = draw(st.integers(1, 8))
    rng_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(rng_seed)

    sources = [
        Source(f"s{i}", features=rng.normal(size=2)) for i in range(num_sources)
    ]
    claims = [
        Claim(f"c{i}", truth=bool(rng.integers(0, 2))) for i in range(num_claims)
    ]
    documents = []
    for d in range(num_documents):
        linked = rng.choice(
            num_claims, size=rng.integers(1, min(3, num_claims) + 1),
            replace=False,
        )
        links = tuple(
            ClaimLink(
                f"c{int(c)}",
                Stance.SUPPORT if rng.random() < 0.7 else Stance.REFUTE,
            )
            for c in linked
        )
        documents.append(
            Document(
                f"d{d}",
                source_id=f"s{int(rng.integers(0, num_sources))}",
                features=rng.normal(size=2),
                claim_links=links,
            )
        )
    return FactDatabase(sources, documents, claims)


#: Session-spec payloads with a wrong-typed value or an invalid nested
#: config, each with the dotted ``SpecError.field`` it must be reported at.
MALFORMED_SPECS = (
    ({"inference": {"em_iterations": "3"}}, "inference.em_iterations"),
    ({"mode": "streaming", "seed": "x"}, "seed"),
    (
        {"mode": "streaming", "guidance": {"candidate_limit": 2.5}},
        "guidance.candidate_limit",
    ),
    ({"dataset": {"name": "wiki", "scale": "1"}}, "dataset.scale"),
    ({"effort": {"budget": True}}, "effort.budget"),
    ({"user": {"error_probability": "0.1"}}, "user.error_probability"),
    ({"guidance": {"gain": {"damping": 2}}}, "guidance.gain.damping"),
    ({"inference": {"mstep": {"regularization": -1.0}}}, "inference.mstep.regularization"),
    ({"effort": {"termination": "urr"}}, "effort.termination"),
    (
        {"effort": {"termination": [{"kind": "urr"}, {"kind": 3}]}},
        "effort.termination[1].kind",
    ),
    (
        {"effort": {"termination": [{"kind": "cng", "params": [2]}]}},
        "effort.termination[0].params",
    ),
    # Well-typed dataset values that generation cannot use.
    ({"dataset": {"name": "wiki", "scale": float("nan")}}, "dataset.scale"),
    ({"dataset": {"name": "wiki", "scale": float("inf")}}, "dataset.scale"),
    ({"dataset": {"name": "wiki", "seed": -3}}, "dataset.seed"),
    (
        {"mode": "streaming", "stream": {"source": {"dataset": {"name": "nope"}}}},
        "stream.source.dataset.name",
    ),
    (
        {
            "mode": "streaming",
            "stream": {"source": {"dataset": {"name": "wiki", "scale": float("inf")}}},
        },
        "stream.source.dataset.scale",
    ),
)


#: Ways an arrival can be rejected, keys of :func:`rejected_arrivals`.
REJECTION_CASES = (
    "evidence-only first arrival",
    "unknown source, first arrival",
    "unknown source, later arrival",
    "claim arrives twice",
    "source feature width differs",
)


def rejected_arrivals(arrivals) -> dict:
    """Invalid arrivals for a claim stream, one per :data:`REJECTION_CASES`.

    Maps each case to ``(position, arrival)``: ``arrival`` must be
    rejected when it follows ``arrivals[:position]``.  Where a valid
    arrival is spoiled, ``arrivals[position]`` is its corrected form.
    """
    first, later = arrivals[0], arrivals[2]
    assert first.claim is not None and later.claim is not None
    source_width = first.sources[0].features.size
    document_width = first.documents[0].features.size
    stray_source = Source("s-stray", features=np.zeros(source_width))
    stray_document = Document(
        "d-stray",
        source_id="s-stray",
        features=np.zeros(document_width),
        claim_links=(ClaimLink(first.claim.claim_id),),
    )

    def with_ghost_document(arrival):
        ghost = Document(
            "d-ghost",
            source_id="s-ghost",
            features=np.zeros(document_width),
            claim_links=(ClaimLink(arrival.claim.claim_id),),
        )
        return replace(arrival, documents=list(arrival.documents) + [ghost])

    wide_source = Source("s-wide", features=np.zeros(source_width + 1))
    return {
        "evidence-only first arrival": (
            0, ClaimArrival(None, [stray_document], [stray_source])
        ),
        "unknown source, first arrival": (0, with_ghost_document(first)),
        "unknown source, later arrival": (2, with_ghost_document(later)),
        "claim arrives twice": (
            2, ClaimArrival(first.claim, [stray_document], [stray_source])
        ),
        "source feature width differs": (
            2, replace(later, sources=list(later.sources) + [wide_source])
        ),
    }


@pytest.fixture
def micro_db() -> FactDatabase:
    """Fresh handcrafted 3-claim database."""
    return build_micro_database()


@pytest.fixture(scope="session")
def wiki_db_session() -> FactDatabase:
    """Session-cached generated wiki replica (do not mutate)."""
    return load_dataset("wiki", seed=42, scale=0.15)


@pytest.fixture
def wiki_db() -> FactDatabase:
    """Fresh generated wiki replica (safe to mutate)."""
    return load_dataset("wiki", seed=42, scale=0.15)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


#: The merge walks a session can run, under the ids of the retired
#: backends that ran them (kept so test ids stay stable): the scalar
#: oracle, the Python walk (hosts without a C compiler) and the compiled
#: kernel the production engine runs.
ENGINE_WALKS = ("numpy", "reference", "sharded")


@pytest.fixture
def engine(request, monkeypatch) -> str:
    """Run every engine a test builds on one walk of :data:`ENGINE_WALKS`.

    Sessions have no engine option, so the walk is swapped in where
    :func:`~repro.inference.engine.create_engine` resolves its default;
    parametrise with ``@pytest.mark.parametrize("engine", ENGINE_WALKS,
    indirect=True)``.
    """
    from tests.reference_engine import PythonWalkEngine, ReferenceEngine

    factory = {
        "numpy": PythonWalkEngine,
        "reference": ReferenceEngine,
        "sharded": SpeculativeEngine,
    }[request.param]
    monkeypatch.setattr(
        "repro.inference.engine.speculative.SpeculativeEngine", factory
    )
    return request.param
