"""Synthetic corpus generator replicating the paper's datasets (§8.1).

The generative process mirrors the assumptions the paper's CRF model
exploits (§3.1):

1. Every source has a latent *reliability* drawn from a two-component Beta
   mixture (trustworthy vs. untrustworthy, mixed by the profile's
   ``untrustworthy_ratio``).
2. Every claim has a hidden ground-truth credibility; the fraction of
   credible claims is the profile's ``credible_ratio``.
3. Sources author documents with a heavy-tailed activity distribution;
   claims are referenced with a heavy-tailed popularity distribution
   (a few "viral" claims appear in many documents).
4. Every claim has a *difficulty* d ∈ [0, 1] attenuating how well any
   source can judge it.  A source forms one *belief* per claim — it
   believes a true claim with probability ``0.5 + (reliability - 0.5)
   (1 - d)`` — and every document of that source repeats the belief
   (stances of one source are correlated, as real authors repeat
   themselves), with a small per-document stance-extraction noise.
   Trustworthy sources thus mostly support true claims and refute false
   ones — the mutual reinforcement the CRF model captures — while
   difficult claims stay ambiguous no matter how many documents mention
   them, which is what makes user input genuinely necessary.
5. Document language quality correlates with source reliability plus
   noise; feature vectors are produced by the extractors in
   :mod:`repro.datasets.webgraph` and :mod:`repro.datasets.textfeatures`.

The latent reliability and quality values are recorded in entity metadata
for diagnostics, but no algorithm reads them.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.database import FactDatabase
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.stance import Stance
from repro.datasets.profiles import DatasetProfile, SourceKind
from repro.datasets.textfeatures import document_features, forum_user_features
from repro.datasets.webgraph import website_features
from repro.errors import DatasetError
from repro.utils.rng import RandomState, derive_rng, ensure_rng


def generate_dataset(
    profile: DatasetProfile,
    seed: RandomState = None,
    scale: float = 1.0,
    prior: float = 0.5,
) -> FactDatabase:
    """Generate a synthetic fact database following ``profile``.

    Args:
        profile: Corpus shape (see :mod:`repro.datasets.profiles`).
        seed: Seed or generator for full reproducibility.
        scale: Multiplier on all entity counts; ``1.0`` reproduces the
            published corpus sizes, smaller values produce fast replicas
            with the same shape.
        prior: Initial credibility probability for all claims (the paper
            uses the maximum-entropy value 0.5).

    Returns:
        A :class:`FactDatabase` with ground-truth labels on every claim.
    """
    rng = ensure_rng(seed)
    if scale != 1.0:
        profile = profile.scaled(scale)

    reliability = _sample_reliability(profile, derive_rng(rng, 0))
    truths = _sample_truths(profile, derive_rng(rng, 1))
    docs_per_source = _sample_counts(
        total=profile.num_documents,
        bins=profile.num_sources,
        exponent=profile.source_activity_exponent,
        rng=derive_rng(rng, 2),
    )
    claim_popularity = _zipf_weights(
        profile.num_claims, profile.claim_popularity_exponent, derive_rng(rng, 3)
    )

    link_rng = derive_rng(rng, 4)
    quality_rng = derive_rng(rng, 5)
    doc_sources = np.repeat(np.arange(profile.num_sources), docs_per_source)
    link_rng.shuffle(doc_sources)

    quality = np.clip(
        0.15
        + 0.7 * reliability[doc_sources]
        + quality_rng.normal(0.0, 0.15, size=doc_sources.size),
        0.0,
        1.0,
    )

    difficulties = derive_rng(rng, 7).beta(
        profile.ambiguity_alpha, profile.ambiguity_beta,
        size=profile.num_claims,
    )
    claims = [
        Claim(
            claim_id=f"c{idx:05d}",
            text=f"claim-{profile.name}-{idx}",
            truth=bool(truths[idx]),
            metadata={"difficulty": float(difficulties[idx])},
        )
        for idx in range(profile.num_claims)
    ]

    documents = _generate_documents(
        profile=profile,
        doc_sources=doc_sources,
        reliability=reliability,
        truths=truths,
        difficulties=difficulties,
        claim_popularity=claim_popularity,
        quality=quality,
        rng=link_rng,
    )

    sources = _generate_sources(
        profile=profile,
        reliability=reliability,
        docs_per_source=docs_per_source,
        rng=derive_rng(rng, 6),
    )

    return FactDatabase(sources=sources, documents=documents, claims=claims,
                        prior=prior)


def _sample_reliability(
    profile: DatasetProfile, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-source reliability from the two-component Beta mixture."""
    strength = profile.reliability_strength
    count = profile.num_sources
    untrustworthy = rng.random(count) < profile.untrustworthy_ratio
    low = rng.beta(0.25 * strength, 0.75 * strength, size=count)
    high = rng.beta(0.75 * strength, 0.25 * strength, size=count)
    return np.where(untrustworthy, low, high)


def _sample_truths(profile: DatasetProfile, rng: np.random.Generator) -> np.ndarray:
    """Ground-truth credibility with an exact credible fraction."""
    count = profile.num_claims
    num_credible = int(round(profile.credible_ratio * count))
    num_credible = min(max(num_credible, 1), count - 1)
    truths = np.zeros(count, dtype=np.int8)
    truths[:num_credible] = 1
    rng.shuffle(truths)
    return truths


def _sample_counts(
    total: int, bins: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """Split ``total`` items over ``bins`` with a Zipf-like distribution."""
    weights = _zipf_weights(bins, exponent, rng)
    counts = rng.multinomial(total, weights)
    return counts


def _zipf_weights(
    count: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """Normalised Zipf weights in random rank order."""
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _generate_documents(
    profile: DatasetProfile,
    doc_sources: np.ndarray,
    reliability: np.ndarray,
    truths: np.ndarray,
    difficulties: np.ndarray,
    claim_popularity: np.ndarray,
    quality: np.ndarray,
    rng: np.random.Generator,
) -> List[Document]:
    """Create documents with stance-bearing claim links.

    Stances are driven by per-(source, claim) *beliefs*, decided once and
    repeated across all of the source's documents, plus per-document
    stance-extraction noise.
    """
    num_docs = doc_sources.size
    features = document_features(quality, seed=derive_rng(rng, 0))
    extra_links = rng.poisson(
        max(profile.claims_per_document_mean - 1.0, 0.0), size=num_docs
    )
    documents: List[Document] = []
    beliefs: dict = {}
    # Pre-draw the first (guaranteed) claim link of every document in one
    # vectorised call; extra links are drawn per document below.
    first_claims = rng.choice(
        profile.num_claims, size=num_docs, p=claim_popularity
    )
    for doc_idx in range(num_docs):
        source_idx = int(doc_sources[doc_idx])
        claim_ids = {int(first_claims[doc_idx])}
        extra = int(extra_links[doc_idx])
        if extra:
            budget = min(extra, profile.num_claims - 1)
            candidates = rng.choice(
                profile.num_claims, size=budget, p=claim_popularity
            )
            claim_ids.update(int(c) for c in candidates)
        links = []
        source_reliability = float(reliability[source_idx])
        for claim_idx in sorted(claim_ids):
            key = (source_idx, claim_idx)
            belief = beliefs.get(key)
            if belief is None:
                direction = 1.0 if truths[claim_idx] else -1.0
                support_probability = 0.5 + direction * (
                    (source_reliability - 0.5)
                    * (1.0 - float(difficulties[claim_idx]))
                )
                belief = bool(rng.random() < support_probability)
                beliefs[key] = belief
            supports = belief
            if rng.random() < profile.stance_noise:
                supports = bool(rng.random() < 0.5)
            stance = Stance.SUPPORT if supports else Stance.REFUTE
            links.append(ClaimLink(claim_id=f"c{claim_idx:05d}", stance=stance))
        documents.append(
            Document(
                document_id=f"d{doc_idx:06d}",
                source_id=f"s{source_idx:05d}",
                features=features[doc_idx],
                claim_links=tuple(links),
                metadata={"quality": float(quality[doc_idx])},
            )
        )
    return documents


def _generate_sources(
    profile: DatasetProfile,
    reliability: np.ndarray,
    docs_per_source: np.ndarray,
    rng: np.random.Generator,
) -> List[Source]:
    """Create sources with kind-appropriate feature vectors."""
    if profile.source_kind is SourceKind.WEBSITE:
        features = website_features(reliability, seed=rng)
    elif profile.source_kind is SourceKind.FORUM_USER:
        features = forum_user_features(reliability, docs_per_source, seed=rng)
    else:  # pragma: no cover - enum is exhaustive
        raise DatasetError(f"unsupported source kind {profile.source_kind!r}")
    return [
        Source(
            source_id=f"s{idx:05d}",
            features=features[idx],
            metadata={"reliability": float(reliability[idx])},
        )
        for idx in range(profile.num_sources)
    ]
