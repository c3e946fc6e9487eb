"""Dataset substrate: synthetic replicas of the paper's corpora (§8.1).

``load_dataset("snopes", seed=7, scale=0.02)`` returns a ready-to-use
:class:`~repro.data.database.FactDatabase` whose structure matches the
published Snopes statistics, shrunk by ``scale`` for fast experimentation.
:func:`shared_database` keeps one such database per dataset spec, the one
copy of its corpus that every session on the spec reads
(:meth:`~repro.api.specs.DatasetSpec.load`).
"""

from repro.datasets.generator import generate_dataset
from repro.datasets.io import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.datasets.profiles import (
    HEALTHCARE,
    PROFILES,
    SNOPES,
    WIKIPEDIA,
    DatasetProfile,
    SourceKind,
    get_profile,
)
from repro.datasets.store import shared_database
from repro.utils.rng import RandomState


def load_dataset(
    name: str, seed: RandomState = None, scale: float = 1.0, prior: float = 0.5
):
    """Generate the named synthetic corpus replica.

    Args:
        name: One of ``"wiki"``, ``"health"``, ``"snopes"``.
        seed: Seed or generator for reproducibility.
        scale: Entity-count multiplier (``1.0`` = published sizes).
        prior: Initial credibility probability for all claims.

    Returns:
        A :class:`~repro.data.database.FactDatabase`.
    """
    profile = get_profile(name)
    return generate_dataset(profile, seed=seed, scale=scale, prior=prior)


__all__ = [
    "DatasetProfile",
    "SourceKind",
    "HEALTHCARE",
    "PROFILES",
    "SNOPES",
    "WIKIPEDIA",
    "database_from_dict",
    "database_to_dict",
    "generate_dataset",
    "get_profile",
    "load_database",
    "load_dataset",
    "save_database",
    "shared_database",
]
