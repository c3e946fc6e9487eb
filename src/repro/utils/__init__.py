"""Shared utilities: seeded randomness and argument checking."""

from repro.utils.rng import RandomState, derive_rng, ensure_rng
from repro.utils.checks import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RandomState",
    "derive_rng",
    "ensure_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
