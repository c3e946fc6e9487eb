"""Tests for repro.utils: rng handling and argument checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.checks import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)
from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(5).random(4)
        b = ensure_rng(5).random(4)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(4), ensure_rng(2).random(4))


class TestDeriveRng:
    def test_children_are_independent_of_stream(self):
        parent = np.random.default_rng(7)
        child_a = derive_rng(parent, 0)
        parent2 = np.random.default_rng(7)
        child_b = derive_rng(parent2, 0)
        assert np.array_equal(child_a.random(4), child_b.random(4))

    def test_different_streams_differ(self):
        parent = np.random.default_rng(7)
        a = derive_rng(parent, 0).random(4)
        parent = np.random.default_rng(7)
        b = derive_rng(parent, 1).random(4)
        assert not np.array_equal(a, b)

    def test_derivation_advances_parent(self):
        parent = np.random.default_rng(7)
        before = parent.bit_generator.state["state"]["state"]
        derive_rng(parent, 0)
        after = parent.bit_generator.state["state"]["state"]
        assert before != after


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(3, 5)) == 5

    def test_deterministic(self):
        a = [g.random() for g in spawn_rngs(3, 3)]
        b = [g.random() for g in spawn_rngs(3, 3)]
        assert a == b

    def test_children_differ(self):
        values = [g.random() for g in spawn_rngs(3, 4)]
        assert len(set(values)) == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(3, -1)

    def test_zero_count_allowed(self):
        assert spawn_rngs(3, 0) == []


class TestChecks:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_probability_accepts_boundaries(self, value):
        assert check_probability(value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_probability_rejects(self, value):
        with pytest.raises(ValueError):
            check_probability(value)

    def test_fraction_rejects_zero(self):
        with pytest.raises(ValueError):
            check_fraction(0.0)

    def test_fraction_accepts_one(self):
        assert check_fraction(1.0) == 1.0

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf")])
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive(value)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0.0) == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-1e-9)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ValueError):
            check_positive_int(True)

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0)

    def test_positive_int_accepts(self):
        assert check_positive_int(3) == 3

    def test_error_message_includes_name(self):
        with pytest.raises(ValueError, match="threshold"):
            check_probability(2.0, "threshold")
