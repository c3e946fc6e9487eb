"""Tests for validation-trace summaries."""

from __future__ import annotations

import pytest

from repro.api import SessionSpec
from repro.datasets import load_dataset
from repro.validation import (
    SimulatedUser,
    ValidationProcess,
    format_summary,
    summarize_trace,
)
from repro.validation.session import ValidationTrace


def run_small_process():
    db = load_dataset("wiki", seed=3, scale=0.1)
    process = ValidationProcess(
        db,
        SessionSpec(guidance={"strategy": "hybrid"}),
        user=SimulatedUser(seed=3),
        seed=3,
    )
    return process.run(max_iterations=5), process


class TestSummarizeTrace:
    def test_counts_match_trace(self):
        trace, process = run_small_process()
        summary = summarize_trace(trace)
        assert summary.iterations == trace.iterations
        assert summary.validations == trace.total_validations()
        assert summary.effort == pytest.approx(
            trace.total_validations() / trace.num_claims
        )

    def test_precisions_reported(self):
        trace, process = run_small_process()
        summary = summarize_trace(trace)
        assert summary.initial_precision is not None
        assert summary.final_precision is not None
        assert 0.0 <= summary.final_precision <= 1.0

    def test_strategy_mix_counts_iterations(self):
        trace, _ = run_small_process()
        summary = summarize_trace(trace)
        assert sum(summary.strategy_mix.values()) == trace.iterations
        assert set(summary.strategy_mix) <= {"info", "source", "hybrid"}

    def test_empty_trace(self):
        trace = ValidationTrace(
            num_claims=10, initial_precision=0.5, initial_entropy=2.0
        )
        summary = summarize_trace(trace)
        assert summary.iterations == 0
        assert summary.final_precision is None
        assert summary.entropy_drop == 0.0

    def test_entropy_drop_in_range(self):
        trace, _ = run_small_process()
        summary = summarize_trace(trace)
        assert -1.0 <= summary.entropy_drop <= 1.0


class TestFormatSummary:
    def test_contains_key_fields(self):
        trace, _ = run_small_process()
        text = format_summary(summarize_trace(trace))
        assert "stop reason" in text
        assert "effort" in text
        assert "final precision" in text

    def test_formats_empty_trace(self):
        trace = ValidationTrace(
            num_claims=10, initial_precision=None, initial_entropy=0.0
        )
        text = format_summary(summarize_trace(trace))
        assert "iterations           0" in text
