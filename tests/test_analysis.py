"""Tests for :mod:`repro.analysis` — the AST lint framework.

Covers, per docs/ANALYSIS.md: every rule family firing on a seeded-bad
snippet at the right line, inline suppression semantics, baseline
(ratchet) semantics, the contract decorators' runtime behaviour, the
suite-wide global-RNG guard, and the self-check that the committed tree
stays lint-clean against the committed baseline.
"""

from __future__ import annotations

import json
import random
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.api import lint_source, module_name_for, run_lint
from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.contracts import (
    CONTRACT_ATTR,
    derived_cache,
    mutates,
    requires_lock,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import all_specs
from repro.cli import main as cli_main
from repro.utils.rng import GlobalRngForbiddenError, forbid_global_rng

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(source: str, module_name: str = "repro.somemodule"):
    """Lint a dedented snippet; returns (findings, suppressed count)."""
    return lint_source(textwrap.dedent(source).strip() + "\n", "mod.py", module_name)


def fired(source: str, module_name: str = "repro.somemodule"):
    findings, _ = lint(source, module_name)
    return [(f.rule, f.line) for f in findings]


# ----------------------------------------------------------------------
# DET: determinism


class TestDetRules:
    def test_det001_global_random_call(self):
        assert fired(
            """
            import random

            def f():
                return random.random()
            """
        ) == [("DET001", 4)]

    def test_det001_draw_import(self):
        assert fired("from random import shuffle") == [("DET001", 1)]

    def test_det001_instance_import_is_fine(self):
        assert fired("from random import Random") == []

    def test_det002_numpy_random_namespace(self):
        assert fired(
            """
            import numpy as np

            def f():
                return np.random.rand(3)
            """
        ) == [("DET002", 4)]

    def test_det002_random_submodule_alias(self):
        assert fired(
            """
            from numpy import random as npr

            def f():
                return npr.normal()
            """
        ) == [("DET002", 4)]

    def test_det003_time_time(self):
        assert fired(
            """
            import time

            def f():
                return time.time()
            """
        ) == [("DET003", 4)]

    def test_det003_perf_counter_is_fine(self):
        assert fired(
            """
            import time

            def f():
                return time.perf_counter()
            """
        ) == []

    def test_det003_bare_time_import(self):
        assert fired(
            """
            from time import time

            def f():
                return time()
            """
        ) == [("DET003", 4)]

    def test_det003_datetime_now(self):
        assert fired(
            """
            from datetime import datetime

            def f():
                return datetime.now()
            """
        ) == [("DET003", 4)]

    def test_det004_set_iteration(self):
        assert fired(
            """
            def f(xs):
                for x in set(xs):
                    print(x)
                return [y for y in {1, 2}]
            """
        ) == [("DET004", 2), ("DET004", 4)]

    def test_det004_sorted_set_is_fine(self):
        assert fired(
            """
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
            """
        ) == []


# ----------------------------------------------------------------------
# CACHE: derived-cache coherence

_CACHE_SNIPPET = """
class Model:
    def __init__(self):
        self._data = 0
        self._view = None

    @derived_cache("view", backing=("_data",), hook="_invalidate", storage="_view")
    def view(self):
        if self._view is None:
            self._view = self._data + 1
        return self._view

    def _invalidate(self):
        self._view = None

    def grow(self):
        self._data = 1

    @mutates("view")
    def good(self):
        self._data = 2
        self._invalidate()

    @mutates("view")
    def stale(self):
        self._data = 3

    @mutates("typo")
    def wrong(self):
        self._view = None
"""


class TestCacheRules:
    def test_cache_family_fires_at_the_right_lines(self):
        assert fired(_CACHE_SNIPPET) == [
            ("CACHE001", 16),  # grow writes _data without @mutates
            ("CACHE002", 23),  # stale never invalidates
            ("CACHE003", 27),  # @mutates("typo") names no declared cache
        ]

    def test_subscript_write_counts_as_mutation(self):
        assert fired(
            """
            class Model:
                @derived_cache("view", backing=("_data",), storage="_view")
                def view(self):
                    return self._view

                def poke(self, i):
                    self._data[i] = 1
            """
        ) == [("CACHE001", 7)]

    def test_storage_assignment_discharges(self):
        assert fired(
            """
            class Model:
                @derived_cache("view", backing=("_data",), storage="_view")
                def view(self):
                    return self._view

                @mutates("view")
                def poke(self):
                    self._data = 1
                    self._view = None
            """
        ) == []


# ----------------------------------------------------------------------
# STATE: checkpoint completeness


class TestStateRules:
    def test_state_family_fires_at_the_right_lines(self):
        assert fired(
            """
            class Proc:
                _STATE_EXCLUDED = ("_config", "_ghost")

                def __init__(self):
                    self._config = 1
                    self._counter = 0
                    self._weights = None

                def state_dict(self):
                    return {"weights": self._weights}

                def load_state_dict(self, state):
                    self._weights = state["weights"]
            """
        ) == [
            ("STATE002", 2),  # _ghost is never assigned by __init__
            ("STATE001", 6),  # _counter is neither serialised nor excluded
        ]

    def test_class_without_checkpoint_protocol_is_ignored(self):
        assert fired(
            """
            class Plain:
                def __init__(self):
                    self._anything = 1
            """
        ) == []

    def test_only_the_state_pair_counts_as_a_mention(self):
        assert fired(
            """
            class Proc:
                def __init__(self):
                    self._weights = None
                    self._step = 0

                def state_dict(self):
                    return {"weights": self._weights}

                def load_state_dict(self, state):
                    self._weights = state["weights"]

                def mutable_state_dict(self):
                    return {"step": self._step}
            """
        ) == [("STATE001", 4)]  # `_step` is mentioned only by a helper


# ----------------------------------------------------------------------
# LOCK: service-layer lock discipline

_LOCK_SNIPPET = """
class _ManagedSession:
    _LOCK_GUARDED = ("session", "evicted")


class Manager:
    def leak(self, managed):
        return managed.session

    def locked(self, managed):
        with managed.lock:
            return managed.session

    def runner(self, managed):
        def op():
            return managed.session
        return self._run(managed, op)

    @requires_lock("managed")
    def _summary(self, managed):
        return managed.session

    def bad_call(self, managed):
        return self._summary(managed)

    def ok_call(self, managed):
        with managed.lock:
            return self._summary(managed)
"""


class TestLockRules:
    def test_lock_family_fires_at_the_right_lines(self):
        assert fired(_LOCK_SNIPPET) == [
            ("LOCK001", 7),   # leak reads managed.session with no lock
            ("LOCK002", 23),  # bad_call invokes the helper without the lock
        ]

    def test_closures_do_not_inherit_locked_state(self):
        # A closure may outlive the `with` block that defined it, so the
        # locked region must not leak into nested functions.
        assert fired(
            """
            class _ManagedSession:
                _LOCK_GUARDED = ("session",)


            class Manager:
                def outer(self, managed):
                    with managed.lock:
                        def esc():
                            return managed.session
                        return esc
            """
        ) == [("LOCK001", 9)]

    def test_module_without_guards_is_ignored(self):
        assert fired(
            """
            class Manager:
                def f(self, managed):
                    return managed.session
            """
        ) == []


# ----------------------------------------------------------------------
# API: spec/wire contract consistency


class TestApiRules:
    def test_api001_typoed_field_path(self):
        assert fired(
            """
            from dataclasses import dataclass


            @dataclass
            class GoalSpec:
                kind: str = "x"
                threshold: float = 0.9

                def validate(self):
                    raise SpecError("bad", field="treshold")

                def ok(self):
                    raise SpecError("bad", field="threshold.sub")

                def ok_subscript(self):
                    raise SpecError("bad", field="kind[0]")

                def skipped(self, name):
                    raise SpecError("bad", field=name)

                def nested(self):
                    raise GuidanceError("bad", field="damping")

                def nested_ok(self):
                    raise GuidanceError("bad", field="kind")
            """
        ) == [("API001", 10), ("API001", 22)]

    def test_lint001_unparsable_file(self):
        findings, _ = lint_source("def broken(:\n", "bad.py")
        assert [f.rule for f in findings] == ["LINT001"]


# ----------------------------------------------------------------------
# Suppressions


class TestSuppressions:
    def test_same_line_directive(self):
        findings, suppressed = lint(
            """
            import random
            x = random.random()  # repro-lint: disable=DET001
            """
        )
        assert findings == [] and suppressed == 1

    def test_comment_line_above(self):
        findings, suppressed = lint(
            """
            import random
            # repro-lint: disable=DET001
            x = random.random()
            """
        )
        assert findings == [] and suppressed == 1

    def test_disable_file(self):
        findings, suppressed = lint(
            """
            # repro-lint: disable-file=DET001
            import random
            x = random.random()
            y = random.choice([1])
            """
        )
        assert findings == [] and suppressed == 2

    def test_all_keyword(self):
        findings, suppressed = lint(
            """
            import random
            x = random.random()  # repro-lint: disable=all
            """
        )
        assert findings == [] and suppressed == 1

    def test_directive_in_string_literal_is_inert(self):
        findings, _ = lint(
            """
            import random
            s = "# repro-lint: disable=DET001"
            x = random.random()
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("DET001", 3)]

    def test_wrong_rule_does_not_suppress(self):
        findings, suppressed = lint(
            """
            import random
            x = random.random()  # repro-lint: disable=DET002
            """
        )
        assert [f.rule for f in findings] == ["DET001"] and suppressed == 0


# ----------------------------------------------------------------------
# Baseline


def _finding(path="m.py", line=3, rule="DET001", message="msg"):
    return Finding(
        path=path, line=line, rule=rule, severity=Severity.ERROR, message=message
    )


class TestBaseline:
    def test_roundtrip_counts_fingerprints(self, tmp_path):
        target = tmp_path / "baseline.json"
        save_baseline(target, [_finding(line=3), _finding(line=9)])
        assert load_baseline(target) == {("m.py", "DET001", "msg"): 2}

    def test_apply_is_line_insensitive_and_count_bounded(self, tmp_path):
        target = tmp_path / "baseline.json"
        save_baseline(target, [_finding(line=3)])
        baseline = load_baseline(target)
        # Same fingerprint at a different line is absorbed; the second
        # occurrence exceeds the recorded count and is new.
        new = apply_baseline([_finding(line=40), _finding(line=41)], baseline)
        assert [(f.line,) for f in new] == [(41,)]

    def test_fixing_baselined_findings_never_breaks(self, tmp_path):
        target = tmp_path / "baseline.json"
        save_baseline(target, [_finding(), _finding(rule="DET002")])
        assert apply_baseline([], load_baseline(target)) == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BaselineError):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(bad)

    def test_wrong_version_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(BaselineError):
            load_baseline(bad)

    def test_run_lint_baseline_workflow(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import random\nx = random.random()\n")
        baseline = tmp_path / "baseline.json"

        report = run_lint(paths=[tmp_path])
        assert not report.ok and len(report.findings) == 1

        run_lint(paths=[tmp_path], baseline_path=baseline, write_baseline=True)
        report = run_lint(paths=[tmp_path], baseline_path=baseline)
        assert report.ok and report.baseline_applied

        module.write_text(
            "import random\nx = random.random()\ny = random.random()\n"
        )
        report = run_lint(paths=[tmp_path], baseline_path=baseline)
        assert not report.ok and len(report.new_findings) == 1


# ----------------------------------------------------------------------
# CLI


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        rc = cli_main(["lint", str(REPO_ROOT / "src" / "repro" / "analysis")])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_violation_exits_one_and_reports(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import random\nx = random.random()\n")
        report_path = tmp_path / "report.json"
        rc = cli_main(["lint", str(bad), "--report", str(report_path)])
        assert rc == 1
        assert "DET001" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "DET001"

    def test_lint_missing_baseline_exits_two(self, tmp_path, capsys):
        rc = cli_main(
            ["lint", str(tmp_path), "--baseline", str(tmp_path / "nope.json")]
        )
        assert rc == 2

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import random\nx = random.random()\n")
        rc = cli_main(["lint", str(bad), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "DET001"


# ----------------------------------------------------------------------
# Self-check: the committed tree vs. the committed baseline


class TestSelfCheck:
    def test_repo_tree_is_lint_clean(self):
        report = run_lint(paths=[REPO_ROOT / "src" / "repro"])
        assert report.ok, "\n" + report.render_text()

    def test_committed_baseline_is_empty_and_current(self):
        payload = json.loads((REPO_ROOT / "analysis_baseline.json").read_text())
        assert payload["version"] == 1
        # The tree lints clean, so the ratchet must stay at empty: never
        # regenerate the baseline to absorb a new finding — fix it.
        assert payload["findings"] == []

    def test_all_documented_rules_are_registered(self):
        ids = {spec.id for spec in all_specs()}
        assert {
            "DET001", "DET002", "DET003", "DET004",
            "CACHE001", "CACHE002", "CACHE003",
            "STATE001", "STATE002",
            "LOCK001", "LOCK002",
            "API001",
            "LINT001",
        } <= ids

    def test_module_name_inference(self):
        assert module_name_for(Path("/x/src/repro/crf/model.py")) == "repro.crf.model"
        assert module_name_for(Path("/x/src/repro/__init__.py")) == "repro"
        assert module_name_for(Path("/x/elsewhere/thing.py")) == ""


# ----------------------------------------------------------------------
# Contract decorators (runtime side)


class TestContracts:
    def test_decorators_are_noops_and_attach_metadata(self):
        class Box:
            @derived_cache("view", backing=("_data",), storage="_view")
            def view(self):
                return 1

            @mutates("view")
            def poke(self):
                return 2

            @requires_lock("managed")
            def helper(self, managed):
                return managed

        box = Box()
        assert (box.view(), box.poke(), box.helper(3)) == (1, 2, 3)
        decl = getattr(Box.view, CONTRACT_ATTR)["derived_cache"][0]
        assert decl["name"] == "view" and decl["backing"] == ("_data",)
        assert getattr(Box.poke, CONTRACT_ATTR)["mutates"] == ["view"]
        assert getattr(Box.helper, CONTRACT_ATTR)["requires_lock"] == ["managed"]


# ----------------------------------------------------------------------
# Runtime global-RNG guard


class TestForbidGlobalRng:
    def test_suite_wide_guard_is_active(self):
        # tests/conftest.py arms the guard for every test via an autouse
        # fixture; a bare draw must fail without entering the context here.
        with pytest.raises(GlobalRngForbiddenError):
            random.random()
        with pytest.raises(GlobalRngForbiddenError):
            np.random.rand(2)

    def test_explicit_generators_keep_working(self):
        with forbid_global_rng():
            assert 0.0 <= random.Random(7).random() <= 1.0
            rng = np.random.default_rng(7)
            assert np.isfinite(rng.normal())

    def test_seeding_is_not_a_draw(self):
        # hypothesis reseeds the module-level state between examples;
        # only draws leak ambient entropy into results.
        state = np.random.get_state()
        try:
            np.random.seed(0)
        finally:
            np.random.set_state(state)
        with pytest.raises(GlobalRngForbiddenError):
            np.random.random_sample()
