"""Unit tests for the ``repro lint`` framework and every rule.

Each rule gets (at least) one minimal violating snippet and one
minimal clean counterpart, checked through :func:`lint_source` — the
same path the CLI takes, minus file IO. The final test asserts the
real source tree is clean, which is the acceptance bar for the lint
gate in CI.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULE_CODE_RE,
    LintRule,
    Violation,
    all_rules,
    lint_source,
    module_name_for_path,
    render_report,
    run_lint,
)
from repro.analysis.rules import (
    RULES,
    FloatTimeEqualityRule,
    StateMutationRule,
    UnitsSuffixRule,
    UnseededRandomRule,
    WallClockRule,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(violations: list[Violation]) -> list[str]:
    return [v.code for v in violations]


def lint(source: str, module: str = "repro.sim.snippet") -> list[Violation]:
    return lint_source(textwrap.dedent(source), module=module)


# ----------------------------------------------------------------------
# Framework plumbing
# ----------------------------------------------------------------------
class TestFramework:
    def test_every_rule_has_identity(self):
        for cls in RULES:
            rule = cls()
            assert RULE_CODE_RE.match(rule.code), rule
            assert rule.name != "unnamed-rule"
            assert rule.description
            assert rule.hint

    @pytest.mark.parametrize(
        "code",
        ["DET001", "FLT001", "UNI001", "MUT999", "SEED001", "SHD003", "SUP001"],
    )
    def test_rule_code_re_accepts_catalogue_codes(self, code):
        assert RULE_CODE_RE.match(code)

    @pytest.mark.parametrize(
        "code",
        [
            "", "XXX000", "DET1", "DET0001", "det001", "DET001x", " DET001",
            "ZZZ001",  # well-formed shape, but no such documented family
        ],
    )
    def test_rule_code_re_rejects_non_catalogue_codes(self, code):
        assert not RULE_CODE_RE.match(code)

    def test_rule_code_re_is_registry_driven(self):
        """Every registered family (and nothing else) is accepted."""
        from repro.analysis.lint import RULE_FAMILIES

        for family in RULE_FAMILIES:
            assert RULE_CODE_RE.match(f"{family}001")

    def test_rule_with_undocumented_family_rejected_at_instantiation(
        self, monkeypatch
    ):
        """A rule whose code uses a family missing from RULE_FAMILIES
        cannot register, even if the code is otherwise well-formed."""
        import repro.analysis.rules as rules_mod

        class Undocumented(LintRule):
            code = "ZZZ001"
            name = "undocumented-family"
            description = "family never added to RULE_FAMILIES"
            hint = "register the family first"

            def check(self, ctx):
                return iter(())

        monkeypatch.setattr(
            rules_mod, "RULES", (*rules_mod.RULES, Undocumented)
        )
        with pytest.raises(ValueError, match="catalogue code"):
            all_rules()

    def test_all_rules_rejects_sentinel_code(self, monkeypatch):
        """A rule that never declared a catalogue code cannot register."""
        import repro.analysis.rules as rules_mod

        class Undeclared(LintRule):
            name = "undeclared"
            description = "left the base-class sentinel in place"
            hint = "declare a catalogue code"

            def check(self, ctx):
                return iter(())

        monkeypatch.setattr(
            rules_mod, "RULES", (*rules_mod.RULES, Undeclared)
        )
        with pytest.raises(ValueError, match="catalogue code"):
            all_rules()

    def test_rule_codes_are_unique(self):
        rule_codes = [cls.code for cls in RULES]
        assert len(set(rule_codes)) == len(rule_codes)

    def test_module_name_for_path(self):
        assert (
            module_name_for_path(Path("src/repro/sim/engine.py"))
            == "repro.sim.engine"
        )
        assert module_name_for_path(Path("src/repro/__init__.py")) == "repro"
        assert module_name_for_path(Path("scratch/foo.py")) == "foo"

    def test_suppression_comment_silences_only_named_code(self):
        src = "import time\nt = time.time()  # repro: allow[DET001] measured wall time\n"
        assert lint(src) == []
        # Wrong code in the comment does not silence it — and the
        # suppression audit reports the comment as bare (SUP001) and
        # silencing nothing (SUP002), both as warnings.
        src_wrong = "import time\nt = time.time()  # repro: allow[FLT001]\n"
        violations = lint(src_wrong)
        assert sorted(codes(violations)) == ["DET001", "SUP001", "SUP002"]
        by_code = {v.code: v for v in violations}
        assert by_code["DET001"].severity == "error"
        assert by_code["SUP001"].severity == "warning"
        assert by_code["SUP002"].severity == "warning"

    def test_justified_suppression_that_silences_nothing_is_unused(self):
        src = "x = 1  # repro: allow[DET001] leftover from a removed clock\n"
        assert codes(lint(src)) == ["SUP002"]

    def test_bare_suppression_that_works_still_warns(self):
        src = "import time\nt = time.time()  # repro: allow[DET001]\n"
        assert codes(lint(src)) == ["SUP001"]

    def test_suppression_accepts_multiple_codes(self):
        src = (
            "import time\n"
            "t = time.time()  # repro: allow[FLT001, DET001] both silenced\n"
        )
        assert lint(src) == []

    def test_render_report_summarises(self):
        violations = lint("import time\nt = time.time()\n")
        report = render_report(violations)
        assert "DET001" in report and "hint:" in report
        assert report.endswith("1 violation(s): DET001 x1")
        assert render_report([]) == "no violations"

    def test_scoped_rule_skips_out_of_scope_modules(self):
        rule = UnitsSuffixRule()
        assert rule.applies_to("repro.sim.engine")
        assert rule.applies_to("repro.core")
        assert not rule.applies_to("repro.experiments.runner")
        assert not rule.applies_to("repro.simulator")  # prefix, not package

    def test_run_lint_over_a_tmp_tree(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        violations = run_lint([tmp_path])
        assert codes(violations) == ["DET001"]
        assert violations[0].path.endswith("bad.py")


# ----------------------------------------------------------------------
# DET001: no wall-clock reads
# ----------------------------------------------------------------------
class TestWallClockRule:
    @pytest.mark.parametrize(
        "expr",
        [
            "time.time()",
            "time.perf_counter()",
            "time.monotonic_ns()",
            "datetime.datetime.now()",
            "datetime.date.today()",
        ],
    )
    def test_flags_wall_clock_calls(self, expr):
        src = f"import time, datetime\nt = {expr}\n"
        assert codes(lint(src)) == ["DET001"]

    def test_clean_simulation_clock_is_fine(self):
        assert lint("def f(sim):\n    return sim.now\n") == []

    def test_time_module_non_clock_use_is_fine(self):
        assert lint("import time\nx = time.strftime\n") == []


# ----------------------------------------------------------------------
# DET002: no process-global / unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandomRule:
    def test_flags_module_level_random(self):
        assert codes(lint("import random\nx = random.random()\n")) == ["DET002"]

    def test_flags_unseeded_random_instance(self):
        assert codes(lint("import random\nrng = random.Random()\n")) == ["DET002"]

    def test_seeded_random_instance_is_fine(self):
        assert lint("import random\nrng = random.Random(42)\n") == []

    def test_flags_numpy_global_random(self):
        assert codes(lint("import numpy as np\nx = np.random.rand(3)\n")) == [
            "DET002"
        ]

    def test_seeded_default_rng_is_fine(self):
        assert lint("import numpy as np\nrng = np.random.default_rng(7)\n") == []


# ----------------------------------------------------------------------
# FLT001: no float equality on simulation times
# ----------------------------------------------------------------------
class TestFloatTimeEqualityRule:
    def test_flags_equality_on_time_names(self):
        src = "def f(now, deadline):\n    return now == deadline\n"
        assert codes(lint(src)) == ["FLT001"]

    def test_flags_inequality_on_attribute_times(self):
        src = "def f(a, b):\n    return a.completion_time != b.exec_start\n"
        assert codes(lint(src)) == ["FLT001"]

    def test_zero_literal_comparison_is_exempt(self):
        assert lint("def f(start_time):\n    return start_time == 0.0\n") == []

    def test_non_time_names_are_fine(self):
        assert lint("def f(count, total):\n    return count == total\n") == []

    def test_ordering_comparisons_are_fine(self):
        assert lint("def f(now, deadline):\n    return now <= deadline\n") == []


# ----------------------------------------------------------------------
# UNI001: units suffix on public dataclass float fields
# ----------------------------------------------------------------------
class TestUnitsSuffixRule:
    def test_flags_unitless_public_float_field(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class LinkSpec:
            bandwidth: float
        """
        violations = lint(src)
        assert codes(violations) == ["UNI001"]
        assert "bandwidth" in violations[0].message

    def test_suffixed_and_instant_names_are_fine(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class LinkSpec:
            bandwidth_mbps: float
            latency_s: float
            arrival_time: float
            utilization: float
        """
        assert lint(src) == []

    def test_private_fields_and_classes_are_exempt(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class _Ledger:
            bandwidth: float

        @dataclass
        class Public:
            _scratch: float = 0.0
        """
        assert lint(src) == []

    def test_out_of_scope_module_is_skipped(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class FigureSpec:
            bandwidth: float
        """
        assert lint(src, module="repro.experiments.figures") == []

    def test_non_dataclass_is_skipped(self):
        src = """
        class Plain:
            bandwidth: float = 1.0
        """
        assert lint(src) == []

    def test_money_field_without_usd_token_is_flagged(self):
        """A money name with an otherwise-valid unit suffix still needs usd."""
        src = """
        from dataclasses import dataclass

        @dataclass
        class Invoice:
            penalty_s: float
            cost: float
        """
        violations = lint(src, module="repro.econ.snippet")
        assert codes(violations) == ["UNI001", "UNI001"]
        assert all("usd token" in v.message for v in violations)

    def test_money_fields_with_usd_token_pass(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class Invoice:
            penalty_usd: float
            base_usd_per_hour: float
            cost_usd_per_gb: float
        """
        assert lint(src, module="repro.econ.snippet") == []

    def test_econ_package_is_in_scope(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            bandwidth: float
        """
        assert codes(lint(src, module="repro.econ.snippet")) == ["UNI001"]


# ----------------------------------------------------------------------
# MUT001: SystemState mutates only inside commit methods
# ----------------------------------------------------------------------
class TestStateMutationRule:
    def test_flags_field_assignment_through_parameter(self):
        src = """
        def plan(state: SystemState) -> None:
            state.upload_backlog_mb = 0.0
        """
        assert codes(lint(src)) == ["MUT001"]

    def test_flags_mutator_call_on_state_field(self):
        src = """
        def plan(state: SystemState) -> None:
            state.pending_completions.append(3.0)
        """
        assert codes(lint(src)) == ["MUT001"]

    def test_commit_methods_of_state_classes_are_sanctioned(self):
        src = """
        class SystemState:
            def commit_ic(self, end: float) -> None:
                self.pending_completions.append(end)
        """
        assert lint(src) == []

    def test_reads_are_fine(self):
        src = """
        def plan(state: SystemState) -> float:
            return state.upload_backlog_mb + min(state.ic_free)
        """
        assert lint(src) == []

    def test_tracks_aliases_through_clone(self):
        src = """
        def plan(state: SystemState) -> None:
            scratch = state.clone()
            scratch.ec_free.append(1.0)
        """
        assert codes(lint(src)) == ["MUT001"]

    def test_flags_mutation_of_a_site_through_the_list(self):
        src = """
        def plan(state: SystemState) -> None:
            state.sites[0].upload_backlog_mb += 1.0
        """
        assert codes(lint(src)) == ["MUT001"]

    def test_tracks_site_aliases(self):
        src = """
        def plan(state: SystemState, i: int) -> None:
            site = state.sites[i]
            site.ec_free.append(1.0)
        """
        assert codes(lint(src)) == ["MUT001"]

    def test_tracks_loops_over_sites(self):
        src = """
        def plan(state: SystemState) -> None:
            for site in state.sites:
                site.ec_free[0] = 0.0
        """
        assert codes(lint(src)) == ["MUT001"]

    def test_site_reads_are_fine(self):
        src = """
        def plan(state: SystemState) -> float:
            site = state.sites[0]
            return site.up_rate + sum(s.ec_speed for s in state.sites)
        """
        assert lint(src) == []


# ----------------------------------------------------------------------
# Acceptance: the real tree is clean
# ----------------------------------------------------------------------
class TestRealTree:
    def test_source_tree_has_no_violations(self):
        violations = run_lint([SRC])
        assert violations == [], render_report(violations)

    def test_all_rules_instantiates_full_registry(self):
        assert {r.code for r in all_rules()} == {cls.code for cls in RULES}
