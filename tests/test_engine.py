"""Validation runs: check order, facets, accumulators, reports."""

import random

import pytest

from aspcheck import datalog
from aspcheck.datalog import parse_program
from aspcheck.diagnostics import render_report
from aspcheck.engine import (
    AccumulatorStore,
    RunOptions,
    check_instance,
    finalize,
    run,
    wrap32,
)
from aspcheck.schema import load_spec, parse_spec
from aspcheck.terms import Fact, Number, parse_facts

from _support import load_fixture

INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)


def single(report):
    assert len(report.diagnostics) == 1, report.diagnostics
    return report.diagnostics[0]


class TestWrap32:
    def test_documented_overflow(self):
        assert wrap32(3000000000) == -1294967296

    def test_zero(self):
        assert wrap32(0) == 0

    def test_boundary(self):
        assert wrap32(2147483648) == -2147483648
        assert wrap32(-2147483649) == 2147483647
        assert wrap32(INT32_MAX) == INT32_MAX
        assert wrap32(INT32_MIN) == INT32_MIN

    def test_matches_modular_arithmetic_oracle(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(-(2**40), 2**40)
            expected = n % 2**32
            if expected >= 2**31:
                expected -= 2**32
            assert wrap32(n) == expected


class TestIncomeOverflow:
    def test_sum_pos_rejects_wrapping_total(self):
        spec = load_fixture("income.yaml")
        facts = parse_facts('income("Acme ASP",1500000000).'
                            ' income("Yoyodyne YAML",1500000000).')
        report = run(spec, facts)
        assert report.verdict == "invalid"
        diag = single(report)
        assert diag.rule == "sum-pos"
        assert "3000000000" in diag.message

    def test_negative_amount_min_message(self):
        spec = load_fixture("income.yaml")
        report = run(spec, parse_facts('income("A", -5).'))
        diag = single(report)
        assert diag.rule == "min"
        assert "Should be >= 0" in diag.message
        assert "-5" in diag.message

    def test_valid_income(self):
        spec = load_fixture("income.yaml")
        report = run(spec, parse_facts('income("A", 5). income("B", 7).'))
        assert report.verdict == "valid"
        assert report.stats.instances_checked == {"income": 2}


class TestNestedTypes:
    def test_wrong_nested_arity_single_diagnostic(self):
        spec = load_fixture("bday.yaml")
        report = run(spec, parse_facts("bday(bigel, date(1982,123))."))
        diag = single(report)
        assert diag.rule == "wrong-arity"
        assert "arity 3" in diag.message and "2 arguments" in diag.message
        assert diag.symbol == "bday"
        assert diag.instance == "bday(bigel,date(1982,123))"

    def test_valid_nested_date(self):
        spec = load_fixture("bday.yaml")
        assert run(spec, parse_facts("bday(sofia, date(2019,6,25)).")).verdict == "valid"

    def test_nested_calendar_failure_attributed_to_outer_fact(self):
        spec = load_fixture("bday.yaml")
        report = run(spec, parse_facts("bday(x, date(2019,2,30))."),
                     RunOptions(fail_fast=False))
        diag = single(report)
        assert diag.rule == "hook-fail"
        assert diag.instance == "bday(x,date(2019,2,30))"

    def test_nested_kind_failure(self):
        spec = load_fixture("bday.yaml")
        report = run(spec, parse_facts('bday(x, date(2019,"jun",25)).'))
        diag = single(report)
        assert diag.rule == "wrong-kind"

    def test_wrong_function_name_for_nested_type(self):
        spec = load_fixture("bday.yaml")
        report = run(spec, parse_facts("bday(x, data(2019,6,25))."))
        diag = single(report)
        assert diag.rule == "wrong-kind"
        assert "date" in diag.message

    def test_dual_role_symbol_checked_both_ways(self):
        spec = load_fixture("bday.yaml")
        facts = parse_facts("bday(sofia, date(2019,6,25)). date(2019,6,25).")
        assert run(spec, facts).verdict == "valid"
        bad = parse_facts("bday(sofia, date(2019,6,25)). date(2019,2,30).")
        report = run(spec, bad)
        assert report.verdict == "invalid"
        assert single(report).symbol == "date"

    def test_unary_user_type_accepts_bare_value(self):
        spec = load_fixture("solitaire.yaml")
        report = run(spec, parse_facts("location(4,4)."))
        assert report.verdict == "valid"

    def test_unary_user_type_checks_inner_facets(self):
        spec = load_fixture("solitaire.yaml")
        report = run(spec, parse_facts("location(9,4)."))
        diag = single(report)
        assert diag.rule == "enum"

    def test_other_arity_left_unvalidated(self):
        spec = load_fixture("income.yaml")
        report = run(spec, parse_facts('income("A", 5, extra).'))
        assert report.verdict == "valid"
        assert report.stats.instances_checked == {}


class TestCheckOrder:
    SPEC = """
    p:
        a:
            type: Integer
            min: 0
        b:
            type: Integer
            min: 0
        valasp:
            having: [a < b]
            after_init: |+
                if self.a + self.b > 100: fail('sum too large')
    """

    def test_arity_first(self):
        spec = load_spec(self.SPEC)
        store = AccumulatorStore(spec)
        diags = check_instance(spec.definitions["p"], Fact("p", (Number(1),)), store)
        assert [d.rule for d in diags] == ["wrong-arity"]

    def test_kind_before_facets(self):
        spec = load_spec(self.SPEC)
        store = AccumulatorStore(spec)
        fact = parse_facts("p(x, -1).")[0]
        diags = check_instance(spec.definitions["p"], fact, store)
        assert diags[0].rule == "wrong-kind"

    def test_facets_before_having(self):
        spec = load_spec(self.SPEC)
        store = AccumulatorStore(spec)
        fact = parse_facts("p(-1, -2).")[0]
        diags = check_instance(spec.definitions["p"], fact, store)
        assert diags[0].rule == "min"

    def test_having_before_hook(self):
        spec = load_spec(self.SPEC)
        store = AccumulatorStore(spec)
        fact = parse_facts("p(90, 80).")[0]
        diags = check_instance(spec.definitions["p"], fact, store)
        assert [d.rule for d in diags] == ["having"]

    def test_hook_last(self):
        spec = load_spec(self.SPEC)
        store = AccumulatorStore(spec)
        fact = parse_facts("p(60, 80).")[0]
        diags = check_instance(spec.definitions["p"], fact, store)
        assert [d.rule for d in diags] == ["hook-fail"]

    def test_valid_instance_no_diagnostics(self):
        spec = load_spec(self.SPEC)
        store = AccumulatorStore(spec)
        fact = parse_facts("p(10, 20).")[0]
        assert check_instance(spec.definitions["p"], fact, store) == []
        assert store.counts == {"p": 1}


class TestFacets:
    def test_integer_boundary_sweep_defaults(self):
        spec = load_spec("p:\n    v: Integer\n")
        for value in (INT32_MIN, INT32_MAX):
            assert run(spec, [Fact("p", (Number(value),))]).verdict == "valid"
        for value in (INT32_MIN - 1, INT32_MAX + 1):
            report = run(spec, [Fact("p", (Number(value),))])
            assert report.verdict == "invalid"
            assert single(report).rule in ("min", "max")

    def test_sum_pos_boundary(self):
        spec = load_spec("p:\n    v:\n        type: Integer\n        sum+: Integer\n")
        ok = [Fact("p", (Number(INT32_MAX - 1),)), Fact("p", (Number(1),))]
        assert run(spec, ok).verdict == "valid"
        over = [Fact("p", (Number(INT32_MAX),)), Fact("p", (Number(1),))]
        report = run(spec, over)
        assert single(report).rule == "sum-pos"

    def test_sum_neg_symmetric(self):
        spec = load_spec("p:\n    v:\n        type: Integer\n        sum-: Integer\n")
        ok = [Fact("p", (Number(INT32_MIN + 1),)), Fact("p", (Number(-1),))]
        assert run(spec, ok).verdict == "valid"
        report = run(spec, [Fact("p", (Number(INT32_MIN),)), Fact("p", (Number(-1),))])
        assert single(report).rule == "sum-neg"

    def test_sum_accounting_matches_brute_force(self):
        spec = load_spec("p:\n    k: Integer\n    v:\n        type: Integer\n"
                         "        sum+: {max: 999999999999}\n"
                         "        sum-: {min: -999999999999}\n")
        rng = random.Random(2024)
        for _ in range(20):
            values = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 40))]
            facts = [Fact("p", (Number(i), Number(v))) for i, v in enumerate(values)]
            store = AccumulatorStore(spec)
            for fact in facts:
                assert check_instance(spec.definitions["p"], fact, store) == []
            assert store.sums_pos.get(("p", "v"), 0) == sum(v for v in values if v > 0)
            assert store.sums_neg.get(("p", "v"), 0) == sum(v for v in values if v < 0)
            assert finalize(spec.definitions["p"], store) == []

    def test_count_deduplicates_identical_facts(self):
        spec = load_spec("size:\n    v:\n        type: Integer\n        count: 1\n")
        report = run(spec, parse_facts("size(8). size(8)."))
        assert report.verdict == "valid"

    def test_count_range(self):
        spec = load_spec("p:\n    v:\n        type: Integer\n"
                         "        count: {min: 2, max: 3}\n")
        assert run(spec, parse_facts("p(1). p(2).")).verdict == "valid"
        report = run(spec, parse_facts("p(1)."))
        assert single(report).rule == "count"
        report = run(spec, parse_facts("p(1). p(2). p(3). p(4).")).diagnostics[0]
        assert report.rule == "count"

    def test_enum_and_bounds_checked_independently(self):
        spec = load_spec("p:\n    v:\n        type: Integer\n"
                         "        enum: [5, 500]\n        max: 100\n")
        report = run(spec, parse_facts("p(500)."), RunOptions(fail_fast=False))
        assert [d.rule for d in report.diagnostics] == ["max"]
        report = run(spec, parse_facts("p(7)."), RunOptions(fail_fast=False))
        assert [d.rule for d in report.diagnostics] == ["enum"]

    def test_string_length_and_pattern(self):
        spec = load_spec("p:\n    v:\n        type: String\n        min: 2\n"
                         "        max: 4\n        pattern: '[a-z]+'\n")
        assert run(spec, parse_facts('p("abc").')).verdict == "valid"
        assert single(run(spec, parse_facts('p("a").'))).rule == "min"
        assert single(run(spec, parse_facts('p("abcde").'))).rule == "max"
        assert single(run(spec, parse_facts('p("aB").'))).rule == "pattern"

    def test_alpha_kind_and_enum(self):
        spec = load_fixture("qsr.yaml")
        assert run(spec, parse_facts("rel(req).")).verdict == "valid"
        assert single(run(spec, parse_facts("rel(bogus)."))).rule == "enum"
        assert single(run(spec, parse_facts('rel("req").'))).rule == "wrong-kind"

    def test_any_accepts_every_term(self):
        spec = load_spec("p:\n    v: Any\n")
        facts = parse_facts('p(1). p("s"). p(c). p(f(1)). p((1,2)).')
        assert run(spec, facts).verdict == "valid"


class TestHavingIntegration:
    def test_qsr_term_order_comparison(self):
        spec = load_fixture("qsr.yaml")
        assert run(spec, parse_facts("label(1,2,rp).")).verdict == "valid"
        report = run(spec, parse_facts("label(2,1,rp)."))
        diag = single(report)
        assert diag.rule == "having"
        assert diag.message == "Expected x < y"


class TestRunModes:
    def test_fail_fast_stops_at_first(self):
        spec = load_fixture("income.yaml")
        facts = parse_facts('income("A", -5). income("B", -6).')
        report = run(spec, facts)
        assert len(report.diagnostics) == 1

    def test_collect_all_gathers_everything(self):
        spec = load_fixture("income.yaml")
        facts = parse_facts('income("A", -5). income("B", -6).')
        report = run(spec, facts, RunOptions(fail_fast=False))
        assert len(report.diagnostics) == 2
        assert report.verdict == "invalid"

    def test_permutation_invariance(self):
        import json

        spec = load_fixture("knight.yaml")
        facts = parse_facts(
            "size(8). givenmove(7,5,8,7). givenmove(1,7,3,9). givenmove(1,7,9,6).")

        def multiset(report):
            return sorted(json.dumps(d.to_record(), sort_keys=True)
                          for d in report.diagnostics)

        baseline = run(spec, facts, RunOptions(fail_fast=False))
        rng = random.Random(8)
        for _ in range(10):
            shuffled = facts[:]
            rng.shuffle(shuffled)
            report = run(spec, shuffled, RunOptions(fail_fast=False))
            assert report.verdict == baseline.verdict
            assert multiset(report) == multiset(baseline)

    def test_idempotent_reruns(self):
        spec = load_fixture("solitaire.yaml")
        first = run(spec, parse_facts("location(1,1)."))
        second = run(spec, parse_facts("location(1,1)."))
        assert [d.to_record() for d in first.diagnostics] == \
               [d.to_record() for d in second.diagnostics]
        assert first.verdict == second.verdict

    def test_spec_error_verdict_on_unchecked_spec(self):
        spec = parse_spec("p:\n    a: nowhere\n")
        report = run(spec, [])
        assert report.verdict == "spec-error"

    def test_eval_error_is_spec_error(self):
        spec = load_spec("p:\n    a: Integer\n    valasp:\n"
                         "        after_init: |+\n            x = self.a // 0\n")
        report = run(spec, parse_facts("p(1)."))
        assert report.verdict == "spec-error"
        assert single(report).rule == "eval-error"

    def test_asp_syntax_error_is_spec_error(self):
        spec = load_spec("valasp:\n    asp: |+\n        p(X) :- q(Y).\n"
                         "p:\n    a: Integer\n")
        report = run(spec, [])
        assert report.verdict == "spec-error"
        assert single(report).rule == "asp-syntax"

    def test_extra_rules_join_the_aux_program(self):
        spec = load_fixture("income.yaml")
        extra = parse_program('income("Derived", 2000000000) :- seed(1).\nseed(1).')
        options = RunOptions(rules=tuple(extra.rules))
        facts = parse_facts('income("Acme", 1500000000).') + extra.facts
        report = run(spec, facts, options)
        assert report.verdict == "invalid"
        assert single(report).rule == "sum-pos"
        assert "3500000000" in single(report).message

    @pytest.mark.parametrize("fact", ["p(a..b).", "p(1/0)."])
    def test_bad_constant_in_spec_fact_is_asp_syntax(self, fact):
        spec = load_spec(f"valasp:\n    asp: |+\n        {fact}\np:\n    a: Integer\n")
        report = run(spec, [])
        assert report.verdict == "spec-error"
        assert single(report).rule == "asp-syntax"
        assert "(line 1, column " in single(report).message

    def test_deep_arithmetic_in_spec_rules_is_asp_syntax(self):
        spec = load_spec("valasp:\n    asp: |+\n        q(1). p(Y) :- q(X), Y = X"
                         + "+1" * 101 + ".\np:\n    a: Integer\n")
        report = run(spec, [])
        assert report.verdict == "spec-error"
        assert single(report).rule == "asp-syntax"
        assert "arithmetic nested more than 100 levels deep" in single(report).message

    def test_cycle_only_in_the_joined_rules_is_asp_syntax(self):
        spec = load_spec("valasp:\n    asp: |+\n        q(X) :- p(X), not r(X).\n"
                         "p:\n    a: Integer\n")
        extra = parse_program("r(X) :- q(X).")
        report = run(spec, parse_facts("p(1)."), RunOptions(rules=tuple(extra.rules)))
        assert report.verdict == "spec-error"
        assert single(report).rule == "asp-syntax"
        assert "not stratified" in single(report).message

    def test_spec_facts_without_rules_skip_evaluation(self, monkeypatch):
        def no_evaluate(*args):
            raise AssertionError("evaluate called without rules")

        monkeypatch.setattr(datalog, "evaluate", no_evaluate)
        spec = load_spec("valasp:\n    asp: |+\n        p(1). p(2).\n"
                         "p:\n    a: Integer\n")
        report = run(spec, parse_facts("p(3)."))
        assert report.verdict == "valid"
        assert report.stats.instances_checked == {"p": 3}

    def test_videosum_aux_program(self):
        spec = load_fixture("videosum.yaml")
        facts = parse_facts(
            "target(100).\n"
            'assign(1,"Documentary",720,4000,1). assign(2,"Video",360,3000,2).\n'
            'user(1,"Documentary",720,5000,1500000000,8000).'
            ' user(2,"Video",360,4000,1500000000,8000).')
        report = run(spec, facts)
        assert report.verdict == "invalid"
        diag = single(report)
        assert diag.rule == "sum-pos"
        assert diag.symbol == "sum_element"

    def test_before_hook_failure(self):
        spec = load_spec("p:\n    a: Integer\n    valasp:\n"
                         "        before_grounding: |+\n"
                         "            fail('not today')\n")
        report = run(spec, parse_facts("p(1)."))
        diag = single(report)
        assert diag.phase == "before"
        assert report.verdict == "invalid"

    def test_prelude_constants_reach_hooks(self):
        spec = load_spec(
            "valasp:\n    script: |+\n        limit = 10\n"
            "p:\n    a: Integer\n    valasp:\n"
            "        after_init: |+\n"
            "            if self.a > limit: fail('above {limit}')\n")
        assert run(spec, parse_facts("p(9).")).verdict == "valid"
        report = run(spec, parse_facts("p(11)."))
        assert single(report).message == "above 10"


class TestReportRendering:
    def test_text_format_line_shape(self):
        spec = load_fixture("income.yaml")
        report = run(spec, parse_facts('income("A", -5).'))
        text = render_report(report, "text")
        line = text.splitlines()[0]
        assert line.startswith("income/2: min: ")
        assert line.endswith('[income("A",-5)]')
        assert text.splitlines()[-1] == "invalid"

    def test_jsonl_format_fields(self):
        import json

        spec = load_fixture("income.yaml")
        report = run(spec, parse_facts('income("A", -5).'))
        record = json.loads(render_report(report, "jsonl"))
        assert record["phase"] == "instance"
        assert record["symbol"] == "income"
        assert record["rule"] == "min"
        assert record["arity"] == 2
        assert record["instance"] == 'income("A",-5)'

    def test_valid_report_text(self):
        spec = load_fixture("income.yaml")
        report = run(spec, [])
        assert render_report(report, "text") == "valid"
        assert render_report(report, "jsonl") == ""
