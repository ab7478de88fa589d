"""Validation runs: check order, facets, accumulators, reports."""

import dataclasses
import gc
import inspect
import io
import random
import sys
from collections import Counter
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcheck import cli, datalog, engine, hooks
from aspcheck.datalog import parse_program
from aspcheck.diagnostics import render_report
from aspcheck.engine import (
    AccumulatorStore,
    RunOptions,
    _args_key,
    _grouped_instances,
    check_instance,
    finalize,
    run,
    wrap32,
)
from aspcheck.schema import PrimitiveType, load_spec, parse_spec
from aspcheck.terms import (Const, Fact, Func, Number, ParseError, Str, Tuple, parse_facts, render,
                            sort_key)

from _support import FIXTURES, compare_terms, fixture_text, load_fixture, random_facts

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


# The predicates each fixture declares or derives, with the kind of each
# argument: n for an integer, s for a string.
_FACT_SHAPES = {
    "income.yaml": [("income", "sn")],
    "knight.yaml": [("size", "n"), ("move", "nnnn"), ("givenmove", "nnnn")],
    "ordered_triple.yaml": [("ordered_triple", "nnn")],
    "solitaire.yaml": [("range", "n"), ("location", "nn")],
}


def _random_arg(rng: random.Random, kind: str):
    """Mostly a term of the kind, small or near the 32-bit limit; else any."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice([Const("a"), Str("A"), Number(1), Func("f", (Number(1),))])
    if kind == "s":
        return Str(rng.choice(["A", "B", "C"]))
    return Number(INT32_MAX - rng.randint(0, 3) if roll < 0.25 else rng.randint(-2, 10))


class TestRunModes:
    @pytest.mark.parametrize("fixture", sorted(_FACT_SHAPES))
    def test_fail_fast_reports_the_first_of_all_errors(self, fixture):
        spec = load_fixture(fixture)
        cut = 0
        for seed in range(60):
            rng = random.Random(seed)
            facts = [Fact(pred, tuple(_random_arg(rng, kind) for kind in kinds))
                     for pred, kinds in rng.choices(_FACT_SHAPES[fixture], k=rng.randint(0, 8))]
            all_errors = run(spec, facts, RunOptions(fail_fast=False)).diagnostics
            first = run(spec, facts, RunOptions(fail_fast=True)).diagnostics
            assert first == all_errors[:1], (seed, facts)
            cut += len(all_errors) > 1
        assert cut >= 10  # fail-fast stopped a run that had more to report

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


# Small domains, so that many facts share leading arguments and every pair
# of kinds meets in the same argument position.
_order_terms = st.recursive(
    st.one_of(st.integers(-2, 2).map(Number), st.sampled_from("ab").map(Const),
              st.sampled_from(["", "a", "b"]).map(Str)),
    lambda children: st.one_of(
        st.builds(lambda name, args: Func(name, tuple(args)), st.sampled_from("fg"),
                  st.lists(children, min_size=1, max_size=2)),
        st.lists(children, min_size=1, max_size=3).map(lambda a: Tuple(tuple(a)))),
    max_leaves=4,
)
_ORDER_SPEC = load_spec("p:\n    a: Any\n    b: Any\n")


@given(st.lists(st.tuples(_order_terms, _order_terms), max_size=40))
@settings(max_examples=200)
def test_instances_are_checked_in_term_order(pairs):
    atoms = {Fact("p", args) for args in pairs}
    groups = list(_grouped_instances(_ORDER_SPEC, atoms))
    ordered = sorted(groups[0][1], key=_args_key) if groups else []
    assert ordered == sorted(atoms, key=lambda f: sort_key(f.term()))
    for left, right in zip(ordered, ordered[1:]):
        assert compare_terms(left.term(), right.term()) < 0


# Every instance-phase message, as check_instance and run report it.  Per
# instance the order is: the kinds of all fields, then facets field by field
# (enum, min, max, pattern), then having, then after_init.
_TABLE_SPEC = load_spec("""
num:
    v: {type: Integer, min: 0, max: 9}
numenum:
    v: {type: Integer, enum: [1, 2, 30], max: 20}
str:
    v: {type: String, min: 2, max: 4, pattern: '[a-z]+', enum: [ab, abc, ABCDE]}
alpha:
    v: {type: Alpha, min: 2, max: 3, pattern: 'a.*', enum: [ab, abc, bcd]}
any:
    v: Any
pair:
    a: Integer
    b: {type: Integer, max: 5}
    c: String
    valasp:
        having: [a < b]
        after_init: |+
            if self.a == 0: fail('a is zero')
cmp:
    a: Integer
    b: String
    valasp:
        having: [a < b]
date:
    y: {type: Integer, min: 1}
    m: {type: Integer, max: 12}
    valasp:
        having: [y > m]
        after_init: |+
            if self.y == 99: fail('no 99')
event:
    when: date
    name: Alpha
unary:
    n: {type: Integer, max: 5}
wrap:
    u: unary
""")

_MESSAGES = [
    ("num(a)", [("wrong-kind", "v: expected an integer, received a")]),
    ("num(-1)", [("min", "v: Should be >= 0, but received -1")]),
    ("num(10)", [("max", "v: Should be <= 9, but received 10")]),
    ("numenum(4)", [("enum", "v: 4 is not one of [1, 2, 30]")]),
    ("numenum(30)", [("max", "v: Should be <= 20, but received 30")]),
    ("numenum(25)", [("enum", "v: 25 is not one of [1, 2, 30]"),
                     ("max", "v: Should be <= 20, but received 25")]),
    ("str(x)", [("wrong-kind", "v: expected a string, received x")]),
    ('str("a")', [("enum", 'v: "a" is not one of ["ab", "abc", "ABCDE"]'),
                  ("min", 'v: length should be >= 2, but received "a"')]),
    ('str("ABCDE")', [("max", 'v: length should be <= 4, but received "ABCDE"'),
                      ("pattern", "v: should match '[a-z]+', but received \"ABCDE\"")]),
    ('str("aB")', [("enum", 'v: "aB" is not one of ["ab", "abc", "ABCDE"]'),
                   ("pattern", "v: should match '[a-z]+', but received \"aB\"")]),
    ('alpha("ab")', [("wrong-kind", 'v: expected an alphanumeric constant, received "ab"')]),
    ("alpha(b)", [("enum", "v: b is not one of [ab, abc, bcd]"),
                  ("min", "v: length should be >= 2, but received b"),
                  ("pattern", "v: should match 'a.*', but received b")]),
    ("alpha(abcd)", [("enum", "v: abcd is not one of [ab, abc, bcd]"),
                     ("max", "v: length should be <= 3, but received abcd")]),
    ("alpha(bcd)", [("pattern", "v: should match 'a.*', but received bcd")]),
    ("alpha(abc)", []),
    ('any(f((1,"s")))', []),
    # Kinds of every field come before any facet; having waits for all kinds.
    ("pair(x,9,3)", [("wrong-kind", "a: expected an integer, received x"),
                     ("wrong-kind", "c: expected a string, received 3"),
                     ("max", "b: Should be <= 5, but received 9")]),
    ('pair(7,6,"s")', [("max", "b: Should be <= 5, but received 6"),
                       ("having", "Expected a < b")]),
    ('pair(0,3,"s")', [("hook-fail", "a is zero")]),
    # A facet failure blocks neither having nor after_init.
    ('pair(0,9,"s")', [("max", "b: Should be <= 5, but received 9"),
                       ("hook-fail", "a is zero")]),
    ('cmp(1,"x")', [("eval-error", "having a < b: cannot compare int with str")]),
    # A nested value reports its first problem: kind, then facets, field by
    # field, then having, then after_init.
    ("event(date(5,3),ab)", []),
    ("event(date(0,13),x)", [("min", "y: Should be >= 1, but received 0")]),
    ("event(date(a,13),7)", [
        ("wrong-kind", "y: expected an integer, received a"),
        ("wrong-kind", "name: expected an alphanumeric constant, received 7")]),
    ("event(date(5),x)", [("wrong-arity", "date is expected to have arity 2,"
                                          " but 1 arguments are found")]),
    ("event(dat(5,3),x)", [("wrong-kind", "when: expected an instance of date,"
                                          " received dat(5,3)")]),
    ("event(date(3,5),x)", [("having", "Expected y > m")]),
    ("event(date(99,5),x)", [("hook-fail", "no 99")]),
    ("wrap(7)", [("max", "n: Should be <= 5, but received 7")]),
]


@pytest.mark.parametrize("text, expected", _MESSAGES, ids=[row[0] for row in _MESSAGES])
def test_instance_messages_and_check_order(text, expected):
    fact = parse_facts(text + ".")[0]
    definition = _TABLE_SPEC.definitions[fact.predicate]
    direct = check_instance(definition, fact, AccumulatorStore(_TABLE_SPEC))
    assert [(d.rule, d.message) for d in direct] == expected
    assert {(d.phase, d.symbol, d.instance, d.arity) for d in direct} <= {
        ("instance", fact.predicate, text.replace(" ", ""), definition.arity)}
    report = run(_TABLE_SPEC, [fact], RunOptions(fail_fast=False))
    assert report.diagnostics == direct


def test_wrong_arity_message():
    diags = check_instance(_TABLE_SPEC.definitions["num"], Fact("num", (Number(1), Number(2))),
                           AccumulatorStore(_TABLE_SPEC))
    assert [(d.rule, d.message) for d in diags] == [
        ("wrong-arity", "num is expected to have arity 1, but 2 arguments are found")]


def test_checks_are_built_once_per_run(monkeypatch):
    built = []
    compile_ = engine._compile
    monkeypatch.setattr(engine, "_compile",
                        lambda definition, store: built.append(definition.symbol)
                        or compile_(definition, store))
    facts = parse_facts(" ".join(text + "." for text, _ in _MESSAGES))
    once = Counter({fact.predicate for fact in facts} | {"date", "unary"})
    run(_TABLE_SPEC, facts, RunOptions(fail_fast=False))
    assert Counter(built) == once
    store = AccumulatorStore(_TABLE_SPEC)
    for fact in facts + facts:
        check_instance(_TABLE_SPEC.definitions[fact.predicate], fact, store)
    assert Counter(built) == once + once


# Order-free specs: no after_init is reachable and nothing is snapshotted, so
# instances are checked in arrival order and only the failing ones sorted.
_ORDER_FREE_SPECS = {
    "income": (load_fixture("income.yaml"), {"income": "sn"}),
    "facets": (load_spec("""
q:
    name: {type: String, min: 2, max: 4, pattern: '[a-z]+'}
    tag: {type: Alpha, enum: [lo, hi, mid]}
    a: {type: Integer, min: 0, max: 9}
    b: Integer
    valasp:
        having: [a < b]
"""), {"q": "sann"}),
    "nested": (load_spec("""
point:
    x: {type: Integer, min: 0, max: 5}
    y: {type: Integer, min: 0, max: 5}
    valasp:
        having: [x <= y]
seg:
    id: Integer
    from: point
    to: point
"""), {"point": "nn", "seg": "npp"}),
}
_wrong_kind = st.sampled_from([Const("a"), Str("A"), Number(1), Func("f", (Number(1),))])
_small = st.integers(-2, 11).map(Number)
_ARGS = {
    "n": st.one_of(_small, _small, _wrong_kind),
    "s": st.one_of(st.sampled_from(["", "a", "ab", "abc", "abcde", "aB"]).map(Str),
                   _wrong_kind),
    "a": st.one_of(st.sampled_from(["lo", "hi", "mid", "x"]).map(Const), _wrong_kind),
    # A point, one of the wrong arity or name, or some other term.
    "p": st.one_of(st.builds(lambda x, y: Func("point", (x, y)), _small, _small),
                   st.builds(lambda x: Func("point", (x,)), _small),
                   st.builds(lambda x, y: Func("pt", (x, y)), _small, _small),
                   _wrong_kind),
}


def _facts_of(shapes):
    return st.lists(st.sampled_from(sorted(shapes)).flatmap(
        lambda pred: st.tuples(*(_ARGS[kind] for kind in shapes[pred])).map(
            lambda args: Fact(pred, args))), max_size=30)


@pytest.mark.parametrize("name", sorted(_ORDER_FREE_SPECS))
@given(data=st.data())
@settings(max_examples=100)
def test_order_free_symbols_report_in_term_order(name, data):
    spec, shapes = _ORDER_FREE_SPECS[name]
    facts = data.draw(_facts_of(shapes))
    store = AccumulatorStore(spec)
    assert all(store.checks(d).order_free for d in spec.definitions.values())

    all_errors = run(spec, facts, RunOptions(fail_fast=False)).diagnostics
    terms = {render(fact.term()): fact.term() for fact in facts}
    for left, right in zip(all_errors, all_errors[1:]):
        if left.phase == right.phase == "instance" and left.symbol == right.symbol:
            assert compare_terms(terms[left.instance], terms[right.instance]) <= 0
    assert run(spec, facts, RunOptions(fail_fast=True)).diagnostics == all_errors[:1]

    # Any arrival order, of the input or of a symbol's atoms, reports alike.
    rng = data.draw(st.randoms(use_true_random=False))
    grouped = engine._grouped_instances

    def shuffled_groups(spec, atoms):
        for symbol, group in grouped(spec, atoms):
            yield symbol, rng.sample(group, len(group))

    with mock.patch.object(engine, "_grouped_instances", shuffled_groups):
        for _ in range(3):
            shuffled = rng.sample(facts, len(facts))
            assert run(spec, shuffled, RunOptions(fail_fast=False)).diagnostics == all_errors
            assert run(spec, shuffled).diagnostics == all_errors[:1]


# item's after_init sees the order of the box instances (box(N) wraps
# item N), and mark's after_grounding reads self, so it sweeps the snapshots
# in checking order.  Both keep term order, whatever the input order.
_GUARD_SPEC = load_spec("""
item:
    n: {type: Integer, min: 1, max: 9}
    valasp:
        before_grounding: |+
            cls.last = 0
            cls.order = 0
        after_init: |+
            if self.n < cls.last: fail('{self.n} after {cls.last}')
            cls.last = self.n
            cls.order = cls.order * 10 + self.n
box:
    it: item
    valasp:
        after_grounding: |+
            fail('seen {cls.order}')
mark:
    v: {type: Integer, max: 50}
    valasp:
        after_grounding: |+
            if self.v % 2 == 1: fail('odd {self.v}')
""")
_GUARD_FACTS = parse_facts(" ".join(f"box({n}). mark({n})." for n in range(1, 13))
                           + " box(a). mark(52).")


def test_an_observable_order_keeps_term_order():
    expected = [
        ("instance", "box", "max", f"n: Should be <= 9, but received {n}", f"box({n})")
        for n in (10, 11, 12)
    ] + [
        ("instance", "box", "wrong-kind", "n: expected an integer, received a", "box(a)"),
        ("instance", "mark", "max", "v: Should be <= 50, but received 52", "mark(52)"),
        ("after", "box", "hook-fail", "seen 123456789", None),
    ] + [("after", "mark", "hook-fail", f"odd {n}", f"mark({n})") for n in (1, 3, 5, 7, 9, 11)]
    rng = random.Random(4)
    for _ in range(20):
        facts = rng.sample(_GUARD_FACTS, len(_GUARD_FACTS))
        report = run(_GUARD_SPEC, facts, RunOptions(fail_fast=False))
        assert [(d.phase, d.symbol, d.rule, d.message, d.instance)
                for d in report.diagnostics] == expected
        assert run(_GUARD_SPEC, facts).diagnostics == report.diagnostics[:1]


# What the run's single stream of diagnostics must keep: fail-fast computes
# nothing after its first diagnostic, and --all-errors stops where a step
# cannot go on.
_BEFORE_FAILS = load_spec("""
valasp:
    asp: |+
        q(X) :- p(X).
p:
    a: Integer
    valasp:
        before_grounding: |+
            fail('not today')
q:
    a: Integer
""")


def test_fail_fast_before_hook_failure_skips_evaluation_and_checks(monkeypatch):
    calls = []
    monkeypatch.setattr(datalog, "evaluate", lambda *args: calls.append("evaluate"))
    monkeypatch.setattr(engine, "check_instance", lambda *args: calls.append("check") or [])
    report = run(_BEFORE_FAILS, parse_facts("p(1)."))
    assert [(d.phase, d.message) for d in report.diagnostics] == [("before", "not today")]
    assert calls == []


@pytest.mark.parametrize("hook, checked", [
    ("        after_init: |+\n            x = 1\n", 3),  # ordered: 1, 3, then 7 fails
    ("", 4),  # order-free: every instance is checked before the failing ones are sorted
])
def test_fail_fast_counts_checked_instances(hook, checked):
    spec = load_spec("p:\n    a: {type: Integer, max: 5}\n"
                     + ("    valasp:\n" + hook if hook else ""))
    report = run(spec, parse_facts("p(9). p(1). p(7). p(3)."))
    assert single(report).instance == "p(7)"
    assert report.stats.instances_checked == {"p": checked}


def test_fail_fast_skips_finalize_after_a_failing_instance(monkeypatch):
    finalized = []
    finalize_ = engine.finalize
    monkeypatch.setattr(engine, "finalize", lambda definition, store:
                        finalized.append(definition.symbol) or finalize_(definition, store))
    spec = load_spec("p:\n    a: {type: Integer, max: 5, count: 9}\nq:\n    b: Integer\n")
    assert single(run(spec, parse_facts("p(1). p(7). q(1)."))).rule == "max"
    assert finalized == []
    run(spec, parse_facts("p(1). q(1)."))
    assert finalized == ["p"]  # its count diagnostic ends the run


@pytest.mark.parametrize("spec_text", [
    # A failing prelude, then a failing before hook and an invalid fact.
    "valasp:\n    script: |+\n        fail('prelude down')\n"
    "p:\n    a: {type: Integer, max: 5}\n    valasp:\n"
    "        before_grounding: |+\n            fail('not today')\n",
    # Rules that do not parse, then an invalid fact.
    "valasp:\n    asp: |+\n        q(X) :- r(Y).\np:\n    a: {type: Integer, max: 5}\n",
])
def test_all_errors_stops_where_the_run_cannot_go_on(spec_text):
    report = run(load_spec(spec_text), parse_facts("p(7)."), RunOptions(fail_fast=False))
    assert single(report).phase == "before"
    assert single(report).rule in ("hook-fail", "asp-syntax")


def test_fail_fast_reports_every_spec_problem():
    spec = parse_spec("p:\n    a: nowhere\n    b: elsewhere\n")
    report = run(spec, parse_facts("p(1,2)."))
    assert [d.rule for d in report.diagnostics] == ["unknown-type", "unknown-type"]
    assert report.stats.instances_checked == {}


# Generated specs: 1-3 definitions whose fields are primitive or refer to a
# later definition, with random facets, an optional having and hooks from a
# fixed list; facts mix valid values with values of the wrong kind or size.
_KIND_VALUES = {
    "Integer": st.integers(-2, 12).map(Number),
    "String": st.sampled_from(["", "a", "ab", "abcd"]).map(Str),
    "Alpha": st.sampled_from(["a", "b", "ab", "abcd"]).map(Const),
}
_GEN_FACETS = {
    "Integer": {"min": st.sampled_from([0, 2]), "max": st.sampled_from([5, 10]),
                "enum": st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
                "sum+": st.sampled_from(["Integer", 8, 30])},
    "String": {"min": st.just(1), "max": st.just(3),
               "enum": st.lists(st.sampled_from(["", "a", "ab"]), min_size=1, unique=True)},
    "Alpha": {"min": st.just(1), "max": st.just(2),
              "enum": st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1, unique=True)},
}
_GEN_COUNT = st.builds(lambda lo, hi: {"min": lo, "max": hi}, st.integers(0, 2), st.integers(2, 5))
_GEN_HOOKS = [
    ("after_init", "if self.f0 == 1: fail('one')"),
    ("after_init", "cls.last = self.f0"),
    ("after_init", "append_snapshot()"),
    ("after_grounding", "if self.f0 == 2: fail('two in {self.f0}')"),
]


@st.composite
def _generated_specs(draw):
    """A spec's YAML text and each definition's field types."""
    names = [f"d{i}" for i in range(draw(st.integers(1, 3)))]
    doc, shapes = {}, {}
    for i, name in enumerate(names):
        fields, types = {}, []
        for k in range(draw(st.integers(1, 3))):
            ftype = draw(st.sampled_from(["Integer", "String", "Alpha", "Any", *names[i + 1:]]))
            entry = {"type": ftype}
            for facet, values in _GEN_FACETS.get(ftype, {}).items():
                if draw(st.booleans()):
                    entry[facet] = draw(values)
            if draw(st.integers(0, 3)) == 0:
                entry["count"] = draw(_GEN_COUNT)
            fields[f"f{k}"] = entry
            types.append(ftype)
        block = {}
        if len(types) > 1 and draw(st.booleans()):
            block["having"] = [f"f0 {draw(st.sampled_from(['<', '<=', '!=']))} f1"]
        for key, line in draw(st.lists(st.sampled_from(_GEN_HOOKS), max_size=3, unique=True)):
            block[key] = block.get(key, "") + line + "\n"
        if block:
            fields["valasp"] = block
        doc[name], shapes[name] = fields, types
    return yaml.safe_dump(doc, sort_keys=False), shapes


def _generated_value(ftype, shapes):
    if ftype in _KIND_VALUES:
        return st.one_of(_KIND_VALUES[ftype], _KIND_VALUES[ftype], _wrong_kind)
    if ftype == "Any":
        return st.one_of(*_KIND_VALUES.values(), _wrong_kind)
    args = st.tuples(*(_generated_value(t, shapes) for t in shapes[ftype]))
    nested = args.map(lambda a: a[0]) if len(shapes[ftype]) == 1 else args.map(
        lambda a: Func(ftype, a))
    return st.one_of(nested, nested, _wrong_kind)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fail_fast_is_the_first_of_all_errors_over_generated_specs(data):
    text, shapes = data.draw(_generated_specs())
    spec = load_spec(text)
    facts = data.draw(st.lists(st.sampled_from(sorted(shapes)).flatmap(
        lambda name: st.tuples(*(_generated_value(t, shapes) for t in shapes[name])).map(
            lambda args: Fact(name, args))), max_size=10))
    everything = run(spec, facts, RunOptions(fail_fast=False))
    first = run(spec, facts, RunOptions(fail_fast=True))
    assert first.diagnostics == everything.diagnostics[:1]
    for symbol, count in first.stats.instances_checked.items():
        assert count <= everything.stats.instances_checked[symbol]


# The column pre-check of a pure-facet symbol (order-free, no having, only
# primitive fields) passes exactly when the row loop reports nothing, and
# then accumulates what the row loop would.
def _pure_symbols(spec):
    store = AccumulatorStore(spec)
    return [d for _, d in sorted(spec.definitions.items()) if store.checks(d).columns]


_PURE_SPECS = {path.name: load_fixture(path.name) for path in sorted(FIXTURES.glob("*.yaml"))}
_PURE_SPECS["patterns"] = load_spec("""
p:
    name: {type: String, min: 1, max: 2, pattern: 'a*b?'}
    tag: {type: Alpha, max: 2, pattern: '[a-z]b+', enum: [ab, bb, abb, ba, b]}
q:
    n: {type: Integer, min: -1, max: 3, enum: [1, 2, 3, -1, 4, -2], sum+: 5, sum-: Integer}
    any: Any
""")
_PURE_CASES = [(name, d.symbol) for name, spec in _PURE_SPECS.items()
               for d in _pure_symbols(spec)]


def _field_value(fld):
    """A term _generated_value draws for the field's type, or one likelier to
    pass: an enum value, a neighbour of an integer bound, or a short string
    or constant over a and b."""
    facets = fld.facets
    likely = [st.sampled_from(facets.enum_values)] if facets.enum_values else []
    if fld.type is PrimitiveType.INTEGER:
        edges = [bound + d for bound in (facets.min, facets.max) if bound is not None
                 for d in (-1, 0, 1)]
        likely += [st.sampled_from(edges).map(Number)] if edges else []
    elif fld.type is PrimitiveType.STRING:
        likely.append(st.text("ab", max_size=3).map(Str))
    elif fld.type is PrimitiveType.ALPHA:
        likely.append(st.text("ab", min_size=1, max_size=3).map(Const))
    return st.one_of(_generated_value(fld.type.value, {}), *likely, *likely)


def _assert_precheck_is_the_row_loop(spec, definition, group):
    store = AccumulatorStore(spec)
    sums = store.checks(definition).columns(group)
    assert (store.counts, store.sums_pos, store.sums_neg) == ({}, {}, {})
    problems = [d for fact in group for d in check_instance(definition, fact, store)]
    assert (sums is not None) == (not problems)
    if sums is not None:
        assert {key: pos for key, pos, _ in sums if pos} == store.sums_pos
        assert {key: neg for key, _, neg in sums if neg} == store.sums_neg


def _draw_group(data, spec, definition):
    """1-6 facts of definition; half the time the first and only those
    others that are valid one by one, so that a single failing check shows."""
    args = st.tuples(*(_field_value(f) for f in definition.fields))
    group = data.draw(st.lists(args.map(lambda a: Fact(definition.symbol, a)),
                               min_size=1, max_size=6))
    if data.draw(st.booleans()):
        group[1:] = [f for f in group[1:]
                     if not check_instance(definition, f, AccumulatorStore(spec))]
    return group


def test_fixtures_have_pure_facet_symbols():
    assert len(_PURE_CASES) >= 8
    assert ("income.yaml", "income") in _PURE_CASES


@pytest.mark.parametrize("name, symbol", _PURE_CASES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_precheck_passes_exactly_when_the_row_loop_reports_nothing(name, symbol, data):
    spec = _PURE_SPECS[name]
    definition = spec.definitions[symbol]
    _assert_precheck_is_the_row_loop(spec, definition, _draw_group(data, spec, definition))


# Valid facts, then one that fails a single check: kind, min, max, pattern
# or enum, for a string, a constant and an integer.
@pytest.mark.parametrize("bad", [
    'p(a,ab)', 'p("",ab)', 'p("aab",ab)', 'p("ba",ab)',
    'p("a","ab")', 'p("a",abb)', 'p("a",ba)', 'p("a",cb)',
    'q("1",a)', 'q(-2,a)', 'q(4,a)', 'q(0,a)',
])
def test_precheck_fails_when_one_check_fails(bad):
    spec = _PURE_SPECS["patterns"]
    definition = spec.definitions[bad[0]]
    valid = parse_facts('p("a",ab). p("ab",bb). q(1,a). q(-1,f(1)). q(3,"s").')
    group = [f for f in valid if f.predicate == bad[0]] + parse_facts(bad + ".")
    assert AccumulatorStore(spec).checks(definition).columns(group[:-1]) is not None
    assert AccumulatorStore(spec).checks(definition).columns(group) is None
    _assert_precheck_is_the_row_loop(spec, definition, group)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_precheck_matches_the_row_loop_over_generated_specs(data):
    spec = load_spec(data.draw(_generated_specs())[0])
    for definition in _pure_symbols(spec):
        _assert_precheck_is_the_row_loop(spec, definition, _draw_group(data, spec, definition))


@pytest.mark.parametrize("spec_text, calls", [
    ("p:\n    a: {type: Integer, max: 5, sum+: Integer}\n    b: Integer\n", 0),
    ("p:\n    a: Integer\n    b: Integer\n    valasp:\n"
     "        after_grounding: |+\n            x = 1\n", 0),
    ("p:\n    a: Integer\n    b: Integer\n    valasp:\n        having: [a < b]\n", 3),
    ("p:\n    a: q\n    b: Integer\nq:\n    x: Integer\n", 3),
    ("p:\n    a: Integer\n    b: Integer\n    valasp:\n"
     "        after_init: |+\n            x = 1\n", 3),
    ("p:\n    a: Integer\n    b: Integer\n    valasp:\n"
     "        after_init: |+\n            # later\n", 0),
])
def test_only_impure_symbols_are_checked_row_by_row(monkeypatch, spec_text, calls):
    seen = []
    check = engine.check_instance
    monkeypatch.setattr(engine, "check_instance",
                        lambda *args: seen.append(args[1]) or check(*args))
    report = run(load_spec(spec_text), parse_facts("p(1,2). p(2,3). p(3,4)."))
    assert report.verdict == "valid"
    assert report.stats.instances_checked == {"p": 3}
    assert len(seen) == calls


@pytest.mark.parametrize("fail_fast", [True, False])
def test_one_bad_fact_among_valid_ones_reports_as_the_row_loop(monkeypatch, fail_fast):
    facts = parse_facts(" ".join(f'income("c{i}",{i}).' for i in range(1000))
                        + ' income("bad",-5).')
    spec = load_fixture("income.yaml")
    outcomes = []
    for columns in (engine._compile_columns, lambda symbol, compiled: None):
        stores = []
        monkeypatch.setattr(engine, "_compile_columns", columns)
        monkeypatch.setattr(engine, "AccumulatorStore",
                            lambda spec: stores.append(AccumulatorStore(spec)) or stores[-1])
        report = run(spec, facts, RunOptions(fail_fast=fail_fast))
        outcomes.append((report.diagnostics, report.stats.instances_checked,
                         stores[0].sums_pos, stores[0].sums_neg))
    assert outcomes[0] == outcomes[1]
    diagnostics, checked, sums_pos, sums_neg = outcomes[0]
    assert [(d.rule, d.instance) for d in diagnostics] == [("min", 'income("bad",-5)')]
    assert checked == {"income": 1001}
    assert (sums_pos, sums_neg) == ({("income", "amount"): sum(range(1000))}, {})


# The knight spec with its coordinates as a nested user type: the snapshot
# of a coord is taken while a move is checked.
_NESTED_KNIGHT = """
size:
    value:
        type: Integer
        min: 6
        max: 100
        count: 1
    valasp:
        after_init: |+
            cls.board_size = self.value
coord:
    value:
        type: Integer
        min: 1
    valasp:
        after_init: |+
            append_snapshot()
        after_grounding: |+
            if self.value > cls.board_size:
                fail('Value out of bound: {self.value}')
move:
    x1: coord
    y1: coord
    x2: coord
    y2: coord
"""


@pytest.mark.parametrize("spec_name", ["knight.yaml", "solitaire.yaml", "nested knight"])
@pytest.mark.parametrize("fail_fast", [True, False])
def test_snapshot_only_after_init_matches_running_the_script(monkeypatch, spec_name, fail_fast):
    text = _NESTED_KNIGHT if spec_name == "nested knight" else fixture_text(spec_name)
    parse = hooks.parse_script
    outcomes = {}
    for honoured in (True, False):
        monkeypatch.setattr(hooks, "parse_script", parse if honoured else lambda text:
                            dataclasses.replace(parse(text), snapshot_only=False))
        spec = load_spec(text)
        direct = [s for s, d in spec.definitions.items() if d.after_init and d.after_init.snapshot_only]
        assert direct == ([] if not honoured or spec_name == "solitaire.yaml"
                          else ["coord"] if spec_name == "nested knight" else ["__in_range"])
        rng = random.Random(f"{spec_name}:{fail_fast}")
        for _ in range(40):
            stores = []
            monkeypatch.setattr(engine, "AccumulatorStore",
                                lambda spec: stores.append(AccumulatorStore(spec)) or stores[-1])
            report = run(spec, random_facts(rng, spec, rng.randint(1, 30)),
                         RunOptions(fail_fast=fail_fast))
            outcomes.setdefault(honoured, []).append(
                (report.diagnostics, report.stats.instances_checked, stores[0].snapshots))
    assert outcomes[True] == outcomes[False]
    assert any(diagnostics for diagnostics, _, _ in outcomes[True])


# ---------------------------------------------------------------------------
# The cyclic garbage collector is paused while a run builds its objects


@pytest.fixture
def gc_enabled():
    """Run with automatic collection on, as a default interpreter does."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def _collections_started(fn, *args):
    """The generations of the collections that start while fn's own body runs.

    One may start as fn returns, once the collector is on again; it is not
    counted, as the frame of fn's body is gone by then.
    """
    body = inspect.unwrap(fn).__code__
    started = []

    def record(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not body:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        result = fn(*args)
    finally:
        gc.callbacks.remove(record)
    return started, result


def test_no_collection_runs_while_facts_are_parsed_or_checked(gc_enabled):
    text = "".join(f'income("c{i}",{i}).\n' for i in range(20000))
    started, facts = _collections_started(parse_facts, text)
    assert (started, len(facts)) == ([], 20000)
    spec = load_fixture("income.yaml")
    started, report = _collections_started(run, spec, facts)
    assert (started, report.verdict) == ([], "valid")
    assert gc.isenabled()


def test_no_collection_runs_while_the_cli_validates(gc_enabled, tmp_path, capsys):
    facts = tmp_path / "income.lp"
    facts.write_text("".join(f'income("c{i}",{i}).\n' for i in range(20000)))
    started, code = _collections_started(
        cli.main, ["validate", str(FIXTURES / "income.yaml"), str(facts)])
    assert (started, code, capsys.readouterr().out) == ([], 0, "valid\n")
    assert gc.isenabled()


def _raises(error, call):
    def expect():
        with pytest.raises(error):
            call()
    return expect


def _broken_facts():
    yield Fact("income", (Str("a"), Number(1)))
    raise RuntimeError("input ended early")


_DIVIDE = parse_program("q(Y) :- p(X), Y = 7 / X.")
_GC_PAUSED_CALLS = {
    "parse_facts": lambda: parse_facts('income("a",1).'),
    "parse_program": lambda: parse_program("q(X) :- p(X)."),
    "evaluate": lambda: datalog.evaluate(_DIVIDE, [Fact("p", (Number(1),))]),
    "run": lambda: run(load_fixture("income.yaml"), [Fact("income", (Str("a"), Number(1)))]),
    "parse_facts raising ParseError": _raises(ParseError, lambda: parse_facts("p(")),
    "parse_program raising UnsafeRuleError":
        _raises(datalog.UnsafeRuleError, lambda: parse_program("q(X) :- p(Y).")),
    "evaluate raising EvaluationError": _raises(
        datalog.EvaluationError,
        lambda: datalog.evaluate(_DIVIDE, [Fact("p", (Number(0),))])),
    "run raising from its input": _raises(
        RuntimeError, lambda: run(load_fixture("income.yaml"), _broken_facts())),
}


def _cli(argv, stdin, code):
    def call():
        with mock.patch("sys.stdin", io.StringIO(stdin)):
            assert cli.main(argv) == code
    return call


_INCOME = str(FIXTURES / "income.yaml")


def _cli_internal_error():
    with mock.patch.object(engine, "run", side_effect=RuntimeError("boom")):
        _cli(["validate", _INCOME, "-"], 'income("a",1).', 4)()


_GC_PAUSED_CALLS.update({
    "cli.main exit 0": _cli(["validate", _INCOME, "-"], 'income("a",1).', 0),
    "cli.main exit 1": _cli(["validate", _INCOME, "-"], 'income("a",-1).', 1),
    "cli.main spec error": _cli(["validate", "-"], "p:\n    a: nowhere\n", 2),
    "cli.main missing file": _cli(["check", str(FIXTURES / "absent.yaml")], "", 3),
    "cli.main internal error": _cli_internal_error,
})


@pytest.mark.parametrize("call", sorted(_GC_PAUSED_CALLS))
@pytest.mark.parametrize("enabled", [True, False])
def test_the_callers_collector_state_is_restored(gc_enabled, call, enabled):
    if not enabled:
        gc.disable()
    _GC_PAUSED_CALLS[call]()
    assert gc.isenabled() is enabled


_RELATIONS = "req rp rpi rd rdi ro roi rm rmi rs rsi rf rfi".split()
_ERROR_HEAVY = {
    # The nested date's after_init fails: 29, 30 and 31 February 2001.
    "bday.yaml": lambda n: "".join(f"bday(p{i},date(2001,2,{29 + i % 3})).\n"
                                   for i in range(n)),
    # having x < y fails on about half the rows, enum on a third of them.
    "qsr.yaml": lambda n: "".join(
        f"label({i % 50},{i // 50 % 50},{_RELATIONS[i % 13] if i % 3 else f'bad{i}'}).\n"
        for i in range(n)),
    # after_init fails: 175 is not divisible by 50.
    "video.yaml": lambda n: "".join(f'user({i},"Video",720,100,1,175).\n' for i in range(n)),
    # min fails on the odd moves; after_grounding finds 9 and every row
    # past 8 off the board.
    "knight.yaml": lambda n: "size(8).\n" + "".join(
        f"givenmove({i % 8 + 1},{i // 8 % 8 + 1},{0 if i % 2 else 9},{i // 64 + 1}).\n"
        for i in range(n)),
}


@pytest.mark.parametrize("spec_name", sorted(_ERROR_HEAVY))
def test_a_failing_run_leaves_no_cycles_that_grow_with_its_input(spec_name):
    """What makes pausing the collector safe: whatever cyclic garbage a run
    leaves is the same at 200 and at 4000 instances, so a run that stored an
    exception or a closure per instance would fail here."""
    spec = load_fixture(spec_name)
    found = {}
    for n in (200, 4000):
        facts = parse_facts(_ERROR_HEAVY[spec_name](n))
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            diagnostics = len(run(spec, facts, RunOptions(fail_fast=False)).diagnostics)
            found[n] = gc.collect()
        finally:
            if was:
                gc.enable()
        assert diagnostics >= n * 2 // 3
    assert found[200] == found[4000]
