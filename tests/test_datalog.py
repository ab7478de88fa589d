"""Rule engine: parsing, safety, stratification, evaluation, aggregates."""

import builtins
import dataclasses
import io
import itertools
import keyword
import random
import re
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcheck import datalog
from aspcheck.datalog import (
    EvaluationError,
    UnsafeRuleError,
    UnstratifiedError,
    evaluate,
    parse_program,
    stratify,
)
from aspcheck.terms import Const, Fact, Func, Number, ParseError, Str, Tuple, parse_facts, render

import _support
from _support import (
    GenProgram,
    GenRule,
    bfs_connected,
    generate_program,
    load_fixture,
    model_as_tuples,
    naive_fixpoint,
    reachable_pairs,
    relation_lists,
    render_program,
    stratify_oracle,
)

SOLITAIRE_BOARD = """
range(1).
range(X+1) :- range(X), X < 7.
location(1,X) :- range(X), 3 <= X, X <= 5.
location(2,X) :- range(X), 3 <= X, X <= 5.
location(Y,X) :- range(Y), 3 <= Y, Y <= 5, range(X).
location(6,X) :- range(X), 3 <= X, X <= 5.
location(7,X) :- range(X), 3 <= X, X <= 5.
"""

POSET_RULES = """
element(X) :- r(X,Y).
element(Y) :- r(X,Y).
lost("reflexivity", X) :- element(X), not r(X,X).
lost("symmetry", (X,Y)) :- r(X,Y), not r(Y,X).
lost("transitivity", (X,Y,Z)) :- r(X,Y), r(Y,Z), not r(X,Z).
"""

CONNECTED_RULES = """
connected(FIRST) :- FIRST = #min{X : node(X)}.
connected(Y) :- connected(X), edge(X,Y).
unconnected(X) :- node(X), not connected(X).
"""


def preds(model, name):
    return sorted(render(f.term()) for f in model if f.predicate == name)


class TestParsing:
    def test_budget_rule_with_primed_variable(self):
        program = parse_program(
            "residual_budget(B-B',R) :- init_budget(R,B), budget_spent(R,B').")
        assert len(program.rules) == 1
        assert program.rules[0].head.pred == "residual_budget"

    def test_negation_and_tuple_head(self):
        program = parse_program('lost("symmetry", (X,Y)) :- r(X,Y), not r(Y,X).')
        assert len(program.rules) == 1

    def test_unsafe_rule_names_the_variable(self):
        with pytest.raises(UnsafeRuleError, match="X"):
            parse_program("p(X) :- q(Y).")

    def test_unsafe_fact_with_variable(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X).")

    def test_unsafe_negation_only_binding(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X) :- not q(X).")

    @pytest.mark.parametrize("rule", [
        "p(_).", "p(_) :- q(X).", "p(_) :- p(1).", "p(f(_),1) :- q(1).",
        # Only a body literal that binds it makes an anonymous variable safe.
        "r(X) :- q(X), not s(_).",
    ])
    def test_unsafe_anonymous_variable_is_shown_as_underscore(self, rule):
        with pytest.raises(UnsafeRuleError) as exc:
            parse_program(rule)
        assert exc.value.variable == "_"
        assert str(exc.value) == f"unsafe variable _ in rule: {rule}"

    def test_disjunction_rejected(self):
        with pytest.raises(ParseError, match="disjunctive"):
            parse_program("a(1) | b(1) :- c(1).")

    def test_choice_rejected(self):
        with pytest.raises(ParseError, match="choice"):
            parse_program("{a(1)} :- b(1).")

    def test_constraint_parses_to_nothing(self):
        program = parse_program(":- p(X).")
        assert (program.rules, program.facts) == ([], relation_lists([]))

    def test_constraints_and_at_terms_are_read(self):
        body = "range(X1), @valasp_validate_range(X1) != 1"
        program = parse_program(f":- {body}.\n:- not q(Y), #count{{Z : r(Z)}} > @g().")
        assert (program.rules, program.facts) == ([], relation_lists([]))
        [rule] = parse_program(f"bad(X1) :- {body}.").rules
        assert rule.atoms == (("range", 1),)  # planned like any rule

    @pytest.mark.parametrize("text, message", [
        (":- p(X)", "'.' terminating the rule"),
        (":- .", "a term"),
        (":- p(1..3).", "intervals"),
        (":- p(X) | q(X).", "'.' terminating the rule"),
        ("p(X) :- q(X), X = @f.", "'(' after the interpreted term name"),
        ("p(X) :- q(X), X = @(1).", "a name after '@'"),
        (":- #count{X: p(X), not q(X)} > 1.",
         "negation in an aggregate condition is not supported"),
        ("n(N) :- N = #count{X: p(X), not}.",
         "negation in an aggregate condition is not supported"),
        ("n(N) :- N = #count{X: not p(X)}.",
         "negation in an aggregate condition is not supported"),
    ])
    def test_constraint_and_at_term_syntax_is_checked(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_program(text)

    @pytest.mark.parametrize("depth", [100, 101, 5000])
    def test_at_terms_nest_at_most_100_deep(self, depth):
        text = ":- p(X), X = " + "@f(" * depth + "1" + ")" * depth + "."
        if depth <= 100:
            assert parse_program(text).rules == []
            return
        with pytest.raises(ParseError, match="terms nested more than 100 levels deep"):
            parse_program(text)

    def test_interval_rejected_in_body(self):
        with pytest.raises(ParseError, match="intervals"):
            parse_program("p(X) :- q(1..3), r(X).")

    def test_anonymous_variables_are_fresh(self):
        program = parse_program("p(X) :- q(X,_,_).")
        model = evaluate(program, parse_facts("q(1,2,3). q(1,9,9)."))
        assert preds(model, "p") == ["p(1)"]

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p(1).\nq(X) :- p(X), .")
        assert exc.value.line == 2

    @pytest.mark.parametrize("signs, value", [(5000, 3), (5001, -3)])
    def test_long_run_of_unary_minus_folds(self, signs, value):
        program = parse_program("p(" + "-" * signs + "3).")
        assert program.facts == relation_lists([Fact("p", (Number(value),))])

    @pytest.mark.parametrize("arith", [
        "-" * 100 + "X",
        "X" + "+1" * 100,
        "(" * 50 + "X" + "*2+1)" * 50,  # two levels per parenthesis
        "f(" * 50 + "X" + "+1)" * 50 + "+1" * 50,  # counted through f(...)
    ])
    def test_arithmetic_at_the_nesting_limit(self, arith):
        program = parse_program(f"q(1). p(Y) :- q(X), Y = {arith}.")
        assert len(program.rules) == 1

    @pytest.mark.parametrize("arith", [
        "-" * 101 + "X",
        "X" + "+1" * 101,
        "(" * 50 + "X" + "*2+1)" * 50 + "+1",
        "f(" * 50 + "X" + "+1)" * 50 + "+1" * 51,
        "-" * 5000 + "X",
        "X" + "+1" * 5000,
    ])
    def test_arithmetic_beyond_the_nesting_limit(self, arith):
        with pytest.raises(ParseError,
                           match="arithmetic nested more than 100 levels deep") as exc:
            parse_program(f"q(1).\np(Y) :- q(X), Y = {arith}.")
        assert (exc.value.line, exc.value.column) == (2, 19)

    @pytest.mark.parametrize("text, line, column", [
        ("% c\np(1).\nq(X) :- .\n", 3, 9),
        ("p(1).\n  r(X) :- s(X), X ! 2.\n", 2, 19),
        ("p(1)\n", 2, 1),
        ('p(1).\nq("a\\tb").', 2, 5),
        ("p(1).\nn(N) :- N = #count{X: p(X), not q(X)}.", 2, 29),
        ("p(1).\nn(N) :- N = #count{X: p(X), not}.", 2, 29),
    ])
    def test_syntax_error_line_and_column(self, text, line, column):
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).endswith(f"(line {line}, column {column})")


class TestFacts:
    def test_ground_bodyless_rules_are_facts(self):
        program = parse_program('p(1). q(f(a),(1,"s")). t(2+3).\n'
                                "r(X) :- p(X). s(1..3).")
        assert program.facts == relation_lists([
            Fact("p", (Number(1),)),
            Fact("q", (Func("f", (Const("a"),)), Tuple((Number(1), Str("s"))))),
            Fact("t", (Number(5),))])
        assert [r.head.pred for r in program.rules] == ["r", "s"]
        assert program.rules[1].body == ()

    def test_parse_splits_facts_around_constraints(self):
        program = parse_program("p(1).\n:- p(X), @f(X) != 1.\nq(2). r(X) :- q(X).")
        assert program.facts == relation_lists([Fact("p", (Number(1),)), Fact("q", (Number(2),))])
        assert [rule.source for rule in program.rules] == ["r(X) :- q(X)."]

    def test_interval_rule_feeds_later_rules(self):
        program = parse_program("q(X) :- r(X), X > 1. r(1..3).")
        assert preds(evaluate(program, []), "q") == ["q(2)", "q(3)"]

    @pytest.mark.parametrize("text, line, column, message", [
        ("p(a..b).", 1, 3, "interval bounds must be integers"),
        ('q(1).\n  p(1..f("x")).', 2, 5, "interval bounds must be integers"),
        ("q(1).\np(1/0).", 2, 4, "division by zero"),
        ("p(f(2 / (1-1))).", 1, 7, "division by zero"),
    ])
    def test_bad_constants_in_facts_are_syntax_errors(self, text, line, column,
                                                       message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("rule", ["q(Y) :- p(X), Y = X/0.", "q(1/0) :- p(1)."])
    def test_division_by_zero_in_rules_is_reported_at_evaluation(self, rule):
        program = parse_program(rule)
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate(program, parse_facts("p(1)."))


class TestStratify:
    def test_poset_strata_are_its_components(self):
        assert stratify(parse_program(POSET_RULES)) == [["r"], ["element"], ["lost"]]

    def test_self_negation_rejected(self):
        with pytest.raises(UnstratifiedError, match="p"):
            parse_program("p :- not p.")

    @pytest.mark.parametrize("text, cycle", [
        # Dependencies run from body to head: a -> c (negated), c -> b, b -> a.
        ("a(1) :- b(1). b(1) :- c(1). c(1) :- not a(1).", ["a", "c", "b"]),
        ("a(1) :- not b(1). b(1) :- a(1).", ["a", "b"]),
        # The component is {a, b, c, d}; the shortest cycle through the
        # negated edge a -> c leaves d out.
        ("a :- b. b :- a. b :- c. c :- not a. c :- d. d :- c.", ["a", "c", "b"]),
    ])
    def test_unstratified_cycle_follows_dependency_edges(self, text, cycle):
        with pytest.raises(UnstratifiedError) as info:
            parse_program(text)
        assert info.value.cycle == cycle
        assert str(info.value).endswith(
            "on the cycle: " + " -> ".join(cycle + cycle[:1]))

    def test_negation_cycle_rejected(self):
        with pytest.raises(UnstratifiedError):
            parse_program("a(X) :- c(X), not b(X). b(X) :- c(X), not a(X).")

    def test_aggregate_cycle_rejected(self):
        with pytest.raises(UnstratifiedError):
            parse_program("p(N) :- N = #count{X : p(X)}, q(N).")

    def test_fact_only_program_single_stratum(self):
        # Facts are not rules, so they have no stratum.
        program = parse_program("p(1). q(2).")
        assert stratify(program) == []
        assert preds(evaluate(program, []), "p") == ["p(1)"]
        assert preds(evaluate(program, []), "q") == ["q(2)"]

    def test_positive_recursion_is_fine(self):
        strata = stratify(parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z)."))
        assert strata == [["e"], ["t"]]

    def test_a_predicate_is_a_name_and_an_arity(self):
        # q reads not p/2, which no rule derives, so p/1 depends on it
        # through no cycle.
        program = parse_program("r(1). p(X) :- q(X). q(X) :- r(X), not p(X,X).")
        assert stratify(program) == [["p"], ["r"], ["q"], ["p"]]
        model = evaluate(program, [])
        assert sorted(render(f.term()) for f in model) == ["p(1)", "q(1)", "r(1)"]

    def test_a_cycle_of_one_arity_is_still_rejected(self):
        with pytest.raises(UnstratifiedError) as info:
            parse_program("r(1). p(X) :- q(X). q(X) :- r(X), not p(X).")
        assert str(info.value) == ("program is not stratified; negation or aggregation"
                                   " on the cycle: p -> q -> p")

    def test_a_cycle_through_two_arities_of_a_name_gives_each_arity(self):
        with pytest.raises(UnstratifiedError) as info:
            parse_program("r(1). p(X) :- r(X), not p(X,X). p(X,X) :- p(X).")
        assert info.value.cycle == ["p/1", "p/2"]
        assert str(info.value) == ("program is not stratified; negation or aggregation"
                                   " on the cycle: p/1 -> p/2 -> p/1")


# Rules over 0-ary predicates whose bodies mix plain and negated atoms, so
# both stratified and unstratified programs are drawn.
_zero_ary_rules = st.lists(st.tuples(
    st.sampled_from("abcde"),
    st.lists(st.tuples(st.sampled_from("abcde"), st.booleans()), min_size=1, max_size=3)),
    min_size=1, max_size=8)


@given(_zero_ary_rules)
@settings(max_examples=300)
def test_stratify_matches_relaxation_oracle(rules):
    text = " ".join(f"{head} :- " + ", ".join(("not " if neg else "") + b for b, neg in body)
                    + "." for head, body in rules)
    reach = stratify_oracle(rules)
    if reach is not None:
        strata = stratify(parse_program(text))
        stratum_of = {p: i for i, stratum in enumerate(strata) for p in stratum}
        preds = {p for head, body in rules for p in [head, *(b for b, _ in body)]}
        # Sorted strata that partition exactly the rules' predicates, two of
        # them together when they reach each other.
        assert all(stratum == sorted(stratum) for stratum in strata)
        assert sorted(p for stratum in strata for p in stratum) == sorted(preds)
        for a in preds:
            for b in preds:
                together = a == b or {(a, b), (b, a)} <= reach
                assert (stratum_of[a] == stratum_of[b]) == together, (a, b)
        # Every edge from an earlier or the same stratum, a negated one from an earlier.
        for head, body in rules:
            for b, neg in body:
                assert stratum_of[b] + neg <= stratum_of[head], (b, head)
        return
    with pytest.raises(UnstratifiedError) as info:
        parse_program(text)
    # The cycle it names is made of the program's edges, one of them negated.
    cycle = info.value.cycle
    steps = set(zip(cycle, cycle[1:] + cycle[:1]))
    assert steps <= {(b, head) for head, body in rules for b, _ in body}
    assert steps & {(b, head) for head, body in rules for b, neg in body if neg}


class TestEvaluate:
    @pytest.mark.parametrize("wrap", ["f(X)", "(X,)"])
    def test_derived_terms_nest_at_most_100_deep(self, wrap):
        rules = f"t(a, 0). t({wrap}, M) :- t(X, N), step(N), M = N + 1."
        model = evaluate(parse_program(rules + " step(0..99)."), [])
        deepest = max(f.args[0] for f in model if f.predicate == "t" and f.args[1] == Number(100))
        assert render(deepest).count("(") == 100
        with pytest.raises(EvaluationError, match="derived term nested more than 100 levels"):
            evaluate(parse_program(rules + " step(0..100)."), [])

    def test_model_holds_the_given_argument_tuples(self, monkeypatch):
        program = parse_program("path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
                                " edge(3,4).")
        given = parse_facts("edge(1,2). edge(2,3). path(1,2).")
        made = []  # the reader builds its facts with datalog.Fact too
        monkeypatch.setattr(datalog, "Fact", lambda pred, args: made.append(pred) or Fact(pred, args))
        model = evaluate(program, given)
        assert made == []  # no Fact is built, for a given atom or a derived one
        held = {(pred, args): args for (pred, _), rel in model.relations.items() for args in rel}
        assert program.facts == relation_lists([Fact("edge", (Number(3), Number(4)))])
        assert all(held[pred, args] is args
                   for pred, args in [*(("edge", args) for args in program.facts["edge", 2]),
                                      *((fact.predicate, fact.args) for fact in given)])
        assert preds(model, "path") == [f"path({a},{b})" for a in (1, 2, 3) for b in (2, 3, 4)
                                        if a < b]
        assert made == ["edge"] * 3 + ["path"] * 6  # iteration builds one per atom

    @pytest.mark.parametrize("text, given, derived, adds", [
        ("q(X) :- r(X).", "r(1). r(2). r(3).", 3, 6),
        ("p(1..50).", "", 50, 50),
        ("q(X) :- r(X). s(X,Y) :- r(X), r(Y), X < Y.", "r(1). r(2). r(3).", 3 + 3, 9),
    ])
    def test_only_read_heads_enter_the_delta(self, monkeypatch, text, given, derived, adds):
        # Generated code inserts heads into the relations' dicts itself, so
        # count what every _Relations of the evaluation (the model's and
        # each round's delta) holds at the end.
        made = []

        class Recorded(datalog._Relations):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(datalog, "_Relations", Recorded)
        facts = parse_facts(given)
        assert len(evaluate(parse_program(text), facts)) == len(facts) + derived
        assert made, "no relations were made"
        assert sum(len(rel) for relations in made for rel in relations.tuples.values()) == adds

    def test_solitaire_range_and_board(self):
        model = evaluate(parse_program(SOLITAIRE_BOARD), [])
        assert preds(model, "range") == [f"range({i})" for i in range(1, 8)]
        locations = {
            (f.args[0].value, f.args[1].value)
            for f in model if f.predicate == "location"
        }
        assert len(locations) == 33
        corners = [(y, x) for y in (1, 2, 6, 7) for x in (1, 2, 6, 7)]
        assert not any(c in locations for c in corners)

    def test_poset_valid_relation_derives_no_lost(self):
        good = parse_facts("r(a,b). r(b,a). r(a,a). r(b,b).")
        model = evaluate(parse_program(POSET_RULES), good)
        assert preds(model, "lost") == []

    def test_poset_missing_properties_reported(self):
        model = evaluate(parse_program(POSET_RULES), parse_facts("r(a,b)."))
        lost = preds(model, "lost")
        assert 'lost("reflexivity",a)' in lost
        assert 'lost("symmetry",(a,b))' in lost

    def test_connected_graph_flags_unreachable_node(self):
        facts = parse_facts("node(1). node(2). node(3). edge(1,2). edge(2,1).")
        model = evaluate(parse_program(CONNECTED_RULES), facts)
        assert preds(model, "unconnected") == ["unconnected(3)"]

    def test_min_over_empty_set_binds_nothing(self):
        model = evaluate(parse_program(CONNECTED_RULES), [])
        assert preds(model, "connected") == []
        assert preds(model, "unconnected") == []

    def test_knight_board_rules(self):
        rules = """
        number(X) :- size(X).
        number(X) :- number(Y), X=Y-1, X>0.
        even :- size(N), number(X), N = X+X.
        """
        model = evaluate(parse_program(rules), parse_facts("size(8)."))
        assert preds(model, "number") == sorted(f"number({i})" for i in range(1, 9))
        assert preds(model, "even") == ["even"]
        model7 = evaluate(parse_program(rules), parse_facts("size(7)."))
        assert preds(model7, "even") == []

    def test_interval_fact_expansion(self):
        model = evaluate(parse_program("range(1..7)."), [])
        assert preds(model, "range") == [f"range({i})" for i in range(1, 8)]

    def test_interval_in_head_with_bound_variable(self):
        model = evaluate(parse_program("p(1..N) :- n(N)."), parse_facts("n(3)."))
        assert preds(model, "p") == ["p(1)", "p(2)", "p(3)"]

    def test_arithmetic_in_head_and_comparison(self):
        program = parse_program("residual(B-B',R) :- init(R,B), spent(R,B').")
        model = evaluate(program, parse_facts("init(1,60). spent(1,20)."))
        assert preds(model, "residual") == ["residual(40,1)"]

    def test_division_truncates_toward_zero(self):
        model = evaluate(parse_program("q(X / 2) :- p(X)."), parse_facts("p(-7). p(7)."))
        assert preds(model, "q") == ["q(-3)", "q(3)"]

    def test_count_aggregate(self):
        program = parse_program("total(N) :- N = #count{X : p(X)}.")
        model = evaluate(program, parse_facts("p(a). p(b). p(a)."))
        assert preds(model, "total") == ["total(2)"]

    def test_sum_aggregate_with_pair_elements(self):
        program = parse_program(
            "total(T) :- T = #sum{A,C : income(C,A)}.")
        facts = parse_facts('income("acme",1500000000). income("yoyo",1500000000).')
        model = evaluate(program, facts)
        assert preds(model, "total") == ["total(3000000000)"]

    def test_sum_over_empty_set_is_zero(self):
        model = evaluate(parse_program("total(T) :- T = #sum{X : p(X)}."), [])
        assert preds(model, "total") == ["total(0)"]

    def test_aggregate_in_comparison_guard(self):
        program = parse_program(
            "over(T) :- target(T), #sum{V,I : weight(I,V)} > T.")
        facts = parse_facts("target(10). weight(1,6). weight(2,7).")
        model = evaluate(program, facts)
        assert preds(model, "over") == ["over(10)"]
        under = evaluate(program, parse_facts("target(20). weight(1,6). weight(2,7)."))
        assert preds(under, "over") == []

    def test_max_aggregate(self):
        program = parse_program("top(M) :- M = #max{X : p(X)}.")
        model = evaluate(program, parse_facts("p(3). p(9). p(1)."))
        assert preds(model, "top") == ["top(9)"]

    def test_arithmetic_on_non_number_reports_rule(self):
        program = parse_program("q(X+1) :- p(X).")
        with pytest.raises(EvaluationError) as exc:
            evaluate(program, parse_facts("p(a)."))
        assert "q(X+1) :- p(X)." in str(exc.value)
        assert "X" in str(exc.value)

    def test_input_facts_pass_through(self):
        model = evaluate(parse_program("p(X) :- q(X)."), parse_facts("q(1). r(9)."))
        assert preds(model, "r") == ["r(9)"]
        assert preds(model, "q") == ["q(1)"]

    def test_duplicate_inputs_deduplicate(self):
        model = evaluate(parse_program(""), parse_facts("p(1). p(1)."))
        assert len([f for f in model if f.predicate == "p"]) == 1

    def test_rule_order_does_not_matter(self):
        lines = [line for line in POSET_RULES.strip().splitlines()]
        facts = parse_facts("r(a,b). r(b,c). r(a,a).")
        baseline = evaluate(parse_program("\n".join(lines)), facts)
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(lines)
            assert evaluate(parse_program("\n".join(lines)), facts) == baseline


class TestOracleEquivalence:
    def test_semi_naive_matches_naive_fixpoint(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(40):
            generated = generate_program(rng)
            program = parse_program(render_program(generated))
            model = evaluate(program, [])
            assert model_as_tuples(model) == naive_fixpoint(generated)
            checked += 1
        assert checked == 40

    @staticmethod
    def _random_facts(rng, arities):
        return {(pred, tuple(rng.randint(1, 8) for _ in range(arity)))
                for pred, arity in arities for _ in range(rng.randint(0, 12))}

    def test_second_rule_of_a_head_registers_its_delta(self, monkeypatch):
        # In a round where the f rule derives nothing and the g rule does,
        # the g rule's head block registers the round's path relation.
        rules = [(1, GenRule(("path", ("X", "Y")), [("e", ("X", "Y"))], [])),
                 (1, GenRule(("path", ("X", "Z")), [("path", ("X", "Y")), ("f", ("Y", "Z"))], [])),
                 (1, GenRule(("path", ("X", "Z")), [("path", ("X", "Y")), ("g", ("Y", "Z"))], []))]
        registered = []
        function = datalog._Generator.function

        def recorded(generator):
            derive, rule = function(generator), generator.rule

            def wrapper(relations, out, delta, now):
                before = out is not None and ("path", 2) in out.tuples
                derive(relations, out, delta, now)
                after = out is not None and ("path", 2) in out.tuples
                registered.append((rule.body[-1].pred, before, after))
            return wrapper

        monkeypatch.setattr(datalog._Generator, "function", recorded)
        rng = random.Random(3030)
        for _ in range(40):
            generated = GenProgram(self._random_facts(rng, [("e", 2), ("f", 2), ("g", 2)]), rules)
            model = evaluate(parse_program(render_program(generated)), [])
            assert model_as_tuples(model) == naive_fixpoint(generated)
        assert ("g", False, True) in registered

    def test_two_arities_of_one_name_share_one_delta(self):
        # q/1 and q/2 read each other, so they form one component, and the
        # atoms of both enter each round's delta, each under its own arity.
        rules = [(1, GenRule(("q", ("X",)), [("s", ("X",))], [])),
                 (1, GenRule(("q", ("X", "Z")), [("q", ("X",)), ("e", ("X", "Z"))], [])),
                 (1, GenRule(("q", ("X", "X")), [("q", ("X",))], [])),
                 (1, GenRule(("q", ("X",)), [("q", ("X", "Y")), ("t", ("Y",))], [])),
                 (1, GenRule(("q", ("Y",)), [("q", ("X", "Y")), ("t", ("X",))], []))]
        program = parse_program(render_program(GenProgram(set(), rules)))
        assert stratify(program) == [["e"], ["s"], ["t"], ["q"]]
        rng = random.Random(3131)
        for _ in range(40):
            generated = GenProgram(self._random_facts(rng, [("s", 1), ("t", 1), ("e", 2)]), rules)
            model = evaluate(parse_program(render_program(generated)), [])
            assert model_as_tuples(model) == naive_fixpoint(generated)

    @pytest.mark.parametrize("q2", ["q", "q2"])
    def test_a_rule_reading_another_arity_of_its_head_runs_once(self, monkeypatch, q2):
        # q/1 reads q/2, a predicate of an earlier component, so its
        # component is not recursive: one pass, and no delta round, as when
        # q/2 has a name of its own.
        calls = []
        function = datalog._Generator.function

        def recorded(generator):
            derive, rule = function(generator), generator.rule

            def wrapper(relations, out, delta, now):
                calls.append(rule.source)
                derive(relations, out, delta, now)
            return wrapper

        monkeypatch.setattr(datalog._Generator, "function", recorded)
        model = evaluate(parse_program(f"{q2}(X,Y) :- e(X,Y). q(X) :- {q2}(X,Y)."),
                         parse_facts("e(1,2). e(1,3). e(2,3)."))
        assert sorted(render(f.term()) for f in model
                      if f.predicate == "q" and len(f.args) == 1) == ["q(1)", "q(2)"]
        assert calls.count(f"q(X) :- {q2}(X,Y).") == 1

    def test_monotone_growth_without_negation(self):
        rng = random.Random(99)
        for _ in range(30):
            generated = generate_program(rng, allow_negation=False)
            program = parse_program(render_program(generated))
            base = evaluate(program, [])
            extra = []
            for pred in ("e0", "e1"):
                arity = next((len(p) for q, p in generated.facts if q == pred), 1)
                extra.append(Fact(pred, tuple(
                    Number(rng.randint(1, 6)) for _ in range(arity))))
            extended = evaluate(program, extra)
            assert base <= extended

    def test_constraints_leave_the_model_unchanged(self):
        rng = random.Random(1717)
        for _ in range(40):
            generated = generate_program(rng, comparisons=True)
            text = render_program(generated)
            arity = {pred: len(args) for pred, args in generated.facts}
            arity.update((pred, len(args)) for _, rule in generated.rules
                         for pred, args in (rule.head, *rule.pos))
            lines = text.splitlines()
            for _ in range(rng.randint(1, 4)):
                lines.insert(rng.randint(0, len(lines)), _random_constraint(rng, arity))
            assert evaluate(parse_program("\n".join(lines)), []) == \
                evaluate(parse_program(text), [])

    def test_connectivity_against_bfs(self):
        rng = random.Random(5)
        program = parse_program(CONNECTED_RULES)
        for _ in range(50):
            nodes = set(rng.sample(range(1, 9), rng.randint(0, 8)))
            edges = set()
            for a in nodes:
                for b in nodes:
                    if a < b and rng.random() < 0.3:
                        edges.add((a, b))
                        edges.add((b, a))
            facts = [Fact("node", (Number(n),)) for n in nodes]
            facts += [Fact("edge", (Number(a), Number(b))) for a, b in edges]
            model = evaluate(program, facts)
            engine_connected = not any(f.predicate == "unconnected" for f in model)
            assert engine_connected == bfs_connected(nodes, edges)

    def test_join_shapes_match_naive_fixpoint(self):
        rng = random.Random(4141)
        shapes = {"constant": 0, "self-join": 0, "repeated variable": 0}
        for _ in range(150):
            generated = generate_program(rng, join_shapes=True)
            program = parse_program(render_program(generated))
            assert model_as_tuples(evaluate(program, [])) == naive_fixpoint(generated)
            for _, rule in generated.rules:
                preds = [pred for pred, _ in rule.pos]
                shapes["self-join"] += len(set(preds)) < len(preds)
                names = [[a for a in args if isinstance(a, str)] for _, args in rule.pos]
                shapes["repeated variable"] += any(len(set(n)) < len(n) for n in names)
                shapes["constant"] += sum(map(len, names)) < sum(
                    len(args) for _, args in rule.pos)
        assert min(shapes.values()) >= 50, shapes

    def test_comparisons_match_naive_fixpoint(self):
        rng = random.Random(2718)
        shapes = {"<": 0, "!=": 0, "= test": 0, "= binds": 0, "bound var used": 0}
        for _ in range(150):
            generated = generate_program(rng, comparisons=True)
            program = parse_program(render_program(generated))
            assert model_as_tuples(evaluate(program, [])) == naive_fixpoint(generated)
            for _, rule in generated.rules:
                fresh = {side for op, left, right in rule.cmp for side in (left, right)
                         if isinstance(side, str) and side.startswith("V")}
                for op, left, right in rule.cmp:
                    if op != "=":
                        shapes[op] += 1
                    else:
                        shapes["= binds" if {left, right} & fresh else "= test"] += 1
                used = [*rule.head[1], *(a for _, args in rule.neg for a in args)]
                shapes["bound var used"] += bool(fresh & set(used))
        assert min(shapes.values()) >= 30, shapes

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_literal_kind_matches_naive_fixpoint(self, seed):
        generated = generate_program(random.Random(seed), comparisons=True, aggregates=True,
                                     arithmetic=True, compounds=True)
        text = render_program(generated)
        assert model_as_tuples(evaluate(parse_program(text), [])) == \
            naive_fixpoint(generated), text

    def test_generated_programs_hold_every_literal_kind(self, monkeypatch):
        # The property above sees each aggregate with either guard, arithmetic
        # in heads and in comparisons, and compound heads; and the aggregates
        # hold for some bindings and fail for others.
        outcomes = {True: 0, False: 0}
        aggregate = _support._oracle_aggregate

        def counted(*args):
            binding = aggregate(*args)
            outcomes[binding is not None] += 1
            return binding

        monkeypatch.setattr(_support, "_oracle_aggregate", counted)
        rng = random.Random(2626)
        shapes: dict[str, int] = {}
        checked = 0
        for _ in range(200):
            generated = generate_program(rng, comparisons=True, aggregates=True,
                                         arithmetic=True, compounds=True)
            for _, rule in generated.rules:
                kinds = [f"#{a.func} " + ("binds" if a.op == "=" and str(a.guard)[0] == "N"
                                         else "compares") for a in rule.agg]
                heads = [a for a in rule.head[1] if isinstance(a, tuple)]
                kinds += ["arithmetic head" if a[0] in ("+", "-", "*", "/") else "compound head"
                          for a in heads]
                kinds += ["arithmetic comparison" for _, left, right in rule.cmp
                          if isinstance(left, tuple) or isinstance(right, tuple)]
                for kind in kinds:
                    shapes[kind] = shapes.get(kind, 0) + 1
            program = parse_program(render_program(generated))
            assert model_as_tuples(evaluate(program, [])) == naive_fixpoint(generated)
            checked += 1
        assert checked == 200
        assert len(shapes) == 11 and min(shapes.values()) >= 30, shapes
        assert min(outcomes.values()) >= 100, outcomes


def _random_constraint(rng: random.Random, arity: dict[str, int]) -> str:
    """A constraint over the given predicates, safe or not, with negation,
    comparisons, an aggregate or an @-term."""
    def atom():
        pred = rng.choice(sorted(arity))
        args = [rng.choice(["X", "Y", "Z", "_", "1", "2"]) for _ in range(arity[pred])]
        return f"{pred}({','.join(args)})" if args else pred
    body = [atom() for _ in range(rng.randint(1, 3))]
    extras = [f"not {atom()}", "X < Y", "X != 2", "@f(X) != 1", "Y = @g(X, 1)",
              f"#count{{X : {atom()}}} > 1"]
    body += rng.sample(extras, rng.randint(0, 3))
    rng.shuffle(body)
    return f":- {', '.join(body)}."


def _count_candidates(monkeypatch) -> dict[str, int]:
    """Counts, as evaluation goes on, the tuples an atom's loop is given: by
    key ("get", each bucket an index's get returns) and without ("scan",
    each tuple of a relation read whole)."""
    examined = {"get": 0, "scan": 0}
    index, scan = datalog._Relations.index, datalog._Relations.scan

    class Buckets:
        def __init__(self, buckets):
            self.buckets = buckets

        def get(self, key, default):
            bucket = self.buckets.get(key, default)
            examined["get"] += len(bucket)
            return bucket

    class Tuples:
        def __init__(self, tuples):
            self.tuples = tuples

        def __iter__(self):
            for args in self.tuples:
                examined["scan"] += 1
                yield args

    monkeypatch.setattr(datalog._Relations, "index", lambda self, *key: Buckets(index(self, *key)))
    monkeypatch.setattr(datalog._Relations, "scan", lambda self, pred: Tuples(scan(self, pred)))
    return examined


def _path_model(rules: str, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    facts = [Fact("edge", (Number(a), Number(b))) for a, b in edges]
    model = evaluate(parse_program(rules), facts)
    return {(f.args[0].value, f.args[1].value) for f in model if f.predicate == "path"}


class TestIndexedJoins:
    @pytest.mark.parametrize("recursive_rule", [
        "path(X,Z) :- path(X,Y), edge(Y,Z).",  # left: the delta is scanned
        "path(X,Z) :- edge(X,Y), path(Y,Z).",  # right: the delta is looked up
        "path(X,Z) :- path(X,Y), path(Y,Z).",  # both atoms grow
    ])
    def test_recursion_shapes_against_bfs(self, recursive_rule):
        rules = "path(X,Y) :- edge(X,Y).\n" + recursive_rule
        rng = random.Random(31)
        cyclic = 0
        for _ in range(20):
            nodes = range(rng.randint(1, 12))
            edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.15}
            expected = reachable_pairs(edges)
            assert _path_model(rules, edges) == expected
            cyclic += any(a == b for a, b in expected)
        assert cyclic >= 10

    def test_count_per_bound_variable_against_brute_force(self):
        program = parse_program(
            "out(X,N) :- node(X), N = #count{Y : e(X,Y)}.\n"
            "loops(X,N) :- node(X), N = #count{Y : e(X,Y), e(Y,X)}.")
        rng = random.Random(8)
        for _ in range(20):
            nodes = range(rng.randint(1, 10))
            edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.3}
            facts = [Fact("node", (Number(n),)) for n in nodes]
            facts += [Fact("e", (Number(a), Number(b))) for a, b in edges]
            got = {(f.predicate, f.args[0].value, f.args[1].value)
                   for f in evaluate(program, facts) if f.predicate in ("out", "loops")}
            want = {("out", x, sum(1 for y in nodes if (x, y) in edges)) for x in nodes}
            want |= {("loops", x, sum(1 for y in nodes if (x, y) in edges and (y, x) in edges))
                     for x in nodes}
            assert got == want

    def test_key_after_arithmetic_still_sees_every_candidate(self):
        # r's second argument is bound, but it follows arithmetic that fails
        # on a non-integer: the error is met as in a scan of r.
        program = parse_program("q(X) :- p(X), r(X+1, X).")
        with pytest.raises(EvaluationError, match="non-integers"):
            evaluate(program, parse_facts("p(a). r(1, b)."))

    @pytest.mark.parametrize("n", [100, 200])
    def test_matching_work_is_linear_in_the_closure(self, monkeypatch, n):
        examined = _count_candidates(monkeypatch)
        edges = {(i, i + 1) for i in range(n)}
        paths = _path_model(
            "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).", edges)
        assert len(paths) == n * (n + 1) // 2
        assert sum(examined.values()) <= 10 * len(paths), (examined, len(paths))
        assert examined["get"] and examined["scan"], examined

    def test_an_atom_without_keys_reads_only_its_own_arity(self, monkeypatch):
        examined = _count_candidates(monkeypatch)
        model = evaluate(parse_program("p(X) :- q(X)."),
                         parse_facts("q(1). q(1,2). q(2,3). q(3,4,5). q(4)."))
        assert preds(model, "p") == ["p(1)", "p(4)"]
        assert examined == {"get": 0, "scan": 2}

    def test_matching_work_is_linear_in_a_long_solitaire_range(self, monkeypatch):
        # range counts up from -2000 one round at a time; the location rules
        # read it in one pass after range is done, not once a round.
        examined = _count_candidates(monkeypatch)
        program = parse_program(load_fixture("solitaire.yaml").asp_program)
        model = evaluate(program, parse_facts("range(-2000)."))
        assert len(model) == 8044
        assert sum(examined.values()) <= 10 * len(model), (examined, len(model))
        assert examined["scan"], examined


class TestGeneratedCode:
    # Three rules of one shape: they differ in predicates, constants and
    # strings (quotes, backslashes, newlines, Python keywords, __class__),
    # and the last in its variable names too.
    RULES = [
        (r'__class__(X, "\"\"\"", lambda) :- q(X, "a\\b", import), not r(X, "\n"), '
         r'None = X, None != __class__, "None" != "\\".',
         r'q(1, "a\\b", import). q(2, "a\\b", import). q(3, "a\\b", lambda). r(2, "\n").',
         [r'__class__(1,"\"\"\"",lambda)']),
        ('s(X, "plain", c) :- t(X, "b", d), not u(X, "n"), None = X, None != e, "f" != "g".',
         't(1, "b", d). t(2, "b", d). t(3, "b", x). u(2, "n").',
         ['s(1,"plain",c)']),
        ('s(A, "plain", c) :- t(A, "b", d), not u(A, "n"), B = A, B != e, "f" != "g".',
         't(1, "b", d). t(2, "b", d). t(3, "b", x). u(2, "n").',
         ['s(1,"plain",c)']),
    ]
    # Names of the generated code itself; any other name must be one the
    # generator makes: a letter and a number.
    OWN = {"derive", "relations", "out", "delta", "now", "grow", "rel", "note", "add", "index",
           "scan", "get", "tuples", "_index_lists"}

    def test_source_holds_no_text_of_the_rule(self):
        rules = [parse_program(text).rules[0] for text, _, _ in self.RULES]
        sources = {datalog._Generator(rule).source()[0] for rule in rules}
        assert len(sources) == 1
        source, = sources
        allowed = self.OWN | set(keyword.kwlist) | set(dir(builtins)) | set(vars(datalog))
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING, tok
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok
            if tok.type == tokenize.NAME:
                assert re.fullmatch(r"[a-z]\d+", tok.string) or tok.string in allowed, tok
                assert tok.string not in ("lambda", "import", "__class__"), tok
        for (_, facts, expected), rule in zip(self.RULES, rules):
            model = evaluate(datalog.Program([rule]), parse_facts(facts))
            assert sorted(render(f.term()) for f in model if f.predicate == rule.head.pred) \
                == expected
        assert rules[0].derive.__code__ is rules[1].derive.__code__ is rules[2].derive.__code__

    def test_code_is_generated_at_first_evaluation(self):
        program = parse_program("p(X) :- q(X). r(X) :- p(X), not q(X).")
        assert [rule.derive for rule in program.rules] == [None, None]
        evaluate(program, parse_facts("q(1)."))
        derive = [rule.derive for rule in program.rules]
        assert all(derive)
        evaluate(program, parse_facts("q(2)."))
        assert [rule.derive for rule in program.rules] == derive

    # CPython refuses a function with more than 20 nested loops or 100
    # levels of indentation; these evaluate as the engine did with closures.
    CHAIN = ", ".join(f"e(X{i},X{i + 1})" for i in range(30))

    @pytest.mark.parametrize("head, facts, expected", [
        ("p(X0)", "e(1,1).", ["p(1)"]),
        ("p(X0)", "e(1,1). e(2,1). e(3,4).", ["p(1)", "p(2)"]),
        ("p(X0, 1..2)", "e(1,1). e(2,1). e(3,4).", ["p(1,1)", "p(1,2)", "p(2,1)", "p(2,2)"]),
    ])
    def test_a_30_atom_body(self, head, facts, expected):
        model = evaluate(parse_program(f"{head} :- {self.CHAIN}."), parse_facts(facts))
        assert preds(model, "p") == expected

    def test_25_comparisons_and_an_aggregate(self):
        comparisons = ", ".join(f"X < {i}" for i in range(3, 28))
        program = parse_program(f"q(X, N) :- r(X), {comparisons}, N = #count{{Y : s(X, Y), Y > X}}.")
        facts = parse_facts("r(1). r(2). r(5). s(1,0). s(1,2). s(1,3). s(2,4). s(5,9).")
        assert preds(evaluate(program, facts), "q") == ["q(1,2)", "q(2,1)"]

    def test_thousands_of_literals(self):
        # One call frame per literal overflowed the stack in a closure chain;
        # a loop nest holds them as lines.
        tests = ", ".join(f"X != {i}" for i in range(4, 3000))
        program = parse_program(f"p(X) :- e(X), {tests}. q(N) :- N = #count{{X : e(X), {tests}}}.")
        model = evaluate(program, parse_facts("e(1). e(3). e(5)."))
        assert preds(model, "p") == ["p(1)", "p(3)"]
        assert preds(model, "q") == ["q(2)"]

    def test_a_20_atom_aggregate_condition(self):
        chain = ", ".join(f"e(Y{i},Y{i + 1})" for i in range(20))
        program = parse_program(f"q(X, N) :- r(X), N = #count{{Y20 : e(X,Y0), {chain}}}.")
        facts = parse_facts("r(1). r(3). e(1,2). e(2,2). e(2,5). e(5,5).")
        assert preds(evaluate(program, facts), "q") == ["q(1,2)", "q(3,0)"]


BIG = "1" + "0" * 2200  # its square has more digits than int() converts
NINES = 10 ** 4300 - 1
DEEP = "f(" * 100 + "a" + ")" * 100  # as deep as parsed input may nest


class TestChildren:
    """_children is the one list of the children of each rule node, so every
    child position of every node class must reach both walkers."""

    TERMS = (datalog.Var, datalog.Arith, datalog.FuncPat, datalog.Interval, datalog.AtTerm)
    LITERALS = (datalog.Atom, datalog.NegAtom, datalog.Comparison, datalog.AggregateLit)

    @staticmethod
    def build(cls, child):
        """An instance of cls with child() in every position that holds terms
        or literals (two in a tuple field, one under an Atom field's atom) and
        a name or operator in every str field."""
        values = []
        for f in dataclasses.fields(cls):
            if f.type.startswith("str"):
                values.append("x")
            elif f.type == "tuple":
                values.append((child(), child()))
            elif f.type == "Atom":
                values.append(datalog.Atom("q", (child(),)))
            else:
                values.append(child())
        return cls(*values)

    def with_vars(self, cls):
        """An instance of cls with a distinct Var in every child position, and
        the names of those Vars."""
        names: list[str] = []

        def child():
            names.append(f"V{len(names)}")
            return datalog.Var(names[-1])
        return self.build(cls, child), names

    @pytest.mark.parametrize("cls", TERMS + LITERALS, ids=lambda cls: cls.__name__)
    def test_vars_of_finds_a_var_in_every_position(self, cls):
        node, names = self.with_vars(cls)
        if cls is datalog.Var:
            assert (names, datalog._vars_of(node)) == ([], {node.name})
        else:
            assert names and datalog._vars_of(node) == set(names)

    @pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
    def test_arith_depth_counts_through_every_position(self, cls):
        own = 1 if cls in (datalog.Arith, datalog.AtTerm) else 0
        x = datalog.Var("X")
        assert datalog._arith_depth(self.build(cls, itertools.repeat(x).__next__)) == own
        for k in range(len(self.with_vars(cls)[1])):
            children = itertools.chain(itertools.repeat(x, k), [datalog.Arith("+", x, x)],
                                       itertools.repeat(x))
            assert datalog._arith_depth(self.build(cls, children.__next__)) == own + 1, k


class TestEvaluationErrors:
    @pytest.mark.parametrize("rule, facts, message, binding", [
        ("q(Y) :- p(X), Y = X + 1.", "p(a).", "arithmetic on non-integers (+)", "{X: a}"),
        # Bound by an earlier argument of the same atom.
        ("q(X) :- p(X), r(Y, X * 2).", "p(a). r(1,2).", "arithmetic on non-integers (*)",
         "{X: a, Y: 1}"),
        ("q(X) :- p(X), not r(X - 1).", "p(a).", "arithmetic on non-integers (-)", "{X: a}"),
        ("q(X+1) :- p(X).", 'p("s").', "arithmetic on non-integers (+)", '{X: "s"}'),
        ("t(S) :- S = #sum{X+1 : p(X)}.", "p(a).", "arithmetic on non-integers (+)", "{X: a}"),
        ("p(N) :- q(Y), N = #count{X : r(X,Z), X < Y + Z}.", "q(1). r(2,a).",
         "arithmetic on non-integers (+)", "{X: 2, Y: 1, Z: a}"),
        ("q(Y) :- p(X), Y = 7 / X.", "p(0).", "division by zero", "{X: 0}"),
        ("q(1..X) :- p(X).", "p(a).", "interval bounds must be integers", "{X: a}"),
        ("q(X..1000000) :- p(X).", "p(0).", "interval holds more than 1000000 values",
         "{X: 0}"),
        ("t(S) :- S = #sum{X : p(X)}.", "p(a).", "#sum over a non-integer a", "{}"),
        ("q(Y) :- p(X), Y = X * X.", f"p({BIG}).", "integer result longer than 4300 digits",
         f"{{X: {BIG}}}"),
        ("t(S) :- S = #sum{X : p(X)}.", f"p({NINES}). p({NINES - 1}).",
         "integer result longer than 4300 digits", "{}"),
        ("p(f(X)) :- q(X).", f"q({DEEP}).", "derived term nested more than 100 levels deep",
         f"{{X: {DEEP}}}"),
        # Aggregate conditions are not reordered.
        ("t(N) :- p(Y), N = #count{X : X < 3, p(X)}.", "p(1).", "unbound variable X", "{Y: 1}"),
        # A bound anonymous variable is never shown.
        ("q(Y) :- p(X,_), Y = X/0.", "p(1,2).", "division by zero", "{X: 1}"),
    ])
    def test_message_and_binding(self, rule, facts, message, binding):
        with pytest.raises(EvaluationError) as exc:
            evaluate(parse_program(rule), parse_facts(facts))
        assert str(exc.value) == f"{message} in rule: {rule} with {binding}"

    @pytest.mark.parametrize("rules", [["a", "b"], ["b", "a"]])
    def test_first_failing_component_in_stratify_order_is_reported(self, rules):
        # a and b are components of their own, after r's and in name order
        # whichever rule comes first in the program.
        text = " ".join(f"{head}(X) :- r(X), Y = X/0." for head in rules)
        program = parse_program(text)
        assert stratify(program) == [["r"], ["a"], ["b"]]
        with pytest.raises(EvaluationError) as exc:
            evaluate(program, parse_facts("r(1)."))
        assert str(exc.value) == "division by zero in rule: a(X) :- r(X), Y = X/0. with {X: 1}"

    def test_interval_width_is_a_resource_limit(self, monkeypatch):
        monkeypatch.setattr(datalog, "MAX_INTERVAL_VALUES", 5)
        rules = parse_program("q(X..5) :- p(X).")
        assert preds(evaluate(rules, parse_facts("p(1).")), "q") == [f"q({i})" for i in range(1, 6)]
        with pytest.raises(datalog.ResourceLimitError, match="interval holds more than 5 values"):
            evaluate(rules, parse_facts("p(0)."))
        # Each interval within the bound: their product is bounded too, so
        # 5 atoms evaluate and 10 are a resource limit.
        rules = parse_program("r(1..5, X..1, a) :- p(X).")
        assert len(preds(evaluate(rules, parse_facts("p(1).")), "r")) == 5
        with pytest.raises(datalog.ResourceLimitError) as exc:
            evaluate(rules, parse_facts("p(0)."))
        assert str(exc.value) == ("head intervals give more than 5 atoms"
                                  " in rule: r(1..5, X..1, a) :- p(X). with {X: 0}")

    def test_interpreted_term(self):
        rule = "p(Y) :- q(X), Y = @f(X)."
        program = parse_program(rule)
        with pytest.raises(EvaluationError) as exc:
            evaluate(program, parse_facts("q(1)."))
        assert str(exc.value) == (
            f"externally interpreted term @f cannot be evaluated in rule: {rule} with {{X: 1}}")

    @pytest.mark.parametrize("rule, binding", [
        ("p(@f(X)) :- q(X).", "{X: 1}"),
        ("p(1..@f(X)) :- q(X).", "{X: 1}"),
        ("p(X) :- q(X), X < @f(X).", "{X: 1}"),
        ("p(X) :- q(X), r(@f(X)).", "{X: 1}"),
        ("p(X) :- q(X), t(g(@f(X))).", "{X: 1}"),
        # Keys stop at the @-term, so r(1,2) is a candidate as in a scan.
        ("p(X) :- q(X), s(@f(X), X).", "{X: 1}"),
        ("p(X) :- q(X), not r(@f(X)).", "{X: 1}"),
        ("p(N) :- q(Y), N = #count{@f(X) : r(X)}.", "{X: 1, Y: 1}"),
        ("p(N) :- q(Y), N = #count{X : r(X), X != @f(Y)}.", "{X: 1, Y: 1}"),
        ("p(N) :- q(Y), N = #count{X : r(X), s(X, @f(Y))}.", "{X: 1, Y: 1}"),
        ("p(N) :- q(Y), N = #sum{X : r(X)}, N > @f(Y).", "{N: 1, Y: 1}"),
    ])
    def test_interpreted_term_fails_where_reached(self, rule, binding):
        program, others = parse_program(rule), parse_facts("r(1). s(1,2). t(g(2)).")
        with pytest.raises(EvaluationError) as exc:
            evaluate(program, [*parse_facts("q(1)."), *others])
        assert str(exc.value) == (
            f"externally interpreted term @f cannot be evaluated in rule: {rule} with {binding}")
        assert evaluate(program, others) == set(others)  # without q(1), never reached

    def test_interval_outside_a_head(self):
        # The parser never builds one; a hand-built rule shows the message.
        x = datalog.Var("X")
        rule = datalog.Rule(
            head=datalog.Atom("p", (datalog.FuncPat("f", (datalog.Interval(Number(1), x),)),)),
            body=(datalog.Atom("q", (x,)),), source="p(f(1..X)) :- q(X).")
        datalog._plan_rule(rule)
        with pytest.raises(EvaluationError) as exc:
            evaluate(datalog.Program([rule]), parse_facts("q(2)."))
        assert str(exc.value) == (
            "interval outside a fact or rule head in rule: p(f(1..X)) :- q(X). with {X: 2}")
