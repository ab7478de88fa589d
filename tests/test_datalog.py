"""Rule engine: parsing, safety, stratification, evaluation, aggregates."""

import random

import pytest

from aspcheck import datalog
from aspcheck.datalog import (
    EvaluationError,
    ProgramSyntaxError,
    UnsafeRuleError,
    UnstratifiedError,
    evaluate,
    parse_program,
    stratify,
)
from aspcheck.terms import Fact, Number, parse_facts, render

from _support import (
    bfs_connected,
    generate_program,
    model_as_tuples,
    naive_fixpoint,
    reachable_pairs,
    render_program,
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

    def test_disjunction_rejected(self):
        with pytest.raises(ProgramSyntaxError, match="disjunctive"):
            parse_program("a(1) | b(1) :- c(1).")

    def test_choice_rejected(self):
        with pytest.raises(ProgramSyntaxError, match="choice"):
            parse_program("{a(1)} :- b(1).")

    def test_constraint_rejected_outside_permissive(self):
        with pytest.raises(ProgramSyntaxError, match="constraints"):
            parse_program(":- p(X).")

    def test_permissive_accepts_constraints_and_at_terms(self):
        program = parse_program(
            ":- range(X1), @valasp_validate_range(X1) != 1.", permissive=True)
        assert program.rules[0].head is None

    def test_interval_rejected_in_body(self):
        with pytest.raises(ProgramSyntaxError, match="intervals"):
            parse_program("p(X) :- q(1..3), r(X).")

    def test_anonymous_variables_are_fresh(self):
        program = parse_program("p(X) :- q(X,_,_).")
        model = evaluate(program, parse_facts("q(1,2,3). q(1,9,9)."))
        assert preds(model, "p") == ["p(1)"]

    def test_syntax_error_position(self):
        with pytest.raises(ProgramSyntaxError) as exc:
            parse_program("p(1).\nq(X) :- p(X), .")
        assert exc.value.line == 2

    @pytest.mark.parametrize("signs, value", [(5000, 3), (5001, -3)])
    def test_long_run_of_unary_minus_folds(self, signs, value):
        program = parse_program("p(" + "-" * signs + "3).")
        assert program.facts == [Fact("p", (Number(value),))]

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
        with pytest.raises(ProgramSyntaxError,
                           match="arithmetic nested more than 100 levels deep") as exc:
            parse_program(f"q(1).\np(Y) :- q(X), Y = {arith}.")
        assert (exc.value.line, exc.value.column) == (2, 19)

    @pytest.mark.parametrize("text, line, column", [
        ("% c\np(1).\nq(X) :- .\n", 3, 9),
        ("p(1).\n  r(X) :- s(X), X ! 2.\n", 2, 19),
        ("p(1)\n", 2, 1),
        ('p(1).\nq("a\\tb").', 2, 5),
    ])
    def test_syntax_error_line_and_column(self, text, line, column):
        with pytest.raises(ProgramSyntaxError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).endswith(f"(line {line}, column {column})")


class TestFacts:
    def test_ground_bodyless_rules_are_facts(self):
        program = parse_program('p(1). q(f(a),(1,"s")). t(2+3).\n'
                                "r(X) :- p(X). s(1..3).")
        assert [render(f.term()) for f in program.facts] == [
            "p(1)", 'q(f(a),(1,"s"))', "t(5)"]
        assert [r.head.pred for r in program.rules] == ["r", "s"]
        assert program.rules[1].plan == ()

    def test_permissive_parse_splits_facts_too(self):
        program = parse_program("p(1).\n:- p(X), @f(X) != 1.", permissive=True)
        assert program.facts == [Fact("p", (Number(1),))]
        assert len(program.rules) == 1

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
        with pytest.raises(ProgramSyntaxError, match=message) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("rule", ["q(Y) :- p(X), Y = X/0.", "q(1/0) :- p(1)."])
    def test_division_by_zero_in_rules_is_reported_at_evaluation(self, rule):
        program = parse_program(rule)
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate(program, parse_facts("p(1)."))


class TestStratify:
    def test_poset_has_two_strata(self):
        strata = stratify(parse_program(POSET_RULES))
        assert len(strata) == 2
        assert set(strata[0]) == {"element", "r"}
        assert strata[1] == ["lost"]

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
        assert len(strata) == 1


class TestEvaluate:
    @pytest.mark.parametrize("wrap", ["f(X)", "(X,)"])
    def test_derived_terms_nest_at_most_100_deep(self, wrap):
        rules = f"t(a, 0). t({wrap}, M) :- t(X, N), step(N), M = N + 1."
        model = evaluate(parse_program(rules + " step(0..99)."), [])
        deepest = max(f.args[0] for f in model if f.predicate == "t" and f.args[1] == Number(100))
        assert render(deepest).count("(") == 100
        with pytest.raises(EvaluationError, match="derived term nested more than 100 levels"):
            evaluate(parse_program(rules + " step(0..100)."), [])

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
        examined = 0
        lookup = datalog._Relations.lookup

        def counting(self, *args):
            nonlocal examined
            for candidate in lookup(self, *args):
                examined += 1
                yield candidate

        monkeypatch.setattr(datalog._Relations, "lookup", counting)
        edges = {(i, i + 1) for i in range(n)}
        paths = _path_model(
            "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).", edges)
        assert len(paths) == n * (n + 1) // 2
        assert examined <= 10 * len(paths), (examined, len(paths))


BIG = "1" + "0" * 2200  # its square has more digits than int() converts
NINES = 10 ** 4300 - 1
DEEP = "f(" * 100 + "a" + ")" * 100  # as deep as parsed input may nest


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
        ("t(S) :- S = #sum{X : p(X)}.", "p(a).", "#sum over a non-integer a", "{}"),
        ("q(Y) :- p(X), Y = X * X.", f"p({BIG}).", "integer result longer than 4300 digits",
         f"{{X: {BIG}}}"),
        ("t(S) :- S = #sum{X : p(X)}.", f"p({NINES}). p({NINES - 1}).",
         "integer result longer than 4300 digits", "{}"),
        ("p(f(X)) :- q(X).", f"q({DEEP}).", "derived term nested more than 100 levels deep",
         f"{{X: {DEEP}}}"),
        # Aggregate conditions are not reordered.
        ("t(N) :- p(Y), N = #count{X : X < 3, p(X)}.", "p(1).", "unbound variable X", "{Y: 1}"),
        # An anonymous variable is never shown.
        ("p(_) :- q(X).", "q(1).", "unbound variable _#1", "{X: 1}"),
    ])
    def test_message_and_binding(self, rule, facts, message, binding):
        with pytest.raises(EvaluationError) as exc:
            evaluate(parse_program(rule), parse_facts(facts))
        assert str(exc.value) == f"{message} in rule: {rule} with {binding}"

    def test_interpreted_term(self):
        # Only a permissive parse reads @f; planned by hand, it still cannot run.
        rule = "p(Y) :- q(X), Y = @f(X)."
        program = parse_program(rule, permissive=True)
        datalog._plan_rule(program.rules[0])
        with pytest.raises(EvaluationError) as exc:
            evaluate(program, parse_facts("q(1)."))
        assert str(exc.value) == (
            f"externally interpreted term @f cannot be evaluated in rule: {rule} with {{X: 1}}")

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
