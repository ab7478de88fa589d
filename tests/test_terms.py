"""Term parsing, rendering and ordering."""

import copy
import pickle
import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcheck import datalog, hooks, terms
from aspcheck.datalog import evaluate, parse_program
from aspcheck.terms import (
    Const,
    Fact,
    Func,
    Number,
    ParseError,
    Str,
    Tuple,
    compare,
    parse_facts,
    parse_term,
    render,
    sort_key,
)

from _support import compare_terms, random_term


class TestParseTerm:
    def test_function_of_numbers(self):
        assert parse_term("date(1982,123)") == Func(
            "date", (Number(1982), Number(123)))

    def test_quoted_string(self):
        assert parse_term('"Acme ASP"') == Str("Acme ASP")

    def test_tuple(self):
        assert parse_term("(1,2,3)") == Tuple((Number(1), Number(2), Number(3)))

    def test_negative_integer(self):
        assert parse_term("-5") == Number(-5)

    def test_nested_function(self):
        term = parse_term("bday(bigel,date(1982,123))")
        assert term == Func("bday", (Const("bigel"),
                                     Func("date", (Number(1982), Number(123)))))

    def test_escaped_quote_inside_string(self):
        assert parse_term(r'"say \"hi\""') == Str('say "hi"')

    def test_zero_arity_is_const(self):
        assert parse_term("even") == Const("even")

    def test_leading_underscore_identifier(self):
        assert parse_term("__in_range") == Const("__in_range")

    def test_whitespace_insensitive(self):
        assert parse_term(" f( 1 , 2 ) ") == parse_term("f(1,2)")

    def test_single_element_tuple(self):
        assert parse_term("(1,)") == Tuple((Number(1),))

    def test_empty_tuple(self):
        assert parse_term("()") == Tuple(())

    def test_parentheses_alone_make_no_tuple(self):
        # As in rule text: (t) is t, and only (t,) is a 1-tuple.
        assert parse_term("(1)") == Number(1)
        assert parse_term("f((1))") == parse_term("f(1)")

    def test_error_reports_offset_and_expectation(self):
        with pytest.raises(ParseError) as exc:
            parse_term("f(1,")
        assert "expected a term" in str(exc.value)
        assert exc.value.offset == 4

    def test_error_on_trailing_garbage(self):
        with pytest.raises(ParseError, match="expected end of input"):
            parse_term("f(1) g")

    def test_error_on_uppercase_name(self):
        with pytest.raises(ParseError):
            parse_term("Foo")

    def test_func_requires_argument(self):
        with pytest.raises(ValueError):
            Func("f", ())


class TestParseFacts:
    def test_two_atoms_in_order(self):
        assert parse_facts("size(8). size(10).") == [
            Fact("size", (Number(8),)), Fact("size", (Number(10),))]

    def test_empty_input(self):
        assert parse_facts("") == []

    def test_nested_term_argument(self):
        facts = parse_facts("bday(bigel, date(1982,123)).")
        assert facts == [Fact("bday", (Const("bigel"),
                                       Func("date", (Number(1982), Number(123)))))]

    def test_comments_are_skipped(self):
        facts = parse_facts("% header\np(1). % trailing\np(2).")
        assert [f.args[0].value for f in facts] == [1, 2]

    def test_duplicates_preserved(self):
        facts = parse_facts("p(1). p(1).")
        assert len(facts) == 2

    def test_zero_arity_fact(self):
        assert parse_facts("flag.") == [Fact("flag", ())]

    def test_rule_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_facts("p(1).\nq(X) :- p(X).")
        assert "rules are not allowed" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError, match="'.'"):
            parse_facts("p(1)")

    def test_bare_number_is_not_a_fact(self):
        with pytest.raises(ParseError):
            parse_facts("5.")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_facts("p(1).\np(.")
        assert exc.value.line == 2
        assert exc.value.column is not None

    def test_unsupported_escape_has_line_and_column(self):
        with pytest.raises(ParseError, match="unsupported string escape") as exc:
            parse_facts('p(1).\nq("a\\tb").')
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_missing_dot_at_final_newline(self):
        with pytest.raises(ParseError, match="'.'") as exc:
            parse_facts("p(1)\n")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_variable_is_not_a_term(self):
        with pytest.raises(ParseError, match=r"expected a term .*, got 'X'"):
            parse_facts("p(X).")


class TestRender:
    def test_function(self):
        assert render(parse_term("date(1982,123)")) == "date(1982,123)"

    def test_string_quoted(self):
        assert render(Str("Yoyodyne YAML")) == '"Yoyodyne YAML"'

    def test_single_tuple_disambiguated(self):
        rendered = render(Tuple((Number(1),)))
        assert rendered == "(1,)"
        assert parse_term(rendered) == Tuple((Number(1),))

    def test_negative_number(self):
        assert render(Number(-12)) == "-12"

    def test_no_whitespace(self):
        assert " " not in render(parse_term("f( 1 , g(2 ,3) )"))

    @pytest.mark.parametrize("canonical", [
        "date(1982,123)", '"Acme ASP"', "(1,2,3)", "-5",
        'f(g(-1),"x")', "(1,)", "__in_range(9,givenmove(1,7,3,9))",
    ])
    def test_canonical_text_is_byte_identical(self, canonical):
        assert render(parse_term(canonical)) == canonical


class TestCompare:
    def test_numbers_numeric(self):
        assert compare(Number(3), Number(7)) == -1
        assert compare(Number(7), Number(3)) == 1

    def test_const_before_str_cross_kind(self):
        # Cross-kind rank: Number < Const < Str < Tuple < Func.
        assert compare(Const("a"), Str("a")) == -1

    def test_reflexive_equality(self):
        f = parse_term("f(1)")
        assert compare(f, f) == 0

    def test_rank_chain(self):
        chain = [Number(10**9), Const("zzz"), Str(""), Tuple(()), Func("a", (Number(1),))]
        for left, right in zip(chain, chain[1:]):
            assert compare(left, right) == -1

    def test_func_orders_by_arity_then_name_then_args(self):
        assert compare(parse_term("z(1)"), parse_term("a(1,2)")) == -1
        assert compare(parse_term("a(9)"), parse_term("b(1)")) == -1
        assert compare(parse_term("a(1)"), parse_term("a(2)")) == -1

    def test_total_order_on_random_sample(self):
        rng = random.Random(20240811)
        sample = [random_term(rng, depth=3) for _ in range(10_000)]
        ordered = sorted(sample, key=cmp_to_key(compare))
        for left, right in zip(ordered, ordered[1:]):
            assert compare(left, right) <= 0
            assert compare(right, left) >= 0  # antisymmetry on adjacent pairs

    def test_compare_agrees_with_the_oracle(self):
        rng = random.Random(11)
        sample = [random_term(rng, depth=3) for _ in range(500)]
        for left, right in zip(sample, sample[1:]):
            assert compare(left, right) == compare_terms(left, right)

    def test_sort_key_agrees_with_compare(self):
        rng = random.Random(7)
        sample = [random_term(rng, depth=3) for _ in range(2_000)]
        by_cmp = sorted(sample, key=cmp_to_key(compare))
        by_key = sorted(sample, key=sort_key)
        assert [render(t) for t in by_cmp] == [render(t) for t in by_key]


def _nested(depth: int) -> str:
    return "f(" * depth + "1" + ")" * depth


@pytest.mark.parametrize("depth", [101, 5000])
@pytest.mark.parametrize("parse, text, column", [
    (parse_term, "{}", 202),
    (parse_facts, "q.\np({}).", 204),
    (parse_program, "q.\np({}).", 204),
])
def test_nesting_beyond_the_limit_is_a_positioned_error(parse, text, column, depth):
    with pytest.raises(ParseError, match="nested more than 100 levels") as exc:
        parse(text.format(_nested(depth)))
    assert (exc.value.line, exc.value.column) == (1 if parse is parse_term else 2, column)


def test_nesting_at_the_limit_parses_alike():
    term = parse_term(_nested(100))
    assert parse_facts(f"p({_nested(100)}).")[0].args == (term,)
    assert parse_program(f"p({_nested(100)}).").facts[0].args == (term,)


# Round-trip property over generated terms (depth-limited).

_idents = st.from_regex(r"_{0,2}[a-z][a-z0-9_]{0,5}", fullmatch=True)
_leaves = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12).map(Number),
    st.text(max_size=8).map(Str),
    _idents.map(Const),
)
_terms = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(lambda n, args: Func(n, tuple(args)), _idents,
                  st.lists(children, min_size=1, max_size=3)),
        st.lists(children, max_size=3).map(lambda a: Tuple(tuple(a))),
    ),
    max_leaves=20,
)


@given(_terms)
@settings(max_examples=300)
def test_parse_render_round_trip(term):
    assert parse_term(render(term)) == term


def test_repr_names_each_field():
    term = Func("f", (Number(-1), Tuple((Str("s"), Const("c")))))
    assert repr(term) == ("Func(name='f', args=(Number(value=-1),"
                          " Tuple(args=(Str(value='s'), Const(name='c')))))")


@given(_terms)
@settings(max_examples=100)
def test_copies_and_pickles_are_the_same_term(term):
    for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert twin == term and type(twin) is type(term) and repr(twin) == repr(term)


@given(_terms)
@settings(max_examples=200)
def test_ground_and_rule_parsers_read_rendered_terms_alike(term):
    text = render(term)
    [fact] = evaluate(parse_program(f"p({text})."), ())
    assert fact.args == (parse_term(text),)


@given(_terms)
@settings(max_examples=150)
def test_fact_shaped_terms_round_trip_through_parse_facts(term):
    # Only predicate-shaped terms are facts; they need the terminating dot.
    if isinstance(term, (Const, Func)):
        text = render(term)
        with pytest.raises(ParseError):
            parse_facts(text)
        parsed = parse_facts(text + ".")
        assert len(parsed) == 1
        assert parsed[0].term() == term


_ORDER_RULES = parse_program("""
    lt(X,Y) :- v(X), v(Y), X < Y.
    least(M) :- M = #min{X : v(X)}.
    greatest(M) :- M = #max{X : v(X)}.
""")
_ORDER_OPS = {"==": lambda c: c == 0, "!=": lambda c: c != 0, "<": lambda c: c < 0,
              "<=": lambda c: c <= 0, ">": lambda c: c > 0, ">=": lambda c: c >= 0}
# One term of each kind, so that every example compares across kinds.
_PIVOTS = [Number(0), Const("m"), Str("m"), Tuple((Number(0),)), Func("m", (Number(0),))]


@given(st.lists(st.one_of(_leaves, _terms), max_size=6))
@settings(max_examples=200)
def test_every_comparison_follows_the_term_order(drawn):
    # compare, rule comparisons, #min/#max and hook comparisons against the oracle.
    values = drawn + _PIVOTS
    for a in values:
        for b in values:
            c = compare_terms(a, b)
            assert compare(a, b) == c
            for op, holds in _ORDER_OPS.items():
                assert hooks.compare_values(op, a, b) is holds(c), (op, a, b)
    model = evaluate(_ORDER_RULES, [Fact("v", (v,)) for v in values])
    derived = {f.args for f in model if f.predicate == "lt"}
    assert derived == {(a, b) for a in values for b in values if compare_terms(a, b) < 0}
    ordered = sorted(values, key=cmp_to_key(compare_terms))
    assert Fact("least", (ordered[0],)) in model
    assert Fact("greatest", (ordered[-1],)) in model
    assert sum(f.predicate in ("least", "greatest") for f in model) == 2


_facts = st.builds(lambda name, args: Fact(name, tuple(args)),
                   _idents, st.lists(_terms, max_size=3))


@given(st.lists(_facts, max_size=4))
@settings(max_examples=100)
def test_rule_parser_reads_ground_fact_files_as_facts(facts):
    text = "".join(render(f.term()) + ".\n" for f in facts)
    program = parse_program(text)
    assert program.facts == parse_facts(text)
    assert program.rules == []


# Flat facts (`p(1,"a",b).` with nothing inside) skip the token grammar;
# anything else goes through it.  Both routes must read the same facts.

_SEPARATORS = ["", " ", "\n", "% note\n"]


def _tokens(term) -> list[str]:
    """The tokens of render(term), so that separators can go between them."""
    if isinstance(term, Number):
        return ["-", str(-term.value)] if term.value < 0 else [str(term.value)]
    if isinstance(term, (Str, Const)):
        return [render(term)]
    inner = []
    for arg in term.args:
        inner += ([","] if inner else []) + _tokens(arg)
    if isinstance(term, Func):
        return [term.name, "(", *inner, ")"]
    return ["(", *inner, ",", ")"] if len(term.args) == 1 else ["(", *inner, ")"]


@given(st.lists(_facts, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_fact_files_read_alike_whatever_the_separators(facts, rng):
    text = "".join(tok + rng.choice(_SEPARATORS)
                   for fact in facts for tok in _tokens(fact.term()) + ["."])
    assert parse_facts(text) == parse_program(text).facts == facts


def test_flat_facts_bypass_the_grammar(monkeypatch):
    def grammar(self):
        raise AssertionError("a flat fact went through the grammar")

    monkeypatch.setattr(terms._Parser, "fact", grammar)
    monkeypatch.setattr(datalog._ProgramParser, "rule", grammar)
    text = 'income("company7",5).\n% note\n  p(x,-1,"a,b",007,_y).q(1).\n'
    assert parse_facts(text) == parse_program(text).facts == [
        Fact("income", (Str("company7"), Number(5))),
        Fact("p", (Const("x"), Number(-1), Str("a,b"), Number(7), Const("_y"))),
        Fact("q", (Number(1),)),
    ]


@pytest.mark.parametrize("text, facts", [
    ("p( 1 ).", [Fact("p", (Number(1),))]),
    ("p(- 2).", [Fact("p", (Number(-2),))]),
    ('p("a\\"b").', [Fact("p", (Str('a"b'),))]),
    ('p("a\nb").', [Fact("p", (Str("a\nb"),))]),
    ("p(1).p(2).", [Fact("p", (Number(1),)), Fact("p", (Number(2),))]),
    ('p("a,b",",",-3,x).', [Fact("p", (Str("a,b"), Str(","), Number(-3), Const("x")))]),
])
def test_boundary_facts_read_alike(text, facts):
    assert parse_facts(text) == parse_program(text).facts == facts


# Each error as the token grammar reports it, line and column included;
# None where the rule parser accepts the text.
@pytest.mark.parametrize("text, facts_error, program_error", [
    ("p(1)..", "expected '.' terminating the fact, got '..' (line 1, column 5)",
     "expected '.' terminating the rule, got '..' (line 1, column 5)"),
    ('q.\np(1).\n  p(x,"s",-3)..',
     "expected '.' terminating the fact, got '..' (line 3, column 14)",
     "expected '.' terminating the rule, got '..' (line 3, column 14)"),
    ("p(1a).", "expected ')' closing argument list, got 'a' (line 1, column 4)",
     "expected ')' closing the head, got 'a' (line 1, column 4)"),
    ('p("a\\tb").', "unsupported string escape '\\\\t' (line 1, column 5)",
     "unsupported string escape '\\\\t' (line 1, column 5)"),
    ("p(1) :- q.",
     "rules are not allowed in a facts file (':-' on line 1) (line 1, column 6)", None),
])
def test_boundary_errors_are_unchanged(text, facts_error, program_error):
    with pytest.raises(ParseError) as exc:
        parse_facts(text)
    assert str(exc.value) == facts_error
    if program_error is None:
        program = parse_program(text)
        assert (program.facts, len(program.rules)) == ([], 1)
    else:
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert str(exc.value) == program_error


@pytest.mark.parametrize("text, column", [
    ("p(" + "1" * 5000 + ").", 3),
    ("p(x,-" + "1" * 5000 + ").", 6),
    ("p( " + "1" * 5000 + " ).", 4),
    ("p(f(" + "1" * 5000 + ")).", 5),
], ids=["flat", "negative", "spaced", "nested"])
@pytest.mark.parametrize("parse", [parse_facts, parse_program])
def test_overlong_integer_literal_is_a_positioned_error(parse, text, column):
    with pytest.raises(ParseError, match="integer literal longer than") as exc:
        parse("q.\n" + text)
    assert (exc.value.line, exc.value.column) == (2, column)


# 2**14284 - 1 is the largest value the bit-length shortcut clears; the
# comparison decides 2**14284 (4300 digits) and 2**14285 (4301 digits).
@pytest.mark.parametrize("value, too_long", [
    (0, False), (2**14284 - 1, False), (2**14284, False), (2**14285, True),
    (10**4300 - 1, False), (10**4300, True), (10**5000, True),
], ids=["0", "2**14284-1", "2**14284", "2**14285", "10**4300-1", "10**4300", "10**5000"])
def test_too_many_digits_counts_decimal_digits(value, too_long):
    assert terms.too_many_digits(value) is too_long
    assert terms.too_many_digits(-value) is too_long
