"""Hook mini-language: parsing, evaluation, class hooks, having."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcheck.hooks import (
    CheckedInstance,
    CheckFailure,
    EvalEnv,
    ScriptEvalError,
    ScriptSyntaxError,
    eval_instance,
    parse_script,
    run_prelude,
)
from aspcheck import hooks
from aspcheck.diagnostics import render_report
from aspcheck.engine import RunOptions, run
from aspcheck.schema import load_spec
from aspcheck.terms import parse_facts, parse_term

from _support import proleptic_gregorian_valid


def run_on(script_text, instance=None, class_store=None, prelude=None):
    script = parse_script(script_text)
    env = EvalEnv(instance=instance, class_store=class_store or {},
                  prelude=prelude or {})
    eval_instance(script, env)
    return env


class TestParsing:
    def test_inline_conditional_fail(self):
        script = parse_script(
            "if self.value % 2 != 0: fail('Size must be an even number')")
        assert len(script.statements) == 1
        assert script.uses_self

    def test_expression_statement(self):
        script = parse_script("valid_date(self.year, self.month, self.day)")
        assert len(script.statements) == 1

    def test_empty_script(self):
        script = parse_script("")
        assert script.statements == ()

    def test_indented_block(self):
        script = parse_script(
            "if self.x > 2:\n    fail('big')\n    fail('unreached')")
        assert len(script.statements) == 1

    def test_comments_and_blank_lines(self):
        script = parse_script("# setup\n\ncls.total = 0\n")
        assert len(script.statements) == 1

    def test_syntax_error_positions(self):
        with pytest.raises(ScriptSyntaxError) as exc:
            parse_script("x = 1\nif self.a >:\n    fail('x')")
        assert exc.value.line == 2

    def test_missing_block(self):
        with pytest.raises(ScriptSyntaxError, match="indented block"):
            parse_script("if self.a > 1:")

    def test_unterminated_interpolation(self):
        with pytest.raises(ScriptSyntaxError, match="unterminated"):
            parse_script("fail('oops {self.x')")

    def test_uses_append_snapshot_flag(self):
        assert parse_script("append_snapshot()").uses_append_snapshot
        assert not parse_script("cls.x = 1").uses_append_snapshot

    @pytest.mark.parametrize("text, snapshot_only", [
        ("append_snapshot()", True),
        ("# take it\n\n  append_snapshot ( )   # every instance\n\n", True),
        ("append_snapshot()\nappend_snapshot()", False),
        ("if True: append_snapshot()", False),
        ("append_snapshot(1)", False),
        ("x = 1\nappend_snapshot()", False),
    ])
    def test_snapshot_only_flag(self, text, snapshot_only):
        assert parse_script(text).snapshot_only is snapshot_only

    @pytest.mark.parametrize("text, writes_cls", [
        ("cls.x = 1", True),
        ("cls.x += 1", True),
        ("if self.x > 0:\n    y = 2\n    cls.x -= 1", True),
        ("x = cls.x", False),
        ("if self.x > cls.board_size: fail('{cls.board_size}')", False),
        ("append_snapshot()", False),
        ("# cls.x = 1", False),  # stored as no hook (test_schema)
    ])
    def test_writes_cls_flag(self, text, writes_cls):
        assert parse_script(text).writes_cls is writes_cls


class TestCalendar:
    def test_valid_date_passes(self):
        run_on("valid_date(self.year, self.month, self.day)",
               instance={"year": 1982, "month": 12, "day": 3})

    def test_invalid_date_fails_with_calendar_message(self):
        with pytest.raises(CheckFailure, match="no such calendar date"):
            run_on("valid_date(self.year, self.month, self.day)",
                   instance={"year": 2019, "month": 2, "day": 30})

    @pytest.mark.parametrize("year", [1, 4, 100, 400, 1900, 2000, 2019, 9999])
    def test_matches_independent_calendar_oracle(self, year):
        script = parse_script("valid_date(self.y, self.m, self.d)")
        for month in range(0, 14):
            for day in (0, 1, 28, 29, 30, 31, 32):
                env = EvalEnv(instance={"y": year, "m": month, "d": day})
                try:
                    eval_instance(script, env)
                    verdict = True
                except CheckFailure:
                    verdict = False
                assert verdict == proleptic_gregorian_valid(year, month, day), \
                    (year, month, day)


class TestEvaluation:
    def test_modulo_guard(self):
        with pytest.raises(CheckFailure):
            run_on("if self.maxbitrate % 50 != 0: fail('not divisible')",
                   instance={"maxbitrate": 8725})
        run_on("if self.maxbitrate % 50 != 0: fail('not divisible')",
               instance={"maxbitrate": 8700})

    def test_local_alias(self):
        with pytest.raises(CheckFailure, match="odd"):
            run_on("v = self.value\nif v % 2 == 1: fail('odd')",
                   instance={"value": 7})

    def test_membership(self):
        env = run_on("pos = [1, 2, 6, 7]\nif self.x in pos: fail('corner')",
                     instance={"x": 4})
        assert env.locals["pos"] == [1, 2, 6, 7]
        with pytest.raises(CheckFailure):
            run_on("if self.x in [1, 2]: fail('corner')", instance={"x": 2})
        with pytest.raises(CheckFailure):
            run_on("if self.x not in [1, 2]: fail('missing')", instance={"x": 9})

    def test_lists_nest_at_most_100_deep(self):
        wrap = "x = 0\n" + "x = [x, 1]\n" * 100
        assert run_on(wrap + "if len(x) != 2: fail('lost')").locals["x"][1] == 1
        with pytest.raises(ScriptEvalError, match="lists nested more than 100 levels deep"):
            run_on(wrap + "x = [1, [x]]")

    def test_overlong_integer_literal_is_a_syntax_error(self):
        with pytest.raises(ScriptSyntaxError, match="integer literal longer than") as exc:
            parse_script("x = 1\ny = 2 + " + "7" * 5000)
        assert (exc.value.line, exc.value.column) == (2, 9)

    def test_len_and_match_builtins(self):
        with pytest.raises(CheckFailure):
            run_on("if len(self.name) > 3: fail('long')", instance={"name": "abcd"})
        run_on("if not match(self.code, '[a-z]+'): fail('bad')",
               instance={"code": "abc"})
        with pytest.raises(CheckFailure):
            run_on("if not match(self.code, '[a-z]+'): fail('bad')",
                   instance={"code": "a1"})

    def test_interpolated_message(self):
        with pytest.raises(CheckFailure) as exc:
            run_on("fail('got {self.a} and {self.b + 1}')",
                   instance={"a": 5, "b": 6})
        assert exc.value.message == "got 5 and 7"

    def test_interpolation_renders_terms(self):
        with pytest.raises(CheckFailure) as exc:
            run_on("fail('Lost {self.property} on {self.reason}')",
                   instance={"property": "symmetry",
                             "reason": parse_term("(a,b)")})
        assert exc.value.message == "Lost symmetry on (a,b)"

    def test_boolean_operators_short_circuit(self):
        # The right conjunct would fail on evaluation; 'and' must not reach it.
        run_on("if self.a == 1 and self.b > 0: fail('x')",
               instance={"a": 2, "b": "text"})

    def test_unbounded_integers(self):
        env = run_on("cls.total = 0\ncls.total += self.v * self.v",
                     instance={"v": 2**40})
        assert env.class_store["total"] == 2**80

    @pytest.mark.parametrize("text", [
        "x = cls.n * 10", "x = cls.n * 9 + cls.n", "x = 0 - cls.n * 10",
        "cls.n += cls.n * 9", "cls.n -= 0 - cls.n * 9",
    ])
    def test_integer_results_have_at_most_4300_digits(self, text):
        store = {"n": 10**4299}
        assert run_on("x = cls.n * 9 - cls.n", class_store=store).locals["x"] == 8 * 10**4299
        with pytest.raises(ScriptEvalError, match="^integer result longer than 4300 digits$"):
            run_on(text, class_store=store)

    def test_lists_hold_at_most_a_million_items(self):
        wrap = "x = [" + ", ".join(["0"] * 999) + "]\n" + "x = [x, x]\n" * 9
        assert len(run_on(wrap).locals["x"]) == 2  # 2**9 * 999 + 1022 items
        with pytest.raises(ScriptEvalError, match="^lists hold more than 1000000 items$"):
            run_on(wrap + "x = [x, x]")

    def test_division_by_zero_is_eval_error(self):
        with pytest.raises(ScriptEvalError, match="division by zero"):
            run_on("x = self.v // 0", instance={"v": 1})

    def test_unknown_name_is_eval_error_not_failure(self):
        with pytest.raises(ScriptEvalError, match="unknown name"):
            run_on("if mystery > 1: fail('x')", instance={})

    def test_unknown_field_is_eval_error(self):
        with pytest.raises(ScriptEvalError, match="no field"):
            run_on("x = self.nope", instance={"value": 1})

    def test_condition_must_be_boolean(self):
        with pytest.raises(ScriptEvalError, match="not a boolean"):
            run_on("if self.v: fail('x')", instance={"v": 3})

    def test_prelude_constants_visible(self):
        consts = run_prelude(parse_script("limit = 100\nnames = ['a', 'b']"))
        assert consts == {"limit": 100, "names": ["a", "b"]}
        with pytest.raises(CheckFailure):
            run_on("if self.v > limit: fail('over')",
                   instance={"v": 101}, prelude=consts)

    def test_evaluation_is_repeatable(self):
        script = parse_script("if self.v > 1: fail('x')")
        env = EvalEnv(instance={"v": 0})
        eval_instance(script, env)
        eval_instance(script, env)
        assert env.instance == {"v": 0}
        assert env.class_store == {}


def run_spec(spec_text, facts_text=""):
    """Validate facts against a YAML spec through the engine's hook path."""
    return run(load_spec(spec_text), parse_facts(facts_text))


def only_diagnostic(report):
    assert len(report.diagnostics) == 1, report.diagnostics
    return report.diagnostics[0]


# Its name sorts after every other symbol, so its after_grounding hook
# runs last and reports the accumulator value the other hooks left behind.
PROBE = """
zz_probe:
    n: Integer
    valasp:
        after_grounding: |+
            fail('{cls.%s}')
"""


class TestClassHooks:
    def test_before_initializes_accumulators(self):
        report = run_spec("p:\n    a: Integer\n    valasp:\n"
                          "        before_grounding: |+\n"
                          "            cls.sum_positive_of_amount = 0\n"
                          + PROBE % "sum_positive_of_amount")
        diag = only_diagnostic(report)
        assert (diag.symbol, diag.rule, diag.message) == ("zz_probe", "hook-fail", "0")

    def test_empty_before_hook(self):
        report = run_spec("p:\n    a: Integer\n    valasp:\n"
                          "        before_grounding: ''\n", "p(1).")
        assert report.verdict == "valid"

    def test_after_hook_checks_accumulator(self):
        report = run_spec(
            "income:\n    amount: Integer\n    valasp:\n"
            "        before_grounding: |+\n"
            "            cls.sum_positive_of_amount = 3000000000\n"
            "        after_grounding: |+\n"
            "            if cls.sum_positive_of_amount > 2147483647:\n"
            "                fail('sum of amount in income may exceed 2147483647')\n")
        diag = only_diagnostic(report)
        assert (diag.phase, diag.rule) == ("after", "hook-fail")
        assert "may exceed 2147483647" in diag.message

    def test_accumulate_then_check(self):
        report = run_spec(
            "income:\n    company: Alpha\n    amount: Integer\n    valasp:\n"
            "        before_grounding: |+\n"
            "            cls.total = 0\n"
            "        after_init: |+\n"
            "            if self.amount > 0: cls.total += self.amount\n"
            + PROBE % "total",
            "income(a,1500000000). income(b,1500000000). income(c,-5).")
        assert only_diagnostic(report).message == "3000000000"

    def test_augmented_assign_requires_initialization(self):
        with pytest.raises(ScriptEvalError, match="not initialized"):
            eval_instance(parse_script("cls.total += 1"), EvalEnv())

    def test_after_sweep_over_snapshots(self):
        spec = (
            "size:\n    value: Integer\n    valasp:\n"
            "        after_init: |+\n"
            "            cls.board_size = self.value\n"
            "__in_range:\n    x: Integer\n    source: Any\n    valasp:\n"
            "        after_grounding: |+\n"
            "            if self.x > cls.board_size:\n"
            "                fail('Value out of bound in {self.source}: {self.x}')\n")
        moves = " ".join(f"__in_range({x},givenmove(1,7,3,{x}))." for x in (3, 7, 9))
        diag = only_diagnostic(run_spec(spec, "size(8). " + moves))
        assert diag.message == "Value out of bound in givenmove(1,7,3,9): 9"
        assert diag.instance == "__in_range(9,givenmove(1,7,3,9))"
        # All in bounds: the sweep is silent.
        assert run_spec(spec, "size(10). " + moves).verdict == "valid"

    def test_after_hook_without_self_runs_once(self):
        report = run_spec(
            "p:\n    x: Integer\n    valasp:\n"
            "        before_grounding: |+\n"
            "            cls.seen = 0\n"
            "        after_init: |+\n"
            "            append_snapshot()\n"
            "        after_grounding: |+\n"
            "            cls.seen += 1\n"
            + PROBE % "seen",
            "p(1). p(2). p(3).")
        assert only_diagnostic(report).message == "1"

    def test_self_unavailable_in_before_phase(self):
        report = run_spec("p:\n    v: Integer\n    valasp:\n"
                          "        before_grounding: |+\n"
                          "            cls.x = self.v\n", "p(1).")
        diag = only_diagnostic(report)
        assert (diag.phase, diag.rule) == ("before", "eval-error")
        assert "self is not available" in diag.message

    def test_locals_do_not_leak_across_snapshots(self):
        # p(2) binds seen; the sweep over p(3) must not see it.
        report = run_spec("p:\n    x: Integer\n    valasp:\n"
                          "        after_grounding: |+\n"
                          "            if self.x == 2: seen = 1\n"
                          "            if self.x == 3: fail('{seen}')\n", "p(2). p(3).")
        diag = only_diagnostic(report)
        assert (diag.phase, diag.rule, diag.message) == (
            "after", "eval-error", "after_grounding: unknown name 'seen'")

    @pytest.mark.parametrize("checks, want", [
        ("", [("instance", "min", "p(0,1)", "x: Should be >= 1, but received 0"),
              ("after", "hook-fail", "p(0,1)", "at 0"),
              ("after", "hook-fail", "p(2,1)", "at 2")]),
        ("        having: [x < y]\n",
         [("instance", "min", "p(0,1)", "x: Should be >= 1, but received 0"),
          ("instance", "having", "p(2,1)", "Expected x < y"),
          ("after", "hook-fail", "p(0,1)", "at 0")]),
    ])
    def test_snapshot_taken_when_a_facet_fails_not_a_comparison(self, checks, want):
        spec = ("p:\n    x: {type: Integer, min: 1}\n    y: Integer\n    valasp:\n" + checks
                + "        after_init: |+\n            append_snapshot()\n"
                "        after_grounding: |+\n            fail('at {self.x}')\n")
        report = run(load_spec(spec), parse_facts("p(0,1). p(2,1)."), RunOptions(fail_fast=False))
        assert [(d.phase, d.rule, d.instance, d.message) for d in report.diagnostics] == want


# Each failing attribute read, and append_snapshot with an argument, run by
# the engine under its hook label: p's hooks (p has x: q; q has value) and
# the facts.
@pytest.mark.parametrize("hooks_yaml, facts, want", [
    ("before_grounding: |+\n            y = self.x\n", "p(1).",
     ("before", "eval-error", None, "before_grounding: self is not available in this hook phase")),
    ("after_init: |+\n            y = self.nope\n", "p(1).",
     ("instance", "eval-error", "p(1)", "after_init: instance has no field 'nope'")),
    ("after_grounding: |+\n            y = self.nope\n", "p(1).",
     ("after", "eval-error", None, "after_grounding: instance has no field 'nope'")),
    ("after_init: |+\n            y = cls.nope\n", "p(1).",
     ("instance", "eval-error", "p(1)", "after_init: cls.nope is not set")),
    ("after_grounding: |+\n            y = cls.nope\n", "p(1).",
     ("after", "eval-error", None, "after_grounding: cls.nope is not set")),
    ("after_grounding: |+\n            fail('{self.x.value}')\n", "p(7).",
     ("after", "hook-fail", "p(7)", "7")),
    ("after_init: |+\n            y = self.x.nope\n", "p(1).",
     ("instance", "eval-error", "p(1)", "after_init: q has no field 'nope'")),
    ("before_grounding: |+\n            cls.lst = [1]\n"
     "        after_grounding: |+\n            y = cls.lst.x\n", "p(1).",
     ("after", "eval-error", None, "after_grounding: value of type _ListValue has no attributes")),
    ("after_init: |+\n            append_snapshot(1)\n", "p(1).",
     ("instance", "eval-error", "p(1)", "after_init: append_snapshot takes no arguments")),
])
def test_every_attribute_error_under_its_hook_label(hooks_yaml, facts, want):
    spec = ("p:\n    x: q\n    valasp:\n        " + hooks_yaml
            + "q:\n    value: Integer\n")
    report = run(load_spec(spec), parse_facts(facts), RunOptions(fail_fast=False))
    assert [(d.phase, d.rule, d.instance, d.message) for d in report.diagnostics] == [want]


def having_spec(fields, comparison):
    """A spec of one symbol p with the given fields and one having comparison."""
    lines = ["p:"] + [f"    {name}: {kind}" for name, kind in fields]
    lines += ["    valasp:", f"        having: [{comparison}]"]
    return "\n".join(lines) + "\n"


class TestHaving:
    def test_message_matches_declared_comparison(self):
        spec = having_spec([("first", "Integer"), ("second", "Integer")], "first < second")
        diag = only_diagnostic(run_spec(spec, "p(3, 1)."))
        assert (diag.rule, diag.message) == ("having", "Expected first < second")

    def test_term_order_on_user_typed_fields(self):
        spec = "node:\n    value: Integer\n" + having_spec(
            [("x", "node"), ("y", "node")], "x < y")
        assert run_spec(spec, "p(1, 2).").verdict == "valid"
        diag = only_diagnostic(run_spec(spec, "p(2, 1)."))
        assert (diag.rule, diag.message) == ("having", "Expected x < y")

    def test_reflexive_equality_always_succeeds(self):
        for kind, value in (("Integer", "0"), ("Integer", "-5"), ("String", '"text"')):
            report = run_spec(having_spec([("a", kind)], "a == a"), f"p({value}).")
            assert report.verdict == "valid", report.diagnostics

    @pytest.mark.parametrize("op,ok,bad", [
        ("<", (1, 2), (2, 2)),
        ("<=", (2, 2), (3, 2)),
        (">", (3, 2), (2, 2)),
        (">=", (2, 2), (1, 2)),
        ("==", (2, 2), (1, 2)),
        ("!=", (1, 2), (2, 2)),
    ])
    def test_every_operator(self, op, ok, bad):
        spec = having_spec([("l", "Integer"), ("r", "Integer")], f"l {op} r")
        assert run_spec(spec, "p(%d, %d)." % ok).verdict == "valid"
        diag = only_diagnostic(run_spec(spec, "p(%d, %d)." % bad))
        assert (diag.rule, diag.message) == ("having", f"Expected l {op} r")

    def test_mixed_types_are_an_eval_error_then_a_having_failure(self):
        spec = load_spec("p:\n    a: Integer\n    b: String\n"
                         "    valasp:\n        having: [a < b, a == b]\n")
        report = run(spec, parse_facts('p(1, "x").'), RunOptions(fail_fast=False))
        assert render_report(report, "jsonl").splitlines() == [
            '{"arity": 2, "instance": "p(1,\\"x\\")", "message": "having a < b:'
            ' cannot compare int with str", "phase": "instance", "rule": "eval-error",'
            ' "symbol": "p"}',
            '{"arity": 2, "instance": "p(1,\\"x\\")", "message": "Expected a == b",'
            ' "phase": "instance", "rule": "having", "symbol": "p"}',
        ]


def test_run_parses_no_script(monkeypatch):
    # Every hook, the prelude and the having comparisons are parsed when the
    # spec loads; a run only evaluates them.
    spec = load_spec(
        "valasp:\n    script: |+\n        limit = 9\n"
        "p:\n    a: Integer\n    b: Integer\n    valasp:\n"
        "        having: [a < b]\n"
        "        before_grounding: |+\n            cls.n = 0\n"
        "        after_init: |+\n            cls.n += 1\n"
        "        after_grounding: |+\n            if cls.n > limit: fail('many')\n")
    calls = []
    parse = hooks.parse_script
    monkeypatch.setattr(hooks, "parse_script", lambda *a: calls.append(a) or parse(*a))
    report = run(spec, parse_facts("p(1, 2). p(3, 4)."))
    assert report.verdict == "valid", report.diagnostics
    assert calls == []


_AT_THE_LIMIT = [
    "if " + "not " * 100 + "True: x = 1",
    "x = " + "-" * 100 + "1",
    "x = " + "(" * 100 + "1" + ")" * 100,
    "x = " + "[" * 100 + "1" + "]" * 100,
    "x = " + "len(" * 100 + "1" + ")" * 100,
    "x = 1" + " + 1" * 100,
    "x = self" + ".a" * 100,
    "x = " + "(" * 50 + "1" + " + 1 + 1)" * 50,  # two levels per parenthesis
    "".join(" " * i + "if True:\n" for i in range(100)) + " " * 100 + "x = 1",
]


@pytest.mark.parametrize("text", _AT_THE_LIMIT)
def test_nesting_at_the_limit_parses(text):
    assert parse_script(text)


@pytest.mark.parametrize("text, outcome", zip(_AT_THE_LIMIT, [
    1, 1, 1, "list", "len expects one string or list argument", 101,
    "value of type int has no attributes", 101, 1,
]))
def test_nesting_at_the_limit_evaluates(text, outcome):
    # A value or a ScriptEvalError, never a RecursionError.
    try:
        value = run_on(text, instance={"a": 1}).locals["x"]
    except ScriptEvalError as exc:
        assert str(exc) == outcome
    else:
        if outcome == "list":
            for _ in range(99):
                [value] = value
            assert value == [1]
        else:
            assert value == outcome


@pytest.mark.parametrize("text,line,column", [
    ("if " + "not " * 101 + "True: x = 1", 1, 4),
    ("x = " + "-" * 101 + "1", 1, 5),
    ("x = " + "(" * 101 + "1" + ")" * 101, 1, 105),
    ("x = " + "[" * 101 + "1" + "]" * 101, 1, 105),
    ("x = " + "len(" * 101 + "1" + ")" * 101, 1, 408),
    ("x = 1" + " + 1" * 101, 1, 407),
    ("x = self" + ".a" * 101, 1, 5),
    ("x = " + "(" * 51 + "1" + " + 1 + 1)" * 51, 1, 508),
    ("y = 0\n" + "".join(" " * i + "if True:\n" for i in range(101)) + " " * 101 + "x = 1",
     102, 101),
])
def test_nesting_beyond_the_limit_is_a_positioned_error(text, line, column):
    with pytest.raises(ScriptSyntaxError, match="nested more than 100 levels") as exc:
        parse_script(text)
    assert (exc.value.line, exc.value.column) == (line, column)


_DATE = CheckedInstance("date", {"y": 1}, parse_term("date(1)"))

# One script per place the evaluator raises, with the full message.  The
# order cases pin which operand is evaluated first: the list before the
# item of 'in', call arguments before the function is looked up, and the
# class field before the right-hand side of '+='.
@pytest.mark.parametrize("text, instance, store, error, message", [
    ("cls.t += 1", None, {}, ScriptEvalError,
     "cls.t is not initialized (set it in before_grounding)"),
    ("cls.t -= missing", None, {}, ScriptEvalError,
     "cls.t is not initialized (set it in before_grounding)"),
    ("cls.t += 'a'", None, {"t": 1}, ScriptEvalError, "cls.t += needs integer operands"),
    ("cls.t -= 1", None, {"t": "a"}, ScriptEvalError, "cls.t -= needs integer operands"),
    ("x = mystery", None, {}, ScriptEvalError, "unknown name 'mystery'"),
    ("x = self.a", None, {}, ScriptEvalError, "self is not available in this hook phase"),
    ("x = cls.n.x", None, {"n": 1}, ScriptEvalError, "value of type int has no attributes"),
    ("x = self.nope", {"a": 1}, {}, ScriptEvalError, "instance has no field 'nope'"),
    ("x = cls.nope", None, {}, ScriptEvalError, "cls.nope is not set"),
    ("x = self.d.nope", {"d": _DATE}, {}, ScriptEvalError, "date has no field 'nope'"),
    ("x = self.a.b", {"a": 1}, {}, ScriptEvalError, "value of type int has no attributes"),
    ("x = -'a'", None, {}, ScriptEvalError, "unary '-' needs an integer"),
    ("x = --True", None, {}, ScriptEvalError, "unary '-' needs an integer"),
    ("x = 1 in 2", None, {}, ScriptEvalError, "'in' expects a list on the right-hand side"),
    ("x = item not in items", None, {}, ScriptEvalError, "unknown name 'items'"),
    pytest.param("x = 0\n" + "x = [x]\n" * 101, None, {}, ScriptEvalError,
                 "lists nested more than 100 levels deep", id="list-101-deep"),
    ("x = len(1)", None, {}, ScriptEvalError, "len expects one string or list argument"),
    ("x = len('a', 'b')", None, {}, ScriptEvalError,
     "len expects one string or list argument"),
    ("x = match('a')", None, {}, ScriptEvalError, "match expects (text, pattern) strings"),
    ("x = match('a', '[')", None, {}, ScriptEvalError,
     "bad pattern in match: unterminated character set at position 0"),
    ("append_snapshot(1)", None, {}, ScriptEvalError, "append_snapshot takes no arguments"),
    ("append_snapshot()", None, {}, ScriptEvalError,
     "append_snapshot is only available in after_init"),
    ("x = nosuch(1)", None, {}, ScriptEvalError, "unknown function 'nosuch'"),
    ("x = nosuch(missing)", None, {}, ScriptEvalError, "unknown name 'missing'"),
    ("valid_date(1, 2)", None, {}, ScriptEvalError,
     "valid_date expects three integers (year, month, day)"),
    ("valid_date(1, 2, True)", None, {}, ScriptEvalError,
     "valid_date expects three integers (year, month, day)"),
    ("if 1: x = 1", None, {}, ScriptEvalError, "condition is int, not a boolean"),
    ("x = True and 1", None, {}, ScriptEvalError, "condition is int, not a boolean"),
    ("x = False or 'a'", None, {}, ScriptEvalError, "condition is str, not a boolean"),
    ("x = not [1]", None, {}, ScriptEvalError, "condition is _ListValue, not a boolean"),
    ("x = self.t < [1]", {"t": parse_term("a")}, {}, ScriptEvalError,
     "cannot order a value of type _ListValue"),
    ("x = 1 < 'a'", None, {}, ScriptEvalError, "cannot compare int with str"),
    ("x = True < False", None, {}, ScriptEvalError, "cannot compare bool with bool"),
    ("x = 1 + 'a'", None, {}, ScriptEvalError, "arithmetic '+' needs integer operands"),
    ("x = [1] * 2", None, {}, ScriptEvalError, "arithmetic '*' needs integer operands"),
    ("x = 1 // 0", None, {}, ScriptEvalError, "division by zero"),
    ("x = 1 % 0", None, {}, ScriptEvalError, "division by zero"),
    ("fail('got {self.a + 1} of {self.t}, {[True, \"s\"]}')",
     {"a": 1, "t": parse_term('f(a,"b")')}, {}, CheckFailure, 'got 2 of f(a,"b"), [True, s]'),
    ("fail((('at {cls.n}')))", None, {"n": 3}, CheckFailure, "at 3"),
    ("m = 'no {1}'\nfail(m)", None, {}, CheckFailure, "no {1}"),
    ("fail('a' + 'b')", None, {}, ScriptEvalError, "arithmetic '+' needs integer operands"),
    ("fail(self.d)", {"d": _DATE}, {}, CheckFailure, "date(1)"),
    ("fail(False)", None, {}, CheckFailure, "False"),
    ("valid_date(2019, 2, 30)", None, {}, CheckFailure, "no such calendar date: 2019-2-30"),
])
def test_every_evaluation_error_message(text, instance, store, error, message):
    with pytest.raises(error) as exc:
        run_on(text, instance=instance, class_store=store)
    assert str(exc.value) == message


# Every syntax error the script parser raises, message and position.
@pytest.mark.parametrize("text, message", [
    ("x = 1 $ 2", "unexpected character '$' (line 1, column 7)"),
    ("x = 'a\\t'", "unsupported escape \\t (line 1, column 5)"),
    ("x = ", "expected an expression, got end of line (line 1, column 4)"),
    ("x = )", "expected an expression, got ')' (line 1, column 5)"),
    ("x = self.1", "expected an attribute name after '.', got '1' (line 1, column 10)"),
    ("x = self", "expected '.' after 'self', got end of line (line 1, column 9)"),
    ("x = cls + 1", "expected '.' after 'cls', got '+' (line 1, column 9)"),
    ("x = f(1", "expected ')' closing the call, got end of line (line 1, column 8)"),
    ("x = [1, 2", "expected ']' closing the list, got end of line (line 1, column 10)"),
    ("x = (1", "expected ')', got end of line (line 1, column 7)"),
    ("x = 1 < 2 < 3", "expected end of line, got '<' (line 1, column 11)"),
    ("x = 1 2", "expected end of line, got '2' (line 1, column 7)"),
    ("fail 'a'", "expected '(' after fail, got \"'a'\" (line 1, column 6)"),
    ("fail('a' 'b')", "expected ')' closing fail, got \"'b'\" (line 1, column 10)"),
    ("fail('a {1 +}')", "expected an expression, got end of line (line 1, column 13)"),
    ("fail('a {1 2}')", "expected end of interpolated expression, got '2' (line 1, column 12)"),
    ("fail('\\n\\'{1 2}')",
     "expected end of interpolated expression, got '2' (line 1, column 14)"),
    # Escapes inside the braces count as written, two characters each.
    ("fail('{1 == \\'a\\' $}')", "unexpected character '$' (line 1, column 19)"),
    ("fail('{\\'a\\' 2}')",
     "expected end of interpolated expression, got '2' (line 1, column 14)"),
    ("fail('a {1')", "unterminated '{' in fail message (line 1, column 1)"),
    ("if True x = 1", "expected ':' after the if condition, got 'x' (line 1, column 9)"),
    ("if True: x = 1 2", "expected end of line after the inline statement, got '2'"
     " (line 1, column 16)"),
    ("if True:\nx = 1", "expected an indented block after 'if ...:' (line 1, column 1)"),
    ("x = 1\n  y = 2", "unexpected indentation (line 2, column 3)"),
    ("if True:\n    x = 1\n  y = 2", "unexpected indentation (line 3, column 3)"),
    ("if True:\n  x = 1\n    y = 2", "unexpected indentation (line 3, column 5)"),
    # Columns count the indentation, a tab as up to 4 spaces.
    ("if True:\n    x = 1 2", "expected end of line, got '2' (line 2, column 11)"),
    ("if True:\n\tx = 1 2", "expected end of line, got '2' (line 2, column 11)"),
    ("x = 1 +", "expected an expression, got end of line (line 1, column 8)"),
    ("cls.x = ", "expected an expression, got end of line (line 1, column 8)"),
    pytest.param("x = 10" + "0" * 5000,
                 "integer literal longer than 4300 digits (line 1, column 5)", id="long-literal"),
])
def test_every_syntax_error_message(text, message):
    with pytest.raises(ScriptSyntaxError) as exc:
        parse_script(text)
    assert str(exc.value) == message


# Well-typed expressions as trees: ("int", n), ("bool", b), ("list", items),
# ("neg", e), ("not", e), ("and" | "or", parts), ("cmp", op, left, right)
# and (arithmetic op, left, right).
_ints = st.deferred(lambda: st.one_of(
    st.builds(lambda n: ("int", n), st.integers(-50, 50)),
    st.builds(lambda e: ("neg", e), _ints),
    st.tuples(st.sampled_from(["+", "-", "*", "//", "%"]), _ints, _ints),
))
_int_lists = st.builds(lambda items: ("list", items), st.lists(_ints, max_size=3))
_bools = st.deferred(lambda: st.one_of(
    st.builds(lambda b: ("bool", b), st.booleans()),
    st.tuples(st.just("cmp"), st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              _ints, _ints),
    st.tuples(st.just("cmp"), st.sampled_from(["==", "!="]), _bools, _bools),
    st.tuples(st.just("cmp"), st.sampled_from(["==", "!="]), _int_lists, _int_lists),
    st.tuples(st.just("cmp"), st.sampled_from(["in", "not in"]), _ints, _int_lists),
    st.builds(lambda e: ("not", e), _bools),
    st.tuples(st.sampled_from(["and", "or"]), st.lists(_bools, min_size=2, max_size=3)),
))

# Binding strength, as in Python; an atom binds tightest.
_STRENGTH = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5,
             "*": 6, "//": 6, "%": 6, "neg": 7}
_ATOM = 8


def _source(node, redundant: bool) -> tuple[str, int]:
    """(text, binding strength) of node; redundant parenthesizes every operand."""
    kind = node[0]
    if kind == "int":
        return (str(node[1]), _ATOM) if node[1] >= 0 else (f"-{-node[1]}", _STRENGTH["neg"])
    if kind == "bool":
        return str(node[1]), _ATOM
    if kind == "list":
        return "[" + ", ".join(_source(x, redundant)[0] for x in node[1]) + "]", _ATOM

    def operand(child, strength):
        text, own = _source(child, redundant)
        return f"({text})" if own < strength or (redundant and own < _ATOM) else text

    strength = _STRENGTH[kind]
    if kind == "neg":
        return "-" + operand(node[1], strength), strength
    if kind == "not":
        return "not " + operand(node[1], strength), strength
    if kind in ("and", "or"):
        return f" {kind} ".join(operand(x, strength + 1) for x in node[1]), strength
    if kind == "cmp":  # comparisons never chain
        _, op, left, right = node
        return f"{operand(left, strength + 1)} {op} {operand(right, strength + 1)}", strength
    left, right = node[1:]
    return f"{operand(left, strength)} {kind} {operand(right, strength + 1)}", strength


@given(st.one_of(_ints, _bools, _int_lists), st.booleans())
@settings(max_examples=200)
def test_expressions_evaluate_as_in_python(tree, redundant):
    text = _source(tree, redundant)[0]
    try:
        want = eval(text, {"__builtins__": {}})
    except ZeroDivisionError:
        with pytest.raises(ScriptEvalError, match="^division by zero$"):
            run_on(f"v = {text}")
        return
    got = run_on(f"v = {text}").locals["v"]
    assert (got, type(got) is bool) == (want, type(want) is bool), text
