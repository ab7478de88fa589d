"""Hook mini-language: parsing, evaluation, class hooks, having."""

import pytest

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
        assert not script

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


@pytest.mark.parametrize("text", [
    "if " + "not " * 100 + "True: x = 1",
    "x = " + "-" * 100 + "1",
    "x = " + "(" * 100 + "1" + ")" * 100,
    "x = " + "[" * 100 + "1" + "]" * 100,
    "x = " + "len(" * 100 + "1" + ")" * 100,
    "x = 1" + " + 1" * 100,
    "x = self" + ".a" * 100,
    "x = " + "(" * 50 + "1" + " + 1 + 1)" * 50,  # two levels per parenthesis
    "".join(" " * i + "if True:\n" for i in range(100)) + " " * 100 + "x = 1",
])
def test_nesting_at_the_limit_parses(text):
    assert parse_script(text)


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
     102, 1),
])
def test_nesting_beyond_the_limit_is_a_positioned_error(text, line, column):
    with pytest.raises(ScriptSyntaxError, match="nested more than 100 levels") as exc:
        parse_script(text)
    assert (exc.value.line, exc.value.column) == (line, column)
