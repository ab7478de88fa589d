"""Hook mini-language: parsing, evaluation, class hooks, having."""

import pytest

from aspcheck.hooks import (
    CheckedInstance,
    CheckFailure,
    EvalEnv,
    ScriptEvalError,
    ScriptSyntaxError,
    compile_having,
    eval_instance,
    parse_script,
    run_prelude,
)
from aspcheck.engine import run
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


class TestHaving:
    def test_message_matches_declared_comparison(self):
        script = compile_having("first", "<", "second")
        with pytest.raises(CheckFailure) as exc:
            eval_instance(script, EvalEnv(instance={"first": 3, "second": 1}))
        assert exc.value.message == "Expected first < second"

    def test_term_order_on_user_typed_fields(self):
        script = compile_having("x", "<", "y")
        small = CheckedInstance("node", {"value": 1}, parse_term("1"))
        big = CheckedInstance("node", {"value": 2}, parse_term("2"))
        eval_instance(script, EvalEnv(instance={"x": small, "y": big}))
        with pytest.raises(CheckFailure, match="Expected x < y"):
            eval_instance(script, EvalEnv(instance={"x": big, "y": small}))

    def test_reflexive_equality_always_succeeds(self):
        script = compile_having("a", "==", "a")
        for value in (0, -5, "text"):
            eval_instance(script, EvalEnv(instance={"a": value}))

    @pytest.mark.parametrize("op,ok,bad", [
        ("<", (1, 2), (2, 2)),
        ("<=", (2, 2), (3, 2)),
        (">", (3, 2), (2, 2)),
        (">=", (2, 2), (1, 2)),
        ("==", (2, 2), (1, 2)),
        ("!=", (1, 2), (2, 2)),
    ])
    def test_every_operator(self, op, ok, bad):
        script = compile_having("l", op, "r")
        eval_instance(script, EvalEnv(instance={"l": ok[0], "r": ok[1]}))
        with pytest.raises(CheckFailure):
            eval_instance(script, EvalEnv(instance={"l": bad[0], "r": bad[1]}))
