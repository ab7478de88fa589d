"""Command-line behavior: exit codes, formats, modes."""

import json
import os
import random
import shlex
import subprocess
import sys
import textwrap

import pytest

from aspcheck import engine
from aspcheck.cli import EXIT_INTERNAL_ERROR, main
from aspcheck.diagnostics import render_report
from aspcheck.engine import RunOptions, run
from aspcheck.schema import load_spec
from aspcheck.terms import Func, Number, ParseError, Tuple, parse_facts, render

from _support import FIXTURES, STUB_GROUNDER, fixture_text, load_fixture, random_facts

STUB_CMD = shlex.join([sys.executable, str(STUB_GROUNDER)])
VERDICT_CODES = {"valid": 0, "invalid": 1, "spec-error": 2}

INCOME_FACTS = ('income("Acme ASP",1500000000).\n'
                'income("Yoyodyne YAML",1500000000).\n')


@pytest.fixture
def income_spec(tmp_path):
    path = tmp_path / "income.yaml"
    path.write_text(fixture_text("income.yaml"))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_income_overflow_exit_1(self, income_spec, tmp_path, capsys):
        facts = write(tmp_path, "incomes.lp", INCOME_FACTS)
        assert main(["validate", income_spec, facts]) == 1
        out = capsys.readouterr().out
        assert "sum-pos" in out
        assert "3000000000" in out

    def test_valid_corpus_exit_0(self, tmp_path, capsys):
        spec = write(tmp_path, "bday.yaml", fixture_text("bday.yaml"))
        facts = write(tmp_path, "ok.lp", "bday(sofia, date(2019,6,25)).")
        assert main(["validate", spec, facts]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_spec_flag_instead_of_positional(self, income_spec, tmp_path):
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        assert main(["validate", "--spec", income_spec, facts]) == 0

    def test_reserved_field_name_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "broken.yaml", "pred:\n    valasp: Integer\n")
        facts = write(tmp_path, "x.lp", "pred(1).")
        assert main(["validate", spec, facts]) == 2
        assert "reserved" in capsys.readouterr().err

    def test_unreadable_path_exit_3(self, income_spec, tmp_path):
        assert main(["validate", income_spec, str(tmp_path / "absent.lp")]) == 3

    def test_undecodable_file_exit_3(self, income_spec, tmp_path):
        path = tmp_path / "binary.lp"
        path.write_bytes(b"\xff\xfe\x00junk")
        assert main(["validate", income_spec, str(path)]) == 3

    def test_malformed_facts_exit_1(self, income_spec, tmp_path, capsys):
        facts = write(tmp_path, "bad.lp", "income(\n")
        assert main(["validate", income_spec, facts]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_unsupported_string_escape_exit_1(self, tmp_path, capsys):
        spec = write(tmp_path, "q.yaml", "q:\n    s: String\n")
        facts = write(tmp_path, "tab.lp", 'q("a\\tb").\n')
        assert main(["validate", spec, facts]) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err
        assert "(line 1, column 5)" in err

    @pytest.mark.parametrize("facts_text, position", [
        ("p(1).\np(a..b).\n", "(line 2, column 3)"),
        ("p(1/0).\n", "(line 1, column 4)"),
    ])
    def test_bad_constant_in_fact_exit_1(self, tmp_path, capsys, facts_text, position):
        spec = write(tmp_path, "p.yaml", "p:\n    x: Integer\n")
        facts = write(tmp_path, "bad.lp", facts_text)
        assert main(["validate", spec, facts]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ")
        assert position in err

    @pytest.mark.parametrize("facts_text, message", [
        ("p(-a).\n", "arithmetic on non-integers (-) (line 1, column 3)"),
        ("p(a+1).\n", "arithmetic on non-integers (+) (line 1, column 4)"),
        ('p("s"*2).\n', "arithmetic on non-integers (*) (line 1, column 6)"),
        ("p(1).\np(--f(1)).\n", "arithmetic on non-integers (-) (line 2, column 4)"),
    ])
    def test_arithmetic_on_non_integers_in_fact_exit_1(self, tmp_path, capsys, facts_text,
                                                       message):
        spec = write(tmp_path, "p.yaml", "p:\n    x: Any\n")
        assert main(["validate", spec, write(tmp_path, "bad.lp", facts_text)]) == 1
        err = capsys.readouterr().err
        assert err == f"invalid input: {message}\n"
        assert "Traceback" not in err

    def test_anonymous_variable_in_a_fact_exit_1(self, tmp_path, capsys):
        spec = write(tmp_path, "p.yaml", "p:\n    x: Any\n")
        facts = write(tmp_path, "anon.lp", "p(_).\n")
        assert main(["validate", spec, facts]) == 1
        assert capsys.readouterr() == ("", "invalid input: unsafe variable _ in rule: p(_).\n")

    def test_arithmetic_on_non_integers_in_a_rule_stays_lazy(self, tmp_path, capsys):
        spec = write(tmp_path, "p.yaml", "p:\n    x: Any\n")
        facts = write(tmp_path, "rule.lp", "p(1).\nq(Y) :- r(X), Y = -a.\n")
        assert main(["validate", spec, facts]) == 0
        assert capsys.readouterr().out == "valid\n"

    @pytest.mark.parametrize("depth, code", [(100, 0), (101, 1), (5000, 1)])
    def test_deep_nesting(self, tmp_path, capsys, depth, code):
        spec = write(tmp_path, "p.yaml", "p:\n    x: Any\n")
        facts = write(tmp_path, "deep.lp", "p(" + "f(" * depth + "1" + ")" * depth + ").")
        assert main(["validate", spec, facts]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("invalid input: terms nested more than 100 levels")
            assert "(line 1, column 204)" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("signs, code", [(5000, 0), (5001, 1)])
    def test_long_run_of_unary_minus(self, tmp_path, capsys, signs, code):
        spec = write(tmp_path, "p.yaml", "p:\n    x:\n        type: Integer\n"
                                         "        min: 0\n")
        facts = write(tmp_path, "minus.lp", "p(" + "-" * signs + "3).")
        assert main(["validate", spec, facts]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code:
            assert "p(-3)" in out and "min" in out

    @pytest.mark.parametrize("spec_text, facts_text, verdict", [
        ("p:\n    x: Integer\n", "p((1)).\n", "valid"),
        ("q:\n    s: String\n", 'q("a\\tb").\n', "invalid"),
    ])
    def test_same_verdict_as_library(self, tmp_path, capsys, spec_text, facts_text,
                                     verdict):
        spec = write(tmp_path, "spec.yaml", spec_text)
        facts = write(tmp_path, "data.lp", facts_text)
        cli_verdict = {0: "valid", 1: "invalid"}[main(["validate", spec, facts])]
        try:
            lib_verdict = run(load_spec(spec_text), parse_facts(facts_text)).verdict
        except ParseError:
            lib_verdict = "invalid"
        assert (cli_verdict, lib_verdict) == (verdict, verdict)

    def test_stdin_dash(self, income_spec, monkeypatch, capsys):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(INCOME_FACTS))
        assert main(["validate", income_spec, "-"]) == 1

    def test_multiple_files_concatenate_in_order(self, income_spec, tmp_path):
        first = write(tmp_path, "a.lp", 'income("A", 1500000000).')
        second = write(tmp_path, "b.lp", 'income("B", 1500000000).')
        assert main(["validate", income_spec, first, second]) == 1

    def test_rules_in_input_are_evaluated(self, income_spec, tmp_path):
        program = write(tmp_path, "derive.lp",
                        'seed(1).\nincome("Derived", -1) :- seed(1).')
        assert main(["validate", income_spec, program]) == 1

    def test_all_errors_collects(self, income_spec, tmp_path, capsys):
        facts = write(tmp_path, "bad.lp", 'income("A", -1). income("B", -2).')
        assert main(["validate", "--all-errors", income_spec, facts]) == 1
        out = capsys.readouterr().out
        assert out.count("min:") == 2

    def test_valid_only_flag_accepted(self, income_spec, tmp_path):
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        assert main(["validate", "--valid-only", income_spec, facts]) == 0

    def test_jsonl_format(self, income_spec, tmp_path, capsys):
        facts = write(tmp_path, "incomes.lp", INCOME_FACTS)
        assert main(["validate", "--format", "jsonl", income_spec, facts]) == 1
        line = capsys.readouterr().out.strip()
        record = json.loads(line)
        assert record["rule"] == "sum-pos"
        assert record["symbol"] == "income"

    def test_structured_output_is_byte_identical(self, income_spec, tmp_path, capsys):
        facts = write(tmp_path, "incomes.lp", INCOME_FACTS)
        main(["validate", "--format", "jsonl", income_spec, facts])
        first = capsys.readouterr().out
        main(["validate", "--format", "jsonl", income_spec, facts])
        second = capsys.readouterr().out
        assert first == second

    def test_exit_codes_are_reproducible(self, income_spec, tmp_path):
        facts = write(tmp_path, "incomes.lp", INCOME_FACTS)
        codes = {main(["validate", income_spec, facts]) for _ in range(3)}
        assert codes == {1}


class TestOrdinaryPrograms:
    """A constraint is read and dropped; an @-term fails only where it is evaluated."""

    @pytest.mark.parametrize("data, code, out", [
        ('income("a",1).\n:- income(X,Y), Y > 100.\n', 0, "valid\n"),
        ('income("a",-1).\n:- income(X,Y), Y < 0.\n', 1,
         'income/2: min: amount: Should be >= 0, but received -1 [income("a",-1)]\ninvalid\n'),
        ('income("a",1).\np(Y) :- q(X), Y = @f(X).\nq(1).\n', 2,
         ": eval-error: externally interpreted term @f cannot be evaluated in rule:"
         " p(Y) :- q(X), Y = @f(X). with {X: 1}\nspec-error\n"),
        ('income("a",1).\np(X) :- r(X), q(@f(X)).\nr(1). q(1).\n', 2,
         ": eval-error: externally interpreted term @f cannot be evaluated in rule:"
         " p(X) :- r(X), q(@f(X)). with {X: 1}\nspec-error\n"),
        ('income("a",1).\np(Y) :- q(X), Y = @f(X).\n', 0, "valid\n"),  # never reached
    ])
    @pytest.mark.parametrize("mode", ["builtin", "bridge"])
    def test_verdict(self, income_spec, tmp_path, capsys, data, code, out, mode):
        facts = write(tmp_path, "program.lp", data)
        assert main(["validate", "--mode", mode, "--grounder-cmd", STUB_CMD,
                     income_spec, facts]) == (3 if mode == "bridge" and code == 2 else code)
        captured = capsys.readouterr()
        if mode == "builtin" or code != 2:
            assert captured.out == out
        else:  # the stub grounder stops with the same message
            assert out.splitlines()[0][len(": eval-error: "):] in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.yaml")))
    def test_cli_and_library_agree_on_facts(self, name, tmp_path, capsys):
        spec_path = write(tmp_path, name, fixture_text(name))
        spec = load_fixture(name)
        for seed in range(6):
            rng = random.Random(seed)
            spell = render if seed < 5 else _folded
            text = "".join(spell(f.term()) + ".\n"
                           for f in random_facts(rng, spec, rng.randint(0, 8)))
            data = write(tmp_path, "data.lp", text)
            for flags, fail_fast in (([], True), (["--all-errors"], False)):
                code = main(["validate", spec_path, data, "--format", "jsonl", *flags])
                report = run(spec, parse_facts(text), RunOptions(fail_fast=fail_fast))
                rendered = render_report(report, "jsonl")
                assert capsys.readouterr().out == (rendered + "\n" if rendered else "")
                assert code == VERDICT_CODES[report.verdict]


def _folded(term) -> str:
    """render(term) with each integer n written as --(n-1)+1, which folds to n."""
    if isinstance(term, Number):
        return f"--{term.value - 1}+1"
    if isinstance(term, (Func, Tuple)):
        inner = ",".join(map(_folded, term.args))
        if isinstance(term, Func):
            return f"{term.name}({inner})"
        return f"({inner},)" if len(term.args) == 1 else f"({inner})"
    return render(term)


class TestBridgeMode:
    @pytest.mark.parametrize("name", ["budget.yaml", "graph.yaml", "knight.yaml",
                                      "poset.yaml", "solitaire.yaml"])
    def test_stub_grounder_output_matches_builtin(self, name, tmp_path, capsys):
        spec_path = write(tmp_path, name, fixture_text(name))
        rng = random.Random(11)
        data = write(tmp_path, "data.lp", "".join(
            render(f.term()) + ".\n" for f in random_facts(rng, load_fixture(name), 12)))
        runs = []
        for mode in ("builtin", "bridge"):
            code = main(["validate", "--mode", mode, "--grounder-cmd", STUB_CMD, "--all-errors",
                         "--format", "jsonl", spec_path, data])
            out, err = capsys.readouterr()
            runs.append((code, out, err))
        (code, out, err), (bridge_code, bridge_out, bridge_err) = runs
        if code == 2:  # evaluation failed; the stub grounder fails with its message
            assert bridge_code == 3
            bridge_out = bridge_out.replace('"grounder exited with status 1: ', '"').replace(
                '"bridge-error"', '"eval-error"')
        else:
            assert bridge_code == code
        assert (bridge_out, bridge_err) == (out, err)

    def test_bridge_with_stub_grounder(self, income_spec, tmp_path, capsys):
        facts = write(tmp_path, "incomes.lp", INCOME_FACTS)
        cmd = f"{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\""
        assert main(["validate", "--mode", "bridge", "--grounder-cmd", cmd,
                     income_spec, facts]) == 1
        assert "sum-pos" in capsys.readouterr().out

    def test_bridge_without_grounder_exit_3(self, income_spec, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.delenv("ASPCHECK_GROUNDER", raising=False)
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        assert main(["validate", "--mode", "bridge", income_spec, facts]) == 3

    def test_failing_grounder_exit_3(self, income_spec, tmp_path):
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        cmd = f"{sys.executable} -c \"import sys; sys.exit(7)\""
        assert main(["validate", "--mode", "bridge", "--grounder-cmd", cmd,
                     income_spec, facts]) == 3

    def test_rule_head_string_holding_the_rule_arrow(self, income_spec, tmp_path, capsys):
        # The head is read by the grammar, not split at the first ':-'.
        grounder = write(tmp_path, "fake.py", "import sys\nsys.stdin.read()\n"
                                              "print('income(\"a:-b\",-1) :- b.')\n")
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        assert main(["validate", "--mode", "bridge", "--grounder-cmd",
                     shlex.join([sys.executable, grounder]), income_spec, facts]) == 1
        captured = capsys.readouterr()
        assert captured.out == ('income/2: min: amount: Should be >= 0, but received -1'
                                ' [income("a:-b",-1)]\ninvalid\n')
        assert "Traceback" not in captured.err

    def test_grounder_from_environment(self, income_spec, tmp_path, monkeypatch):
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        monkeypatch.setenv(
            "ASPCHECK_GROUNDER",
            f"{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\"")
        assert main(["validate", "--mode", "bridge", income_spec, facts]) == 0


class TestCheck:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.yaml")))
    def test_every_fixture_spec_is_clean(self, name, tmp_path):
        spec = write(tmp_path, name, fixture_text(name))
        assert main(["check", spec]) == 0

    def test_cyclic_reference_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "cycle.yaml", "date:\n    inner: date\n")
        assert main(["check", spec]) == 2
        assert "cyclic" in capsys.readouterr().out

    def test_asp_that_does_not_parse_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "asp.yaml", "p:\n    x: Integer\nvalasp:\n"
                                           "    asp: |\n        q(X) :- p(X\n")
        assert main(["validate", spec, write(tmp_path, "p.lp", "p(1).")]) == 2
        validate_out = capsys.readouterr().out
        assert main(["check", spec]) == 2
        out = capsys.readouterr().out
        assert out == (": asp-syntax: expected ')' closing the argument list,"
                       " got end of input (line 2, column 1)\n")
        assert validate_out == out + "spec-error\n"

    def test_asp_with_an_anonymous_head_variable_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "anon.yaml",
                     "p:\n    x: Integer\nvalasp:\n    asp: |\n        p(_) :- p(1).\n")
        assert main(["check", spec]) == 2
        assert capsys.readouterr().out == ": asp-syntax: unsafe variable _ in rule: p(_) :- p(1).\n"

    def test_unknown_facet_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "facet.yaml",
                     "p:\n    a:\n        type: Integer\n        'sum*': Integer\n")
        assert main(["check", spec]) == 2
        assert "sum*" in capsys.readouterr().err


def test_bare_self_and_cls_are_syntax_errors(tmp_path, capsys):
    spec = write(tmp_path, "p.yaml", "p:\n    x: Integer\n    valasp:\n"
                                     "        after_init: fail('{self} {cls}')\n")
    for argv in (["check", spec], ["validate", spec, write(tmp_path, "p.lp", "p(1).")]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "script-syntax" in out + err
        assert "Scope" not in out + err and "Traceback" not in err


# An interpolated expression is positioned in the script line, escapes before it counted.
@pytest.mark.parametrize("script, message", [
    ("fail('{self} {cls}')", "expected '.' after 'self', got end of line (line 1, column 12)"),
    ("fail('\\\\ \\'{x $}')", "unexpected character '$' (line 1, column 15)"),
], ids=["bare-self", "escapes"])
def test_fail_interpolation_errors_have_line_columns(tmp_path, capsys, script, message):
    spec = write(tmp_path, "p.yaml",
                 f"p:\n    x: Integer\n    valasp:\n        after_init: {script}\n")
    assert main(["check", spec]) == 2
    assert capsys.readouterr().err == f"p: script-syntax: p.valasp.after_init: {message}\n"


# Each of these once ended the CLI in a RecursionError traceback.
@pytest.mark.parametrize("where, text", [
    ("hook", "if " + "not " * 5000 + "True: x = 1"),
    ("hook", "x = " + "-" * 5000 + "1"),
    ("hook", "x = " + "(" * 5000 + "1" + ")" * 5000),
    ("hook", "".join(" " * i + "if True:\n" for i in range(1200)) + " " * 1200 + "x = 1"),
    ("rule", "q(1). p(Y) :- q(X), Y = " + "-" * 5000 + "X."),
    ("rule", "q(1). p(Y) :- q(X), Y = X" + "+1" * 5000 + "."),
], ids=["not", "minus", "parentheses", "if-blocks", "rule-minus", "rule-plus"])
def test_deep_nesting_is_a_diagnostic(tmp_path, capsys, where, text):
    if where == "hook":
        spec = write(tmp_path, "p.yaml", "p:\n    a: Integer\n    valasp:\n"
                     "        after_init: |+\n" + textwrap.indent(text, " " * 12) + "\n")
        facts = write(tmp_path, "p.lp", "p(1).")
        runs = [(["check", spec], 2), (["validate", spec, facts], 2)]
    else:
        spec = write(tmp_path, "p.yaml", "p:\n    a: Integer\n")
        runs = [(["validate", spec, write(tmp_path, "deep.lp", text)], 1)]
    for argv, code in runs:
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "nested more than 100 levels deep" in err
        assert "Traceback" not in err


def _type_chain(length: int) -> str:
    """t0: {x: t1}, t1: {x: t2}, ... down to a last type holding an Integer."""
    return ("".join(f"t{i}:\n    x: t{i + 1}\n" for i in range(length - 1))
            + f"t{length - 1}:\n    x: Integer\n")


# The last three once ended the CLI in a RecursionError traceback.
@pytest.mark.parametrize("command, spec_text, code, message", [
    ("validate", _type_chain(100), 0, None),
    ("validate", _type_chain(251), 2, "t0: type-depth: user types nested more than 100 levels"),
    ("check", _type_chain(1501), 2, "t0: type-depth: user types nested more than 100 levels"),
    ("check", "p:\n    x: " + "[" * 3000 + "]" * 3000 + "\n", 2, "not valid YAML"),
], ids=["chain-100", "chain-251", "chain-1501", "yaml-3000"])
def test_deeply_nested_specs(tmp_path, capsys, command, spec_text, code, message):
    argv = [command, write(tmp_path, "deep.yaml", spec_text)]
    if command == "validate":
        argv.append(write(tmp_path, "t.lp", "t0(1)."))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if message is None:
        assert out == "valid\n"
    else:
        assert (out + err).count(message) == 1  # once, not once per chain member


# Each of these once ended the CLI in a ValueError traceback: the literal
# has more digits than int() converts.
_LONG = "9" * 5000
_INTEGER_SPEC = "p:\n    a: Integer\n"


@pytest.mark.parametrize("command, spec, data, code, where", [
    ("validate", _INTEGER_SPEC, "p(1).\np(" + _LONG + ").", 1,
     "invalid input: integer literal longer than 4300 digits (line 2, column 3)"),
    ("validate", _INTEGER_SPEC, "p(1). q(X) :- p(X), X < -" + _LONG + ".", 1,
     "invalid input: integer literal longer than 4300 digits (line 1, column 26)"),
    ("validate", _INTEGER_SPEC + "valasp:\n    asp: |+\n        q(" + _LONG + ").\n",
     "p(1).", 2, "asp-syntax: integer literal longer than 4300 digits (line 1, column 3)"),
    ("check", _INTEGER_SPEC + "    valasp:\n        after_init: |+\n"
     "            if self.a > " + _LONG + ": fail('big')\n", None, 2,
     "script-syntax: p.valasp.after_init: integer literal longer than 4300 digits"
     " (line 1, column 13)"),
    ("check", "p:\n    a:\n        type: Integer\n        max: " + _LONG + "\n", None, 2,
     "facet-value: not valid YAML: integer literal longer than 4300 digits\n"
     '  in "<unicode string>", line 4, column 14'),
], ids=["fact", "rule", "asp", "hook", "facet"])
def test_overlong_integer_literal_is_a_diagnostic(tmp_path, capsys, command, spec, data,
                                                  code, where):
    argv = [command, write(tmp_path, "p.yaml", spec)]
    if data is not None:
        argv.append(write(tmp_path, "p.lp", data))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert where in captured.out + captured.err
    assert "Traceback" not in captured.err


def test_overlong_integer_literal_in_parse_facts_is_a_parse_error():
    with pytest.raises(ParseError, match="integer literal longer than") as exc:
        parse_facts("p(" + _LONG + ").")
    assert (exc.value.line, exc.value.column) == (1, 3)


# Each of these once ended the CLI in a ValueError traceback: an integer
# computed at run time had more digits than str() converts.
_PRODUCT = "9" * 3000 + "*" + "9" * 3000
_NINES = "9" * 4300


@pytest.mark.parametrize("spec, data, code, message", [
    ("n: {a: Integer}\n", "n(2). n(X*X) :- n(X), X < 1" + "0" * 4000 + ".", 2,
     "eval-error: integer result longer than 4300 digits in rule: n(X*X) :- n(X), X < 1"),
    ("n: {a: Integer}\n", f"n({_PRODUCT}).", 1,
     "invalid input: integer result longer than 4300 digits (line 1, column 3003)"),
    ("n: {a: Integer}\n", f"n(1). n(X) :- X = {_PRODUCT}.", 2,
     "eval-error: integer result longer than 4300 digits in rule: n(X) :- X = 9"),
    ("n: {a: Integer}\n", f"m({_NINES}). m({_NINES[:-1]}8). n(S) :- S = #sum{{X : m(X)}}.", 2,
     "eval-error: integer result longer than 4300 digits in rule:"
     " n(S) :- S = #sum{X : m(X)}. with {}"),
    (textwrap.dedent("""\
        p:
            a: Integer
            valasp:
                before_grounding: |+
                    cls.acc = 2
                after_init: |+
                    cls.acc = cls.acc * cls.acc
                after_grounding: |+
                    fail('{cls.acc}')
        """), "".join(f"p({i}).\n" for i in range(14)), 2,
     "p/1: eval-error: after_init: integer result longer than 4300 digits [p(13)]"),
], ids=["squares", "fact", "rule", "sum", "hook"])
def test_computed_integer_with_too_many_digits_is_a_diagnostic(tmp_path, capsys, spec, data,
                                                               code, message):
    argv = ["validate", "--all-errors", write(tmp_path, "n.yaml", spec),
            write(tmp_path, "n.lp", data)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("facet, data, rule, bounds", [
    ("sum+", f"p({_NINES}). p({_NINES[:-1]}8).", "sum-pos", "[0, 2147483647]"),
    ("sum-", f"p(-{_NINES}). p(-{_NINES[:-1]}8).", "sum-neg", "[-2147483648, 0]"),
], ids=["sum-pos", "sum-neg"])
@pytest.mark.parametrize("flags", [[], ["--all-errors", "--format", "jsonl"]],
                         ids=["text", "jsonl"])
def test_sum_facet_total_with_too_many_digits_is_a_diagnostic(tmp_path, capsys, facet, data,
                                                              rule, bounds, flags):
    spec = f"p: {{a: {{type: Integer, min: -{_NINES}, max: {_NINES}, {facet}: Integer}}}}\n"
    argv = ["validate", *flags, write(tmp_path, "p.yaml", spec), write(tmp_path, "p.lp", data)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    sign = "positive" if facet == "sum+" else "negative"
    message = (f"sum of {sign} a in p is an integer total longer than 4300 digits,"
               f" outside {bounds}")
    if flags:
        [record] = [json.loads(line) for line in captured.out.splitlines()]
        assert (record["rule"], record["message"]) == (rule, message)
    else:
        assert captured.out == f"p/1: {rule}: {message}\ninvalid\n"
    assert "Traceback" not in captured.err


def _validate_under_seeds(tmp_path, spec: str, data: str) -> set[tuple[int, str]]:
    """The distinct (exit code, stdout) of validate run under six PYTHONHASHSEED values."""
    argv = [sys.executable, "-m", "aspcheck.cli", "validate",
            write(tmp_path, "s.yaml", spec), write(tmp_path, "s.lp", data)]
    return {(proc.returncode, proc.stdout) for proc in (
        subprocess.run(argv, capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": str(seed)})
        for seed in range(1, 7))}


def test_unstratified_cycle_is_named_alike_under_every_hash_seed(tmp_path):
    spec = textwrap.dedent("""\
        a: {x: Integer}
        valasp:
            asp: |
                a(1) :- not b(1). b(1) :- a(1). c(1) :- not d(1). d(1) :- c(1).
        """)
    assert _validate_under_seeds(tmp_path, spec, "a(1).") == {(2, (
        ": asp-syntax: program is not stratified; negation or aggregation on the cycle:"
        " a -> b -> a\nspec-error\n"))}


def test_evaluation_error_binding_is_alike_under_every_hash_seed(tmp_path):
    spec = "p: {y: Integer}\nvalasp:\n    asp: |\n        p(Y) :- q(X), Y = X + 1.\n"
    assert _validate_under_seeds(tmp_path, spec, "q(a). q(b). q(c). q(d).") == {(2, (
        ": eval-error: arithmetic on non-integers (+) in rule: p(Y) :- q(X), Y = X + 1."
        " with {X: a}\nspec-error\n"))}


def test_hook_lists_hold_at_most_a_million_items(tmp_path, capsys):
    # Once a list that doubled with each instance, so 2**40 items at the end.
    spec = write(tmp_path, "p.yaml", textwrap.dedent("""\
        p:
            a: Integer
            valasp:
                before_grounding: |+
                    cls.acc = []
                after_init: |+
                    cls.acc = [cls.acc, cls.acc]
                after_grounding: |+
                    fail('{cls.acc}')
        """))
    facts = write(tmp_path, "p.lp", "".join(f"p({i}).\n" for i in range(40)))
    assert main(["validate", spec, facts]) == 2
    captured = capsys.readouterr()
    assert ("p/1: eval-error: after_init: lists hold more than 1000000 items [p(18)]"
            in captured.out)
    assert "Traceback" not in captured.err


def test_hook_lists_nest_at_most_100_deep(tmp_path, capsys):
    # Once a RecursionError traceback from formatting the 3000-deep list.
    spec = write(tmp_path, "p.yaml", textwrap.dedent("""\
        p:
            a: Integer
            valasp:
                before_grounding: |+
                    cls.acc = 0
                after_init: |+
                    cls.acc = [cls.acc]
                after_grounding: |+
                    fail('{cls.acc}')
        """))
    facts = write(tmp_path, "p.lp", "".join(f"p({i}).\n" for i in range(3000)))
    assert main(["validate", spec, facts]) == 2
    captured = capsys.readouterr()
    assert ("eval-error: after_init: lists nested more than 100 levels deep"
            in captured.out)
    assert "p(100)" in captured.out  # the 101st instance in term order
    assert "Traceback" not in captured.err


def test_derived_terms_nest_at_most_100_deep(tmp_path, capsys):
    # Once a RecursionError traceback from hashing an ever deeper term.
    spec = write(tmp_path, "p.yaml", "p:\n    a: Any\n")
    facts = write(tmp_path, "p.lp", "p(a). p(f(X)) :- p(X).")
    assert main(["validate", spec, facts]) == 2
    captured = capsys.readouterr()
    assert "eval-error: derived term nested more than 100 levels deep" in captured.out
    assert "Traceback" not in captured.err


def test_solitaire_range_from_far_below_is_an_enum_error(tmp_path, capsys):
    # range counts up from -4000 in 4007 rounds; location's rules read it
    # once, after the last round, not once a round.
    spec = write(tmp_path, "solitaire.yaml", fixture_text("solitaire.yaml"))
    facts = write(tmp_path, "range.lp", "range(-4000).\n")
    assert main(["validate", spec, facts]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "location/2: enum: value: -4000 is not one of [1, 2, 3, 4, 5, 6, 7]"
        " [location(3,-4000)]")


def test_interval_width_is_bounded(tmp_path):
    # Once a MemoryError traceback and exit 1, after building every number.
    # Intervals each within the bound once built their whole product: 4*10^6
    # atoms and exit 0 after 15 s for p(1..2000,1..2000).
    for fields, head, message in [
        (["x"], "p(1..50000000)", "interval holds more than 1000000 values"),
        (["a", "b"], "p(1..2000,1..2000)", "head intervals give more than 1000000 atoms"),
        (["a", "b"], "p(1..1000, 1..1001)", "head intervals give more than 1000000 atoms"),
        (["a", "b", "c"], "p(1..100,1..100,0..100)",
         "head intervals give more than 1000000 atoms"),
    ]:
        spec = write(tmp_path, "p.yaml", "p:\n" + "".join(f"    {f}: Integer\n" for f in fields))
        facts = write(tmp_path, "p.lp", f"{head}.\n")
        proc = subprocess.run([sys.executable, "-m", "aspcheck.cli", "validate", spec, facts],
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2, head
        assert proc.stdout == (f": resource-limit: {message} in rule: {head}. with {{}}\n"
                               "spec-error\n")
        assert "Traceback" not in proc.stdout + proc.stderr


def test_unexpected_exception_is_one_line_and_exit_4(income_spec, tmp_path, monkeypatch,
                                                      capsys):
    def broken_run(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "run", broken_run)
    facts = write(tmp_path, "ok.lp", 'income("A", 3).')
    assert main(["validate", income_spec, facts]) == EXIT_INTERNAL_ERROR == 4
    out, err = capsys.readouterr()
    assert (out, err) == ("", "aspcheck: internal error: RuntimeError: boom\n")


@pytest.mark.parametrize("argv, data", [
    (["check", "{spec}"], ""),
    (["validate", "{spec}", "{facts}"], 'income("A", 3).'),
], ids=["check", "validate"])
def test_builtin_mode_does_not_load_the_grounder_bridge(tmp_path, argv, data):
    spec = write(tmp_path, "income.yaml", fixture_text("income.yaml"))
    facts = write(tmp_path, "ok.lp", data)
    code = textwrap.dedent("""
        import sys
        from aspcheck import cli
        code = cli.main(sys.argv[1:])
        print(code, sorted({"aspcheck.emit", "subprocess"} & set(sys.modules)))
    """)
    argv = [arg.format(spec=spec, facts=facts) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def test_module_entry_point(tmp_path):
    spec = tmp_path / "income.yaml"
    spec.write_text(fixture_text("income.yaml"))
    facts = tmp_path / "ok.lp"
    facts.write_text('income("A", 3).')
    proc = subprocess.run(
        [sys.executable, "-m", "aspcheck.cli", "validate", str(spec), str(facts)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "valid"


@pytest.mark.parametrize("flags", [[], ["--all-errors"]])
def test_date_part_beyond_a_c_int_is_a_diagnostic(tmp_path, flags):
    # Once an OverflowError traceback from valid_date, which runs even
    # though the day already failed its 32-bit max facet.
    spec = write(tmp_path, "bday.yaml", fixture_text("bday.yaml"))
    facts = write(tmp_path, "d.lp", "date(2000,1,2147483648).")
    proc = subprocess.run(
        [sys.executable, "-m", "aspcheck.cli", "validate", *flags, spec, facts],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "max: day: Should be <= 2147483647" in proc.stdout
    if flags:
        assert "hook-fail: no such calendar date: 2000-1-2147483648" in proc.stdout
