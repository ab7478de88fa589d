"""Command-line behavior: exit codes, formats, modes."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from aspcheck.cli import main
from aspcheck.engine import run
from aspcheck.schema import load_spec
from aspcheck.terms import ParseError, parse_facts

from _support import FIXTURES, fixture_text

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


class TestBridgeMode:
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

    def test_grounder_from_environment(self, income_spec, tmp_path, monkeypatch):
        facts = write(tmp_path, "ok.lp", 'income("A", 3).')
        monkeypatch.setenv(
            "ASPCHECK_GROUNDER",
            f"{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\"")
        assert main(["validate", "--mode", "bridge", income_spec, facts]) == 0


class TestCompile:
    def test_income_constraint_written(self, income_spec, tmp_path, capsys):
        out = tmp_path / "out.lp"
        assert main(["compile", income_spec, str(out)]) == 0
        assert ":- income(X1,X2), @valasp_validate_income(income(X1,X2)) != 1." \
            in out.read_text()

    def test_bday_two_constraints(self, tmp_path):
        spec = write(tmp_path, "bday.yaml", fixture_text("bday.yaml"))
        out = tmp_path / "out.lp"
        assert main(["compile", spec, str(out)]) == 0
        constraints = [l for l in out.read_text().splitlines() if l.startswith(":-")]
        assert len(constraints) == 2

    def test_stdout_dash(self, income_spec, capsys):
        assert main(["compile", income_spec, "-"]) == 0
        assert "@valasp_validate_income" in capsys.readouterr().out

    def test_unreadable_spec_exit_3(self, tmp_path):
        assert main(["compile", str(tmp_path / "absent.yaml"), "-"]) == 3

    def test_broken_spec_exit_2(self, tmp_path):
        spec = write(tmp_path, "broken.yaml", "p:\n    a: nowhere\n")
        assert main(["compile", spec, str(tmp_path / "out.lp")]) == 2


class TestCheck:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.yaml")))
    def test_every_fixture_spec_is_clean(self, name, tmp_path):
        spec = write(tmp_path, name, fixture_text(name))
        assert main(["check", spec]) == 0

    def test_cyclic_reference_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "cycle.yaml", "date:\n    inner: date\n")
        assert main(["check", spec]) == 2
        assert "cyclic" in capsys.readouterr().out

    def test_unknown_facet_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "facet.yaml",
                     "p:\n    a:\n        type: Integer\n        'sum*': Integer\n")
        assert main(["check", spec]) == 2
        assert "sum*" in capsys.readouterr().err


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
