"""Constraint-validator emission and the external grounder bridge."""

import sys

import pytest

from aspcheck.datalog import evaluate, parse_program
from aspcheck.emit import (
    BridgeError,
    GrounderBridgeConfig,
    class_style_name,
    emit_constraint_validators,
    ground_with_external,
    render_validator_program,
)
from aspcheck.schema import ValidationSpec, load_spec
from aspcheck.terms import parse_facts

from _support import fixture_text, load_fixture


def constraint_lines(text):
    return [line for line in text.splitlines() if line.startswith(":-")]


def rule_lines(text):
    return [line for line in text.splitlines()
            if line.strip() and not line.startswith("%") and not line.startswith(":-")]


def echo_grounder(output: str, *, read_stdin: bool = True) -> GrounderBridgeConfig:
    """A grounder that ignores its input and prints canned ground text."""
    prologue = "import sys; sys.stdin.read(); " if read_stdin else "import sys; "
    return GrounderBridgeConfig(
        command=(sys.executable, "-c", prologue + f"sys.stdout.write({output!r})"))


class TestTemplates:
    def test_forward_template_for_unary(self):
        spec = load_spec("range:\n    value: Integer\n")
        [validator] = emit_constraint_validators(spec)
        assert validator.kind == "forward"
        assert validator.text == ":- range(X1), @valasp_validate_range(X1) != 1."

    def test_implicit_template_for_binary(self):
        spec = load_fixture("bday.yaml")
        validators = {v.symbol: v for v in emit_constraint_validators(spec)}
        assert validators["bday"].kind == "implicit"
        assert validators["bday"].text == \
            ":- bday(X1,X2), @valasp_validate_bday(bday(X1,X2)) != 1."
        assert validators["date"].text == \
            ":- date(X1,X2,X3), @valasp_validate_date(date(X1,X2,X3)) != 1."

    def test_empty_spec(self):
        assert emit_constraint_validators(ValidationSpec()) == []

    def test_emitted_text_reparses(self):
        for name in ("bday.yaml", "knight.yaml", "solitaire.yaml", "income.yaml"):
            for validator in emit_constraint_validators(load_fixture(name)):
                parse_program(validator.text, permissive=True)

    def test_class_style_name(self):
        assert class_style_name("income") == "Income"
        assert class_style_name("__in_range") == "__In_range"
        assert class_style_name("ordered_triple") == "Ordered_triple"


class TestExport:
    def test_bday_exports_two_constraints_no_rules(self):
        text = render_validator_program(load_fixture("bday.yaml"))
        assert len(constraint_lines(text)) == 2
        assert rule_lines(text) == []

    def test_budget_exports_two_constraints_one_rule(self):
        text = render_validator_program(load_fixture("budget.yaml"))
        assert len(constraint_lines(text)) == 2
        assert len(rule_lines(text)) == 1
        assert "residual_budget(B-B',R)" in text

    def test_income_contains_implicit_constraint(self):
        text = render_validator_program(load_fixture("income.yaml"))
        assert ":- income(X1,X2), @valasp_validate_income(income(X1,X2)) != 1." in text

    def test_empty_spec_empty_file(self):
        assert render_validator_program(ValidationSpec()) == ""

    def test_export_mentions_validator_class_names(self):
        text = render_validator_program(load_fixture("knight.yaml"))
        assert "__In_range" in text


SOLITAIRE_ATOMS = (
    [f"range({i})." for i in range(1, 8)]
    + [f"location({y},{x})." for y in (1, 2, 6, 7) for x in (3, 4, 5)]
    + [f"location({y},{x})." for y in (3, 4, 5) for x in range(1, 8)]
)


class TestBridge:
    def test_bridge_atoms_match_builtin_evaluation(self):
        # Canned output derived by hand from the board rules: rows 1,2,6,7
        # keep columns 3..5, rows 3..5 span the full width.
        spec = load_fixture("solitaire.yaml")
        config = echo_grounder("\n".join(SOLITAIRE_ATOMS) + "\n")
        bridged = ground_with_external("", config)
        builtin = evaluate(parse_program(spec.asp_program), [])
        assert bridged == builtin
        assert len([f for f in bridged if f.predicate == "location"]) == 33

    def test_empty_program_empty_atoms(self):
        assert ground_with_external("", echo_grounder("")) == set()

    def test_poset_bridge_matches_builtin_evaluation(self):
        # Ground model of the order rules over r(a,b). r(b,a)., by hand:
        # both reflexivity pairs are missing and the two transitive chains
        # a->b->a and b->a->b land outside the relation.
        spec = load_fixture("poset.yaml")
        canned = (
            "r(a,b).\nr(b,a).\nelement(a).\nelement(b).\n"
            'lost("reflexivity",a).\nlost("reflexivity",b).\n'
            'lost("transitivity",(a,b,a)).\nlost("transitivity",(b,a,b)).\n')
        bridged = ground_with_external("", echo_grounder(canned))
        builtin = evaluate(parse_program(spec.asp_program),
                           parse_facts("r(a,b). r(b,a)."))
        assert bridged == builtin

    def test_budget_program_derives_residuals(self):
        # Π ∪ A for the budget spec over two resources, ground by hand.
        canned = ("init_budget(1,60).\nbudget_spent(1,20).\n"
                  "init_budget(2,30).\nbudget_spent(2,5).\n"
                  "residual_budget(40,1).\nresidual_budget(25,2).\n")
        atoms = ground_with_external("", echo_grounder(canned))
        assert set(parse_facts(canned)) == atoms
        residuals = {f for f in atoms if f.predicate == "residual_budget"}
        assert len(residuals) == 2

    def test_rule_lines_contribute_ground_heads(self):
        canned = "a.\nb :- a.\nc(1) :- b.\n#show a/0.\n{d(1)}.\nnot_a_fact(X) :- e(X).\n"
        atoms = ground_with_external("", echo_grounder(canned))
        names = {f.predicate for f in atoms}
        assert names == {"a", "b", "c"}

    def test_nonzero_exit_embeds_stderr(self):
        config = GrounderBridgeConfig(command=(
            sys.executable, "-c",
            "import sys; sys.stdin.read(); sys.stderr.write('parse issue');"
            " sys.exit(65)"))
        with pytest.raises(BridgeError) as exc:
            ground_with_external("p(1).", config)
        assert "65" in str(exc.value)
        assert "parse issue" in str(exc.value)

    def test_timeout(self):
        config = GrounderBridgeConfig(
            command=(sys.executable, "-c", "import time; time.sleep(30)"),
            timeout=0.5)
        with pytest.raises(BridgeError, match="timed out"):
            ground_with_external("p(1).", config)

    def test_missing_executable(self):
        config = GrounderBridgeConfig(command=("definitely-not-a-grounder-9f3",))
        with pytest.raises(BridgeError, match="not found"):
            ground_with_external("p(1).", config)

    def test_file_placeholder_mode(self):
        config = GrounderBridgeConfig(command=(
            sys.executable, "-c",
            "import sys; sys.stdout.write(open(sys.argv[1]).read())", "{file}"))
        atoms = ground_with_external("p(1). q(2,3).", config)
        assert atoms == set(parse_facts("p(1). q(2,3)."))

    def test_program_text_reaches_stdin(self):
        config = GrounderBridgeConfig(command=(
            sys.executable, "-c", "import sys; sys.stdout.write(sys.stdin.read())"))
        atoms = ground_with_external("p(1). p(2).", config)
        assert atoms == set(parse_facts("p(1). p(2)."))


class TestBridgeRun:
    def test_run_in_bridge_mode(self):
        from aspcheck.engine import RunOptions, run

        spec = load_fixture("solitaire.yaml")
        canned = "\n".join(SOLITAIRE_ATOMS + ["location(1,1)."])
        options = RunOptions(grounder=echo_grounder(canned),
                             program_text="location(1,1).")
        report = run(spec, [], options)
        assert report.verdict == "invalid"
        assert report.diagnostics[0].message == "Invalid position"

    def test_bridge_failure_is_reported(self):
        from aspcheck.engine import RunOptions, run

        spec = load_fixture("income.yaml")
        config = GrounderBridgeConfig(command=(
            sys.executable, "-c", "import sys; sys.exit(1)"))
        report = run(spec, [], RunOptions(grounder=config))
        assert report.verdict == "spec-error"
        assert report.diagnostics[0].rule == "bridge-error"

    def test_bridge_renders_facts_when_no_program_text(self):
        from aspcheck.engine import RunOptions, run

        spec = load_fixture("income.yaml")
        config = GrounderBridgeConfig(command=(
            sys.executable, "-c", "import sys; sys.stdout.write(sys.stdin.read())"))
        facts = parse_facts('income("Acme ASP",1500000000).'
                            ' income("Yoyodyne YAML",1500000000).')
        report = run(spec, facts, RunOptions(grounder=config))
        assert report.verdict == "invalid"
        assert report.diagnostics[0].rule == "sum-pos"
