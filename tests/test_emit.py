"""The external grounder bridge."""

import random
import sys

import pytest

from aspcheck import emit
from aspcheck.datalog import evaluate, parse_program
from aspcheck.engine import RunOptions, run
from aspcheck.emit import (
    BridgeError,
    GrounderBridgeConfig,
    _parse_ground_output,
    ground_with_external,
)
from aspcheck.terms import Fact, parse_facts, render

from _support import FIXTURES, STUB_GROUNDER, load_fixture, random_facts, random_term

FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.yaml"))
STUB = GrounderBridgeConfig(command=(sys.executable, str(STUB_GROUNDER)))


def echo_grounder(output: str, *, read_stdin: bool = True) -> GrounderBridgeConfig:
    """A grounder that ignores its input and prints canned ground text."""
    prologue = "import sys; sys.stdin.read(); " if read_stdin else "import sys; "
    return GrounderBridgeConfig(
        command=(sys.executable, "-c", prologue + f"sys.stdout.write({output!r})"))


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
        # A head is read by the grammar, so its strings may hold ':-'; the
        # body is never read, so one beyond the built-in fragment still gives
        # its head.  Non-ground heads, intervals, constraints, choices,
        # disjunctions and directives give nothing.
        canned = ("a.\nb :- a.\nc(1) :- b.\n#show a/0.\n{d(1)}.\nnot_a_fact(X) :- e(X).\n"
                  'h("x:-y") :- b.\nr("a") :- s("b:-c").\na :- b : c.\n'
                  "w :- #count{X:p(X);Y:q(Y)} > 1.\nn(X) :- e(X).\np(1..2) :- q.\n"
                  ":- a.\nx | y :- z.\n")
        atoms = ground_with_external("", echo_grounder(canned))
        assert sorted(render(f.term()) for f in atoms) == [
            "a", "b", "c(1)", 'h("x:-y")', 'r("a")', "w"]

    def test_ground_head_is_read_whatever_its_strings_hold(self):
        # The oracle is the generated head, not the reader.
        strings = ("a:-b", ":-", "x. y", "1.", "%c", 'q":-"', "back\\slash",
                   "l\u2028m", "f\x0cg", "")
        rng = random.Random(20)
        for _ in range(300):
            args = tuple(random_term(rng, 2, strings) for _ in range(rng.randint(0, 3)))
            head = Fact(rng.choice(["p", "income", "h2"]), args)
            line = render(head.term()) + rng.choice([" :- b.", ' :- s("t:-u"), not v.'])
            assert _parse_ground_output(line) == {head}, line

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
        spec = load_fixture("solitaire.yaml")
        canned = "\n".join(SOLITAIRE_ATOMS + ["location(1,1)."])
        report = run(spec, "location(1,1).", RunOptions(grounder=echo_grounder(canned)))
        assert report.verdict == "invalid"
        assert report.diagnostics[0].message == "Invalid position"

    def test_bridge_failure_is_reported(self):
        spec = load_fixture("income.yaml")
        config = GrounderBridgeConfig(command=(
            sys.executable, "-c", "import sys; sys.exit(1)"))
        report = run(spec, [], RunOptions(grounder=config))
        assert report.verdict == "spec-error"
        assert report.diagnostics[0].rule == "bridge-error"

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0, 0.0])
    def test_timeout_that_is_not_finite_and_positive_is_a_bridge_error(self, monkeypatch,
                                                                        timeout):
        monkeypatch.setattr(emit.subprocess, "run", lambda *args, **kwargs: pytest.fail("ran"))
        spec = load_fixture("income.yaml")
        config = GrounderBridgeConfig(command=("cat",), timeout=timeout)
        report = run(spec, parse_facts('income("a",1).'), RunOptions(grounder=config))
        assert report.verdict == "spec-error"
        assert [(d.rule, d.message) for d in report.diagnostics] == [
            ("bridge-error", f"grounder timeout must be a finite number above 0, got {timeout!r}")]

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


class TestStubGrounder:
    """Bridge mode end to end, grounded by tests/stub_grounder.py."""

    def test_ground_with_external_gives_the_model(self):
        text = ("e(1,2). e(2,3).\npath(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).\n"
                ":- path(X,X), @f(X) != 1.\n")
        atoms = ground_with_external(text, STUB)
        assert atoms == evaluate(parse_program(text), []) and len(atoms) == 5

    def test_engine_message_becomes_a_bridge_error(self):
        with pytest.raises(BridgeError) as exc:
            ground_with_external("q(1). p(Y) :- q(X), Y = @f(X).", STUB)
        assert str(exc.value) == (
            "grounder exited with status 1: externally interpreted term @f cannot be"
            " evaluated in rule: p(Y) :- q(X), Y = @f(X). with {X: 1}")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_bridge_and_builtin_runs_agree(self, name):
        spec = load_fixture(name)
        for seed in range(3):
            rng = random.Random(seed)
            facts = random_facts(rng, spec, rng.randint(0, 8))
            builtin = run(spec, facts, RunOptions(fail_fast=False)).diagnostics
            bridged = run(spec, facts, RunOptions(fail_fast=False, grounder=STUB)).diagnostics
            assert bridged == builtin, (seed, facts)
