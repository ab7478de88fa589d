"""Step 3's contract: each atom once, in arrival order, freed once grouped.

Arrival order is the given facts in input order, then the derived atoms,
or a grounder's atoms in its output order.
"""

import json
import os
import random
import subprocess
import sys
import weakref

import pytest

from aspcheck import cli, datalog, engine
from aspcheck.datalog import evaluate, parse_program
from aspcheck.emit import GrounderBridgeConfig, _parse_ground_output
from aspcheck.engine import RunOptions, run
from aspcheck.schema import load_spec
from aspcheck.terms import Fact, atom_term, parse_facts, render

from _support import STUB_GROUNDER

STUB = GrounderBridgeConfig(command=(sys.executable, str(STUB_GROUNDER)))


def rendered(atoms):
    return [render(atom.term()) for atom in atoms]


def record_groups(monkeypatch):
    """The groups _grouped_instances yields from now on, rendered."""
    groups = []
    grouped = engine._grouped_instances

    def record(spec, relations):
        for symbol, group in grouped(spec, relations):
            groups.append((symbol, [render(atom_term(symbol, args)) for args in group]))
            yield symbol, group
    monkeypatch.setattr(engine, "_grouped_instances", record)
    return groups


# ---------------------------------------------------------------------------
# Order


def test_evaluate_gives_the_given_facts_in_input_order_then_the_derived():
    program = parse_program("q(9). r(X) :- p(X), X > 1. s(X) :- r(X).")
    facts = parse_facts("p(3). p(1). p(3). p(2).")
    model = evaluate(program, facts)
    assert rendered(model) == ["q(9)", "p(3)", "p(1)", "p(2)", "r(3)", "r(2)", "s(3)", "s(2)"]
    # Still a set: compared, tested and counted as one.
    assert model == set(model) and len(model) == 8 and Fact("s", facts[3].args) in model
    # A repeat is dropped, and the first one kept: no Fact is kept, so its
    # arguments are.
    assert next(args for args in model.relations[("p", 1)] if args == facts[2].args) is facts[0].args


def test_ground_output_comes_in_output_order_with_repeats_dropped():
    atoms = _parse_ground_output('p(2).\np("b").\n#show.\np(1).\np(2).\nq(1) :- p(1).\np(1).\n')
    assert rendered(atoms) == ["p(2)", 'p("b")', "p(1)", "q(1)"]
    assert atoms == set(parse_facts('p(2). p("b"). p(1). q(1).'))


_PQ = "p:\n    x: Any\nq:\n    x: Any\n"


def _shuffled_data(seed: int) -> tuple[str, list[str]]:
    """Facts of p and q, strings and constants, in a random order with
    repeats; and their distinct texts at first arrival."""
    rng = random.Random(seed)
    texts = [f'{pred}({arg})' for pred in "pq" for i in range(30)
             for arg in (f'"s{i}"', f"c{i}")]
    rng.shuffle(texts)
    texts += rng.sample(texts, 20)
    rng.shuffle(texts)
    return "".join(f"{text}.\n" for text in texts), list(dict.fromkeys(texts))


@pytest.mark.parametrize("as_text", [False, True], ids=["facts", "text"])
@pytest.mark.parametrize("fail_fast", [True, False])
def test_a_run_without_rules_groups_in_input_order(monkeypatch, fail_fast, as_text):
    data, distinct = _shuffled_data(1)
    groups = record_groups(monkeypatch)
    report = run(load_spec(_PQ), data if as_text else parse_facts(data),
                 RunOptions(fail_fast=fail_fast))
    assert report.verdict == "valid"
    assert groups == [(pred, [text for text in distinct if text.startswith(pred)])
                      for pred in "pq"]


@pytest.mark.parametrize("as_text", [False, True], ids=["facts", "text"])
def test_a_run_with_rules_groups_given_facts_then_derived_atoms(monkeypatch, as_text):
    spec = load_spec(_PQ + "valasp:\n    asp: |\n        q(X) :- p(X).\n")
    data, distinct = _shuffled_data(2)
    groups = record_groups(monkeypatch)
    assert run(spec, data if as_text else parse_facts(data)).verdict == "valid"
    given_q = [text for text in distinct if text.startswith("q")]
    derived_q = [f"q{text[1:]}" for text in distinct
                 if text.startswith("p") and f"q{text[1:]}" not in given_q]
    assert groups == [("p", [text for text in distinct if text.startswith("p")]),
                      ("q", given_q + derived_q)]


_CHILD = """
import json, sys
from aspcheck import engine
from aspcheck.emit import GrounderBridgeConfig
from aspcheck.engine import RunOptions, run
from aspcheck.schema import load_spec
from aspcheck.terms import atom_term, parse_facts, render

spec_text, data, stub = sys.argv[1:]
groups = []
grouped = engine._grouped_instances

def record(spec, relations):
    for symbol, group in grouped(spec, relations):
        groups.append([symbol, [render(atom_term(symbol, args)) for args in group]])
        yield symbol, group

engine._grouped_instances = record
bridge = RunOptions(grounder=GrounderBridgeConfig((sys.executable, stub)))
for text, options in ((spec_text, None),
                      (spec_text + "valasp:\\n    asp: |\\n        q(X) :- p(X).\\n", None),
                      (spec_text, bridge)):
    run(load_spec(text), parse_facts(data), options)
    print(json.dumps(groups))
    groups.clear()
"""


def test_groups_are_alike_under_every_hash_seed():
    data, _ = _shuffled_data(3)
    outputs = set()
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", _CHILD, _PQ, data, str(STUB_GROUNDER)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert [json.loads(line) for line in proc.stdout.splitlines()][0], proc.stdout
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# Release


class _Relation(dict):
    """A relation of the real model, as a dict a weak reference can watch."""


_RELEASE_SPEC = load_spec("""
p:
    x: Integer
    y: Integer
    valasp:
        having: [x < y]
r:
    x: Integer
    valasp:
        after_init: |
            cls.last = self.x
valasp:
    asp: |
        p(X, Y) :- q(X), Y = X + 1.
        r(X) :- q(X).
""")


@pytest.mark.parametrize("fail_fast", [True, False])
def test_the_instance_set_is_freed_before_any_instance_is_checked(monkeypatch, fail_fast):
    models = []
    real_evaluate, real_check = datalog.evaluate, engine.check_instance

    def watched_evaluate(program, facts):
        model = real_evaluate(program, facts)
        relations = {pred: _Relation(rel) for pred, rel in model.relations.items()}
        models.extend([weakref.ref(model), *map(weakref.ref, relations.values())])
        return datalog.Model(relations)

    checked = []

    def check_instance(definition, args, store):
        assert models and all(ref() is None for ref in models), "the instance set is still alive"
        checked.append(atom_term(definition.symbol, args))
        return real_check(definition, args, store)

    monkeypatch.setattr(datalog, "evaluate", watched_evaluate)
    monkeypatch.setattr(engine, "check_instance", check_instance)
    report = run(_RELEASE_SPEC, parse_facts("q(2). q(1)."), RunOptions(fail_fast=fail_fast))
    assert report.verdict == "valid"
    assert sorted(map(render, checked)) == ["p(1,2)", "p(2,3)", "r(1)", "r(2)"]


class _Rows(list):
    """A parsed relation list, as a list a weak reference can watch."""


_TEXT_SPEC = "p:\n    x: Integer\n    y: Integer\n    valasp:\n        having: [x < y]\n"


@pytest.mark.parametrize("fail_fast", [True, False])
@pytest.mark.parametrize("asp", ["", "p(0,1). q(7).", "p(X,X+1) :- q(X)."],
                         ids=["no-asp", "asp-facts", "asp-rules"])
def test_parsed_relation_lists_are_freed_before_any_instance_is_checked(
        monkeypatch, asp, fail_fast):
    # Not through run's input, not through the stream's, not through the
    # Program that holds them: when step 4 starts, the groups are copies.
    lists = []
    real_parse, real_check = datalog.parse_program, engine.check_instance

    def watched_parse(text):
        program = real_parse(text)
        program.facts = {pred: _Rows(rows) for pred, rows in program.facts.items()}
        lists.extend(map(weakref.ref, program.facts.values()))
        return program

    checked = []

    def check_instance(definition, args, store):
        assert lists and all(ref() is None for ref in lists), "a parsed relation list is alive"
        checked.append(atom_term(definition.symbol, args))
        return real_check(definition, args, store)

    monkeypatch.setattr(datalog, "parse_program", watched_parse)
    monkeypatch.setattr(engine, "check_instance", check_instance)
    spec = load_spec(_TEXT_SPEC + (f"valasp:\n    asp: |\n        {asp}\n" if asp else ""))
    report = run(spec, "p(1,2). q(5). p(2,3). p(1,2). q(6).", RunOptions(fail_fast=fail_fast))
    assert report.verdict == "valid"
    expected = ["p(1,2)", "p(2,3)", *(["p(0,1)"] if "p(0" in asp else []),
                *(["p(5,6)", "p(6,7)"] if ":-" in asp else [])]
    assert sorted(map(render, checked)) == sorted(expected)


# ---------------------------------------------------------------------------
# Duplicates

_COUNT2 = "p:\n    x: {type: Integer, count: 2}\n"
_DUPLICATES = "p(1).\np(1).\np(2).\n"


@pytest.mark.parametrize("fail_fast", [True, False])
@pytest.mark.parametrize("spec_text, options, data", [
    (_COUNT2, {}, parse_facts(_DUPLICATES)),
    (_COUNT2 + "valasp:\n    asp: |\n        p(1) :- p(2).\n", {}, parse_facts(_DUPLICATES)),
    (_COUNT2, {"grounder": STUB}, parse_facts(_DUPLICATES)),
    (_COUNT2, {"grounder": STUB}, _DUPLICATES),
    (_COUNT2, {"grounder": GrounderBridgeConfig(
        (sys.executable, "-c", f"import sys; sys.stdin.read(); print({_DUPLICATES!r})"))},
     parse_facts(_DUPLICATES)),
], ids=["no-rules", "rule-rederives", "stub", "stub-text", "grounder-repeats"])
def test_a_repeated_fact_is_one_instance(spec_text, options, data, fail_fast):
    report = run(load_spec(spec_text), data, RunOptions(fail_fast=fail_fast, **options))
    assert report.diagnostics == []
    assert report.verdict == "valid"
    assert report.stats.instances_checked == {"p": 2}


@pytest.mark.parametrize("flags", [[], ["--all-errors"], ["--mode", "bridge", "--grounder-cmd",
                                                        f"{sys.executable} {STUB_GROUNDER}"]])
def test_the_cli_counts_a_repeated_fact_once(tmp_path, capsys, flags):
    spec, data = tmp_path / "p.yaml", tmp_path / "p.lp"
    spec.write_text(_COUNT2)
    data.write_text(_DUPLICATES)
    assert cli.main(["validate", *flags, str(spec), str(data)]) == 0
    assert capsys.readouterr().out == "valid\n"


# ---------------------------------------------------------------------------
# Relations: what step 3 hands step 4


def test_the_model_is_a_set_of_facts_held_as_relations():
    given = parse_facts("p(1). q(1). p(2).")
    model = evaluate(datalog.Program([]), given)
    assert model == set(given) and set(given) == model
    assert model <= set(given) and not model <= set(given[:2])
    assert model - {given[1]} == {given[0], given[2]}
    p1, q1 = given[0], given[1]
    assert p1 in model
    assert Fact("p", p1.args * 2) not in model  # a known predicate, another arity
    assert Fact("r", p1.args) not in model and q1.args not in model
    assert len(model) == 3
    # Relation by relation, each in arrival order: p(2) before q(1).
    assert rendered(model) == ["p(1)", "p(2)", "q(1)"]
    watched = weakref.ref(model)
    del model
    assert watched() is None


_ARITY_SPEC = load_spec("p: {x: Integer}\nvalasp:\n    asp: |\n        p(X,X) :- p(X).\n")


@pytest.mark.parametrize("fail_fast", [True, False])
@pytest.mark.parametrize("options", [{}, {"grounder": STUB}], ids=["builtin", "stub"])
def test_atoms_of_another_arity_stay_unvalidated(options, fail_fast):
    # The p relation holds p/1 and p/2 atoms; only p/1 is declared.
    facts = parse_facts("p(1). p(2). p(3).")
    model = evaluate(parse_program(_ARITY_SPEC.asp_program), facts)
    assert sorted(len(atom.args) for atom in model) == [1, 1, 1, 2, 2, 2]
    report = run(_ARITY_SPEC, facts, RunOptions(fail_fast=fail_fast, **options))
    assert report.diagnostics == []
    assert report.verdict == "valid"
    assert report.stats.instances_checked == {"p": 3}


_CLOSURE_SPEC = load_spec("""
e: {a: Integer, b: Integer}
path: {a: Integer, b: Integer}
valasp:
    asp: |
        path(X,Y) :- e(X,Y).
        path(X,Z) :- path(X,Y), e(Y,Z).
""")


def test_a_run_with_rules_builds_no_fact(monkeypatch):
    facts = parse_facts("".join(f"e({i},{i + 1}).\n" for i in range(200)))
    made = []
    init = Fact.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fact, "__init__", counted)
    report = run(_CLOSURE_SPEC, facts, RunOptions(fail_fast=False))
    assert report.verdict == "valid"
    assert report.stats.instances_checked == {"e": 200, "path": 200 * 201 // 2}
    assert len(made) == 0
    Fact("e", ())  # the patched class does count a construction
    assert len(made) == 1


@pytest.mark.parametrize("fail_fast", [True, False])
@pytest.mark.parametrize("asp", ["", "e(0,0).", "path(X,Y) :- e(X,Y)."],
                         ids=["no-asp", "asp-facts", "asp-rules"])
def test_a_run_on_text_builds_no_fact(monkeypatch, asp, fail_fast):
    # The parser writes relation lists, which step 3 reads as they are:
    # without rules engine._relations, which gathers Facts, is not called.
    text = "".join(f"e({i},{i + 1}).\n" for i in range(200)) + "e(0,1). f(1).\n"
    spec = load_spec("e: {a: Integer, b: Integer}\npath: {a: Integer, b: Integer}\n"
                     + (f"valasp:\n    asp: |\n        {asp}\n" if asp else ""))
    made = []
    init = Fact.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def no_relations(*args):
        raise AssertionError("engine._relations called on text")

    monkeypatch.setattr(Fact, "__init__", counted)
    monkeypatch.setattr(engine, "_relations", no_relations)
    report = run(spec, text, RunOptions(fail_fast=fail_fast))
    assert report.verdict == "valid"
    assert report.stats.instances_checked == {
        "e": 200 + (asp == "e(0,0)."), **({"path": 200} if ":-" in asp else {})}
    assert len(made) == 0


@pytest.mark.parametrize("fail_fast", [True, False])
@pytest.mark.parametrize("count", [2, 1])
def test_a_spec_fact_repeated_in_the_input_is_one_instance(fail_fast, count):
    # The spec's p(1) and the input's two are one atom: as text, as Facts
    # and through the grounder alike.
    spec = load_spec(f"p:\n    x: {{type: Integer, count: {count}}}\n"
                     "valasp:\n    asp: |\n        p(1).\n")
    text = "p(1). p(2). p(1)."
    reports = [run(spec, data, RunOptions(fail_fast=fail_fast, **options))
               for data, options in ((text, {}), (parse_facts(text), {}),
                                     (text, {"grounder": STUB}))]
    assert [r.stats.instances_checked for r in reports] == [{"p": 2}] * 3
    assert reports[0].diagnostics == reports[1].diagnostics == reports[2].diagnostics
    assert reports[0].verdict == ("valid" if count == 2 else "invalid")
