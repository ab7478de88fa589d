"""Specification application: the five-step validation run.

A run reads ASP text or Facts (builtin mode parses text first), executes
the prelude, the before hooks, obtains the instance set (either by
evaluating the auxiliary rules in-process or through the external
grounder bridge), checks every instance of every declared symbol in a
deterministic order, and finally checks aggregate facets and after hooks.
Both modes run the same steps, which yield diagnostics one at a time; the
default, fail-fast, stops at the first.

The instance set is a mapping of relations, (name, arity) -> argument
tuples in arrival order, each atom once: the rule engine's own fixpoint
relations, or without rules the relation lists the parser reads from the
text, with their repeats dropped; Fact input and the grounder's atoms are
gathered into such lists first.  No Fact is built for an atom of ASP text,
given or derived.  Step 4 takes each definition's relation as its group
and lets the set go; from then on an instance is a tuple of argument
terms, and its atom is built as a term only for a snapshot or a message.
"""

from __future__ import annotations

import re
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import datalog, hooks
from .diagnostics import Diagnostic, RunStats, ValidationReport
from .schema import (
    TERM_CLASSES,
    FieldDecl,
    PrimitiveType,
    UserDefinition,
    ValidationSpec,
    check_spec,
)
from .terms import (Fact, Func, atom_term, gc_paused, integer_too_long, render, sort_key,
                    too_many_digits)

__all__ = [
    "RunOptions",
    "AccumulatorStore",
    "run",
    "spec_problems",
    "check_instance",
    "finalize",
    "wrap32",
]


@dataclass(slots=True)
class RunOptions:
    """How run goes: fail_fast stops it at its first diagnostic, and a grounder
    (an emit.GrounderBridgeConfig) selects bridge mode."""

    fail_fast: bool = True
    grounder: "object | None" = None


class AccumulatorStore:
    """Running state of one validation pass.

    count tracks distinct ground atoms per symbol; positive/negative sums are
    kept per (symbol, field) for fields carrying a sum facet.  The class
    store is one flat namespace for the whole run, so an after hook can read
    values bound while checking instances of another symbol.  field_types
    holds every user type that some definition's field has.
    """

    def __init__(self, spec: ValidationSpec):
        self.spec = spec
        self.counts: dict[str, int] = {}
        self.sums_pos: dict[tuple[str, str], int] = {}
        self.sums_neg: dict[tuple[str, str], int] = {}
        self.class_store: dict[str, object] = {}
        self.snapshots: dict[str, list[hooks.CheckedInstance]] = {}
        self.prelude: dict[str, object] = {}
        self.field_types = {f.type for d in spec.definitions.values()
                            for f in d.fields if isinstance(f.type, str)}
        self._checks: dict[str, _Checks] = {}

    def checks(self, definition: UserDefinition) -> "_Checks":
        """The definition's compiled checks, built on first use in the run."""
        checks = self._checks.get(definition.symbol)
        if checks is None:
            checks = self._checks[definition.symbol] = _compile(definition, self)
        return checks

    def snapshot(self, checked: hooks.CheckedInstance) -> None:
        """Keep checked for its symbol's after_grounding sweep."""
        self.snapshots.setdefault(checked.symbol, []).append(checked)

    def env(self, instance: Mapping[str, object] | None = None,
            on_snapshot: Callable[[], None] | None = None) -> hooks.EvalEnv:
        """A hook environment over the run's class store and prelude."""
        return hooks.EvalEnv(instance, self.class_store, self.prelude, on_snapshot=on_snapshot)


class _Checks(NamedTuple):
    """A definition's checks, compiled once per run.

    snapshot: every valid instance is snapshotted (after_grounding reads self,
    after_init does not call append_snapshot).  in_after_init: checking an
    instance runs an after_init, its own or one of its fields' user types,
    at any depth.  order_free: no hook sees the order the instances are
    checked or swept in.  columns: the column pre-check of a pure-facet
    symbol, else None.
    """

    fields: tuple
    sums: tuple
    snapshot: bool
    in_after_init: bool
    order_free: bool
    columns: Callable[[list[tuple]], list | None] | None


class _Invalid(Exception):
    """Args: a field value's problems as (rule, message); its kind is wrong."""


class _BadFacets(_Invalid):
    """Args: the facet problems, then the value, which having and hooks still see."""


def wrap32(n: int) -> int:
    """Two's-complement 32-bit wrap: the failure mode validation prevents."""
    return (n + 2**31) % 2**32 - 2**31


# ---------------------------------------------------------------------------
# Instance checking


def check_instance(definition: UserDefinition, args: tuple,
                   store: AccumulatorStore) -> list[Diagnostic]:
    """Check one ground atom, the definition's symbol over the argument
    terms args: arity, kinds, facets, having, after_init.

    Diagnostics come back in check order; count/sum accumulators update only
    when the instance is fully valid (count tracks every atom processed).
    The atom is built as a term only for a snapshot or a diagnostic.
    """
    symbol = definition.symbol
    arity = definition.arity
    store.counts[symbol] = store.counts.get(symbol, 0) + 1
    checks = store.checks(definition)
    if len(args) != arity:
        problems = [_arity_problem(symbol, arity, len(args))]
    else:
        values: dict[str, object] = {}
        kinds, facets = [], []
        for (name, check), arg in zip(checks.fields, args):
            try:
                values[name] = check(arg)
            except _BadFacets as exc:
                facets += exc.args[0]
                values[name] = exc.args[1]
            except _Invalid as exc:
                kinds += exc.args[0]
        # A kind failure leaves the field values incomplete; comparisons and
        # the hook cannot run.  Facet failures only block accumulation.
        problems = kinds + facets
        if not kinds and (definition.having or definition.after_init or checks.snapshot):
            checked = hooks.CheckedInstance(symbol, values, atom_term(symbol, args))
            problems += _having_and_after_init(definition, checked, store)
        if not problems:
            for name, key, pos, neg in checks.sums:
                value = values[name]
                if pos and value > 0:
                    store.sums_pos[key] = store.sums_pos.get(key, 0) + value
                if neg and value < 0:
                    store.sums_neg[key] = store.sums_neg.get(key, 0) + value
            if checks.snapshot:
                store.snapshot(checked)
            return []
    instance = render(atom_term(symbol, args))  # built here, not up front: most are valid
    return [Diagnostic("instance", symbol, rule, message, instance=instance, arity=arity)
            for rule, message in problems]


def _arity_problem(symbol: str, arity: int, found: int) -> tuple[str, str]:
    return ("wrong-arity",
            f"{symbol} is expected to have arity {arity}, but {found} arguments are found")


def _having_and_after_init(definition: UserDefinition, checked: hooks.CheckedInstance,
                           store: AccumulatorStore) -> list[tuple[str, str]]:
    """Run the having comparisons, then after_init; problems in that order."""
    problems: list[tuple[str, str]] = []
    for cmp in definition.having:
        try:
            holds = hooks.compare_values(cmp.op, checked.values[cmp.lhs],
                                         checked.values[cmp.rhs])
        except hooks.ScriptEvalError as exc:
            problems.append(("eval-error", f"having {cmp}: {exc}"))
            continue
        if not holds:
            problems.append(("having", f"Expected {cmp}"))

    # The hook may rely on the declared comparisons, so it is skipped when
    # one failed; facet violations do not block it.  A bare append_snapshot()
    # is taken without running the script.
    after_init = None if problems else definition.after_init
    if after_init and after_init.snapshot_only:
        store.snapshot(checked)
    elif after_init:
        env = store.env(checked.values, on_snapshot=lambda: store.snapshot(checked))
        problem = _run_hook(after_init, env, "after_init")
        if problem is not None:
            problems.append(problem)
    return problems


def _run_hook(script: hooks.HookScript, env: hooks.EvalEnv,
              label: str) -> tuple[str, str] | None:
    """Run a script in env; return its problem as (rule, message).

    label is the hook's key, e.g. "after_init".
    """
    try:
        hooks.eval_instance(script, env)
    except hooks.CheckFailure as exc:
        return "hook-fail", exc.message
    except hooks.ScriptEvalError as exc:
        return "eval-error", f"{label}: {exc}"
    return None


# Per primitive type: its name in messages, the field value of its term.
_KINDS = {
    PrimitiveType.INTEGER: ("an integer", attrgetter("value")),
    PrimitiveType.STRING: ("a string", attrgetter("value")),
    PrimitiveType.ALPHA: ("an alphanumeric constant", attrgetter("name")),
}


def _compile(definition: UserDefinition, store: AccumulatorStore) -> _Checks:
    symbol, fields = definition.symbol, definition.fields
    after, init = definition.after_grounding, definition.after_init
    sweep = after is not None and after.uses_self
    snapshot = sweep and (init is None or not init.uses_append_snapshot)
    nested_init = any(store.checks(store.spec.definitions[f.type]).in_after_init
                      for f in fields if isinstance(f.type, str))
    # A hook leaves nothing behind but the class fields it writes, so the
    # order shows only through those, or through a user type's after_init,
    # or through a sweep over snapshots also taken in another symbol's group.
    order_free = not (nested_init or init is not None and init.writes_cls
                      or sweep and (after.writes_cls or symbol in store.field_types))
    # A pure-facet symbol: checking one instance reads no other instance, no
    # hook and no other symbol, so its group can be checked column by column.
    pure = (order_free and init is None and not snapshot and not definition.having
            and all(isinstance(f.type, PrimitiveType) for f in fields))
    compiled = [(f.name, *_compile_field(f, store)) for f in fields]
    return _Checks(
        fields=tuple((name, check) for name, check, _, _ in compiled),
        sums=tuple((name, (symbol, name), pos, neg)
                   for name, _, _, (pos, neg) in compiled if pos or neg),
        snapshot=snapshot, in_after_init=init is not None or nested_init,
        order_free=order_free,
        columns=_compile_columns(symbol, compiled) if pure else None)


def _compile_field(fld: FieldDecl, store: AccumulatorStore):
    """One field's checks, from its facets read once: (check, totals, sums).

    check(term) returns the field's value.  Otherwise it raises _Invalid
    with the kind problem, or _BadFacets with every facet problem in turn:
    enum, min, max, pattern.  totals(column) is None if check raises for a
    term of the column; else the column's sums of positive and of negative
    values, each 0 unless the field has that sum facet.  A user-typed or Any
    field has no totals.  sums: whether the field has a sum+, a sum- facet.
    """
    if isinstance(fld.type, str):
        check = _compile_nested(fld.name, store.spec.definitions[fld.type], store)
        return check, None, (False, False)
    if fld.type is PrimitiveType.ANY:
        return (lambda term: term), None, (False, False)
    name, facets = fld.name, fld.facets
    kind = TERM_CLASSES[fld.type]
    noun, value_of = _KINDS[fld.type]
    enum = None if facets.enum_values is None else frozenset(facets.enum_values)
    lo, hi = facets.min, facets.max
    integer = fld.type is PrimitiveType.INTEGER
    what, shown = ("Should be", value_of) if integer else ("length should be", render)
    match = None if integer or facets.pattern is None else re.compile(facets.pattern).fullmatch
    pos, neg = facets.sum_pos is not None, facets.sum_neg is not None

    def check(term):
        if not isinstance(term, kind):
            raise _Invalid([("wrong-kind", f"{name}: expected {noun}, received {render(term)}")])
        value = value_of(term)
        size = value if integer else len(value)
        problems = []
        if enum is not None and term not in enum:
            listed = ", ".join(render(v) for v in facets.enum_values)
            problems.append(("enum", f"{name}: {render(term)} is not one of [{listed}]"))
        if lo is not None and size < lo:
            problems.append(("min", f"{name}: {what} >= {lo}, but received {shown(term)}"))
        if hi is not None and size > hi:
            problems.append(("max", f"{name}: {what} <= {hi}, but received {shown(term)}"))
        if match is not None and match(value) is None:
            problems.append(("pattern", f"{name}: should match {facets.pattern!r},"
                                        f" but received {render(term)}"))
        if problems:
            raise _BadFacets(problems, value)
        return value

    def totals(col: list) -> tuple[int, int] | None:
        if set(map(type, col)) != {kind} or (enum is not None and not enum.issuperset(col)):
            return None
        if integer:
            # Term order is value order within one kind.
            if lo is not None and min(col).value < lo or hi is not None and max(col).value > hi:
                return None
            return (sum(filter((0).__lt__, map(value_of, col))) if pos else 0,
                    sum(filter((0).__gt__, map(value_of, col))) if neg else 0)
        if (lo is not None and min(map(len, map(value_of, col))) < lo
                or hi is not None and max(map(len, map(value_of, col))) > hi
                or match is not None and not all(map(match, set(map(value_of, col))))):
            return None
        return 0, 0
    return check, totals, (pos, neg)


def _compile_columns(symbol: str, compiled: list):
    """A pure-facet symbol's checks over whole columns of its group, from
    its compiled fields, (name, check, totals, sums) each.

    columns(group) is None when some instance fails a kind or facet check.
    Otherwise it is (key, positive sum, negative sum) per checked field.  It
    changes nothing, and holds one column list at a time.
    """
    tests = [(itemgetter(i), totals_of, (symbol, name))
             for i, (name, _, totals_of, _) in enumerate(compiled) if totals_of is not None]

    def columns(group: list[tuple]) -> list | None:
        sums = []
        for field_of, totals_of, key in tests:
            totals = totals_of(list(map(field_of, group)))
            if totals is None:
                return None
            sums.append((key, *totals))
        return sums
    return columns


def _compile_nested(name: str, nested: UserDefinition, store: AccumulatorStore):
    """A user-typed field's check: the value is an instance of nested.

    A unary definition accepts the bare term as its single field value (the
    forward form); higher arities require a function with the same name.
    Unlike check_instance, a nested value reports its first problem only,
    field by field: kind, then facets.
    """
    fields = store.checks(nested).fields
    symbol, arity = nested.symbol, nested.arity

    def check(term):
        if arity == 1:
            args = (term,)
        elif not isinstance(term, Func) or term.name != symbol:
            raise _Invalid([("wrong-kind", f"{name}: expected an instance of {symbol},"
                                           f" received {render(term)}")])
        elif len(term.args) != arity:
            raise _Invalid([_arity_problem(symbol, arity, len(term.args))])
        else:
            args = term.args
        values = {}
        try:
            for (inner, inner_check), arg in zip(fields, args):
                values[inner] = inner_check(arg)
        except _Invalid as exc:
            raise _Invalid(exc.args[0][:1]) from None
        checked = hooks.CheckedInstance(symbol, values, term)
        problems = _having_and_after_init(nested, checked, store)
        if problems:
            raise _Invalid(problems[:1])
        return checked
    return check


# ---------------------------------------------------------------------------
# Finalization


def finalize(definition: UserDefinition, store: AccumulatorStore) -> list[Diagnostic]:
    """Aggregate facet checks and the after_grounding hook for one symbol."""
    symbol = definition.symbol
    diags: list[Diagnostic] = []

    def diag(rule: str, message: str, instance: str | None = None) -> Diagnostic:
        return Diagnostic("after", symbol, rule, message,
                          instance=instance, arity=definition.arity)

    count = store.counts.get(symbol, 0)
    for fld in definition.fields:
        if fld.facets.count is not None:
            lo, hi = fld.facets.count
            if count < lo or (hi is not None and count > hi):
                expected = f">= {lo}" if hi is None else f"between {lo} and {hi}"
                diags.append(diag("count",
                                  f"found {count} instances of {symbol},"
                                  f" expected {expected}"))
        for rule, sign, bounds, sums in (
                ("sum-pos", "positive", fld.facets.sum_pos, store.sums_pos),
                ("sum-neg", "negative", fld.facets.sum_neg, store.sums_neg)):
            total = sums.get((symbol, fld.name), 0)
            if bounds is not None and not bounds[0] <= total <= bounds[1]:
                shown = f"an {integer_too_long('total')}" if too_many_digits(total) else total
                diags.append(diag(rule, f"sum of {sign} {fld.name} in {symbol} is {shown},"
                                        f" outside [{bounds[0]}, {bounds[1]}]"))

    after = definition.after_grounding
    if after:
        # A hook over self runs once per snapshot, any other hook once.  The
        # sweep shares one environment; each run starts with no locals.
        env = store.env()
        failing = []
        for snap in store.snapshots.get(symbol, []) if after.uses_self else [None]:
            env.instance = snap.values if snap is not None else None
            env.locals = {}
            problem = _run_hook(after, env, "after_grounding")
            if problem is not None:
                failing.append((snap, problem))
        if after.uses_self and store.checks(definition).order_free:
            # The snapshots came in arrival order; report in term order.
            failing.sort(key=lambda pair: sort_key(pair[0].source))
        for snap, (rule, message) in failing:
            shown = render(snap.source) if snap is not None and rule == "hook-fail" else None
            diags.append(diag(rule, message, instance=shown))
    return diags


# ---------------------------------------------------------------------------
# The run itself


@gc_paused()
def run(spec: ValidationSpec, data, options: RunOptions | None = None) -> ValidationReport:
    """Apply a specification to data, ASP text or Facts, and report the verdict.

    Builtin mode parses text before the spec gate, raising any of
    datalog.PROGRAM_ERRORS, and joins its rules to asp.  The grounder reads
    the text as it is, or the Facts one per line in arrival order, each once.

    Every spec_problems problem is reported (in bridge mode, where the
    grounder reads asp, every check_spec one), and then nothing runs.
    Otherwise fail-fast takes the first diagnostic of the run's stream.
    """
    options = options or RunOptions()
    started = time.perf_counter()
    store = AccumulatorStore(spec)
    if options.grounder is not None:
        if not isinstance(data, str):
            data = "\n".join(render(f.term()) + "." for f in dict.fromkeys(data))
        program, diags = None, check_spec(spec)
    else:
        if isinstance(data, str):
            data = datalog.parse_program(data)
        program, diags = spec_problems(spec)
    if not diags:
        stream = _diagnostics(spec, program, data, options, store)
        del program, data  # the stream lets them go after step 3
        diags = list(islice(stream, 1) if options.fail_fast else stream)
    stats = RunStats(instances_checked=dict(store.counts),
                     wall_time=time.perf_counter() - started)
    return ValidationReport.from_diagnostics(diags, stats)


def _diagnostics(spec: ValidationSpec, program: datalog.Program | None, given,
                 options: RunOptions, store: AccumulatorStore) -> Iterator[Diagnostic]:
    """Steps 1-5 of a run, yielding its diagnostics in report order.

    No yield sits in a try block, so closing the stream early runs no handler.
    """
    # Step 1: the prelude defines run-wide constants.  A failure ends the run.
    try:
        store.prelude = hooks.run_prelude(spec.prelude)
        failure = None
    except hooks.CheckFailure as exc:
        failure = ("hook-fail", f"prelude: {exc.message}")
    except hooks.ScriptEvalError as exc:
        failure = ("eval-error", f"prelude: {exc}")
    if failure is not None:
        yield Diagnostic("before", "", *failure)
        return

    # Step 2: before hooks, in symbol order.
    for symbol, definition in sorted(spec.definitions.items()):
        script = definition.before_grounding
        if script:
            problem = _run_hook(script, store.env(), "before_grounding")
            if problem is not None:
                yield Diagnostic("before", symbol, *problem, arity=definition.arity)

    # Step 3: the instance set, as relations in arrival order.  A problem
    # ends the run.
    relations, problem_diag = _instance_set(spec, program, given, options)
    del program, given
    if problem_diag is not None:
        yield problem_diag
        return
    # Only the groups keep the atoms: the instance set is freed once they
    # are built, before any instance is checked.  From here on an instance
    # is its tuple of argument terms.
    groups = _grouped_instances(spec, relations)
    del relations

    # Step 4: check instances, symbol by symbol: in term order where a hook
    # can observe the order (see _compile), else in arrival order, sorting
    # only the failing ones.  Either way diagnostics come in term order.  A
    # pure-facet symbol is first checked column by column; if that passes,
    # every instance is valid and is counted without a row loop.
    for symbol, group in groups:
        definition = spec.definitions[symbol]
        checks = store.checks(definition)
        sums = checks.columns(group) if checks.columns is not None else None
        if sums is not None:
            store.counts[symbol] = store.counts.get(symbol, 0) + len(group)
            for key, pos, neg in sums:
                if pos:
                    store.sums_pos[key] = store.sums_pos.get(key, 0) + pos
                if neg:
                    store.sums_neg[key] = store.sums_neg.get(key, 0) + neg
        elif checks.order_free:
            failing = {args: found for args in group
                       if (found := check_instance(definition, args, store))}
            for args in sorted(failing, key=sort_key):
                yield from failing[args]
        else:
            for args in sorted(group, key=sort_key):
                yield from check_instance(definition, args, store)

    # Step 5: aggregate facets and after hooks, in symbol order.
    for symbol in sorted(spec.definitions):
        yield from finalize(spec.definitions[symbol], store)


def spec_problems(spec: ValidationSpec) -> tuple[datalog.Program | None, list[Diagnostic]]:
    """The spec's asp program and every problem of the spec: check_spec's,
    then the asp-syntax diagnostic when the program does not parse, is
    unsafe or is unstratified, in which case the program is None."""
    diags = check_spec(spec)
    if not spec.asp_program or spec.asp_program.isspace():
        return datalog.Program([]), diags
    try:
        return datalog.parse_program(spec.asp_program), diags
    except datalog.PROGRAM_ERRORS as exc:
        return None, diags + [_asp_syntax(exc)]


def _asp_syntax(exc: Exception) -> Diagnostic:
    return Diagnostic("before", "", "asp-syntax", str(exc))


def _instance_set(spec: ValidationSpec, program: datalog.Program | None, given,
                  options: RunOptions):
    """Step 3: the facts of the spec's asp program and of the given input,
    and what the rules of both derive, or in bridge mode (program None) what
    the grounder gives for the given text, as relations: (name, arity) ->
    argument tuples, each atom once.

    The input is a Program parsed from text, whose facts are relation lists,
    or Facts.  Each relation holds its atoms in arrival order: the spec's
    facts, then the given facts in input order, then the derived atoms, or
    the grounder's atoms in its output order.
    """
    if options.grounder is not None:
        from . import emit

        if spec.asp_program:
            given += "\n" + spec.asp_program
        try:
            atoms = emit.ground_with_external(given, options.grounder)
        except emit.BridgeError as exc:
            return None, Diagnostic("before", "", "bridge-error", str(exc))
        return _distinct(spec, _relations(spec, atoms)), None

    rules, relations, facts = program.rules, program.facts, ()
    if isinstance(given, datalog.Program):  # text: its facts are relation lists
        rules, relations = rules + given.rules, _joined(relations, given.facts)
    elif rules:  # Facts, read as evaluate's input
        facts = given
    else:
        relations = _joined(relations, _relations(spec, given))
    if not rules:
        return _distinct(spec, relations), None
    try:
        return datalog.evaluate(datalog.Program(rules, relations), facts).relations, None
    except datalog.UnstratifiedError as exc:  # only the joined rules have the cycle
        return None, _asp_syntax(exc)
    except datalog.ResourceLimitError as exc:
        return None, Diagnostic("before", "", "resource-limit", str(exc))
    except datalog.EvaluationError as exc:
        return None, Diagnostic("before", "", "eval-error", str(exc))


def _joined(first: dict, then: dict) -> dict[tuple[str, int], list[tuple]]:
    """The relation lists of first, then those of then; neither changes."""
    if not first:
        return then
    joined = dict(first)
    for key, rows in then.items():
        joined[key] = joined[key] + rows if key in joined else rows
    return joined


def _relations(spec: ValidationSpec,
               atoms: Iterable[Fact]) -> dict[tuple[str, int], list[tuple]]:
    """The argument tuples of each defined predicate among atoms, by its
    (name, arity), in arrival order, repeats kept: Fact input and the
    grounder's atoms as the relation lists the parser gives for text.
    """
    arity_of = {symbol: definition.arity for symbol, definition in spec.definitions.items()}
    groups: dict[str, list[tuple]] = {}  # keyed once at the end, not per atom
    for atom in atoms:
        if arity_of.get(atom.predicate) == len(atom.args):
            groups.setdefault(atom.predicate, []).append(atom.args)
    return {(pred, arity_of[pred]): group for pred, group in groups.items()}


def _distinct(spec: ValidationSpec,
              relations: Mapping[tuple[str, int], list[tuple]]) -> dict[tuple[str, int], list]:
    """Step 3 without rules: the relation list of each definition's symbol
    and arity, each atom once, in arrival order.

    Repeats are looked for by one set over these lists' tuples, freed before
    this returns.  Only a list that adds fewer tuples to the set than it
    holds, through a repeat or arguments that an earlier list holds too, is
    searched for repeats on its own.
    """
    groups = {key: rows for symbol, definition in spec.definitions.items()
              if (rows := relations.get(key := (symbol, definition.arity)))}
    seen: set[tuple] = set()
    shared = []
    for key, rows in groups.items():
        size = len(seen)
        seen.update(rows)
        if len(seen) - size < len(rows):
            shared.append(key)
    del seen
    for key in shared:
        once: set[tuple] = set()
        groups[key] = [args for args in groups[key] if not (args in once or once.add(args))]
    return groups


def _grouped_instances(spec: ValidationSpec, relations):
    """Defined symbols in name order, each with the argument tuples of its
    atoms in arrival order.

    A definition's group is the relation of its symbol and arity: atoms of
    the symbol with another arity are another predicate, as a grounder
    treats them, and are left unvalidated.
    """
    groups = {}
    for symbol, definition in sorted(spec.definitions.items()):
        group = list(relations.get((symbol, definition.arity), ()))
        if group:
            groups[symbol] = group
    del relations  # the last reference to the instance set
    yield from groups.items()
