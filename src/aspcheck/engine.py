"""Specification application: the five-step validation run.

A run executes the prelude, the before hooks, obtains the instance set
(either by evaluating the auxiliary rules in-process or through the
external grounder bridge), checks every instance of every declared symbol
in a deterministic order, and finally checks aggregate facets and after
hooks.  The default is fail-fast: the first diagnostic ends the run.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from . import datalog, hooks
from .diagnostics import Diagnostic, RunStats, ValidationReport
from .schema import (
    FieldDecl,
    PrimitiveType,
    UserDefinition,
    ValidationSpec,
    check_spec,
)
from .terms import (Const, Fact, Func, Number, Str, integer_too_long, render, sort_key,
                    too_many_digits)

__all__ = [
    "RunOptions",
    "AccumulatorStore",
    "run",
    "check_instance",
    "finalize",
    "wrap32",
]


@dataclass(slots=True)
class RunOptions:
    fail_fast: bool = True
    grounder: "object | None" = None  # emit.GrounderBridgeConfig: bridge mode
    program_text: str | None = None  # bridge mode: raw program text to ground
    rules: tuple[datalog.Rule, ...] = ()  # builtin mode: parsed rules joining asp


class AccumulatorStore:
    """Running state of one validation pass.

    count tracks distinct ground atoms per symbol; positive/negative sums are
    kept per (symbol, field) for fields carrying a sum facet.  The class
    store is one flat namespace for the whole run, so an after hook can read
    values bound while checking instances of another symbol.
    """

    def __init__(self, spec: ValidationSpec):
        self.spec = spec
        self.counts: dict[str, int] = {}
        self.sums_pos: dict[tuple[str, str], int] = {}
        self.sums_neg: dict[tuple[str, str], int] = {}
        self.class_store: dict[str, object] = {}
        self.snapshots: dict[str, list[hooks.CheckedInstance]] = {}
        self.prelude: dict[str, object] = {}
        self._checks: dict[str, _Checks] = {}

    def checks(self, definition: UserDefinition) -> "_Checks":
        """The definition's compiled checks, built on first use in the run."""
        checks = self._checks.get(definition.symbol)
        if checks is None:
            checks = self._checks[definition.symbol] = _compile(definition, self)
        return checks


class _Checks(NamedTuple):
    """A definition's checks, compiled once per run.

    snapshot: every valid instance is snapshotted (after_grounding reads self,
    after_init does not call append_snapshot).  in_after_init: checking an
    instance runs an after_init, its own or one of its fields' user types,
    at any depth.  order_free: neither, so no hook sees the checking order.
    """

    fields: tuple
    sums: tuple
    snapshot: bool
    in_after_init: bool
    order_free: bool


class _Invalid(Exception):
    """Args: a field value's problems as (rule, message); its kind is wrong."""


class _BadFacets(_Invalid):
    """Args: the facet problems, then the value, which having and hooks still see."""


def wrap32(n: int) -> int:
    """Two's-complement 32-bit wrap: the failure mode validation prevents."""
    return (n + 2**31) % 2**32 - 2**31


# ---------------------------------------------------------------------------
# Instance checking


def check_instance(definition: UserDefinition, fact: Fact,
                   store: AccumulatorStore) -> list[Diagnostic]:
    """Check one ground atom: arity, kinds, facets, having, after_init.

    Diagnostics come back in check order; count/sum accumulators update only
    when the instance is fully valid (count tracks every atom processed).
    """
    symbol = definition.symbol
    arity = definition.arity
    store.counts[symbol] = store.counts.get(symbol, 0) + 1
    checks = store.checks(definition)
    if len(fact.args) != arity:
        problems = [_arity_problem(symbol, arity, len(fact.args))]
    else:
        values: dict[str, object] = {}
        kinds, facets = [], []
        for (name, check), arg in zip(checks.fields, fact.args):
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
            checked = hooks.CheckedInstance(symbol, values, fact.term())
            problems += _having_and_after_init(definition, checked, store)
        if not problems:
            for name, key, pos, neg in checks.sums:
                value = values[name]
                if pos and value > 0:
                    store.sums_pos[key] = store.sums_pos.get(key, 0) + value
                if neg and value < 0:
                    store.sums_neg[key] = store.sums_neg.get(key, 0) + value
            if checks.snapshot:
                store.snapshots.setdefault(symbol, []).append(checked)
            return []
    instance = render(fact.term())  # rendered here, not up front: most instances are valid
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
    # one failed; facet violations do not block it.
    after_init = None if problems else definition.after_init
    if after_init:
        problem = _run_hook(after_init, store, "after_init", instance=checked,
                            snapshot_target=checked)
        if problem is not None:
            problems.append(problem)
    return problems


def _run_hook(script: hooks.HookScript, store: AccumulatorStore, label: str, *,
              instance: hooks.CheckedInstance | None,
              snapshot_target: hooks.CheckedInstance | None = None
              ) -> tuple[str, str] | None:
    """Run a script against the store; return its problem as (rule, message).

    label is the hook's key, e.g. "after_init".
    """
    on_snapshot = None
    if snapshot_target is not None:
        def on_snapshot():
            store.snapshots.setdefault(snapshot_target.symbol, []).append(snapshot_target)
    env = hooks.EvalEnv(
        instance=instance.values if instance is not None else None,
        class_store=store.class_store,
        prelude=store.prelude,
        on_snapshot=on_snapshot,
    )
    try:
        hooks.eval_instance(script, env)
    except hooks.CheckFailure as exc:
        return "hook-fail", exc.message
    except hooks.ScriptEvalError as exc:
        return "eval-error", f"{label}: {exc}"
    return None


# Per primitive type: the term class, its name in messages, the field value.
_KINDS = {
    PrimitiveType.INTEGER: (Number, "an integer", attrgetter("value")),
    PrimitiveType.STRING: (Str, "a string", attrgetter("value")),
    PrimitiveType.ALPHA: (Const, "an alphanumeric constant", attrgetter("name")),
}


def _compile(definition: UserDefinition, store: AccumulatorStore) -> _Checks:
    fields = definition.fields
    after, init = definition.after_grounding, definition.after_init
    snapshot = (after is not None and after.uses_self
                and (init is None or not init.uses_append_snapshot))
    in_after_init = init is not None or any(
        store.checks(store.spec.definitions[f.type]).in_after_init
        for f in fields if isinstance(f.type, str))
    return _Checks(
        fields=tuple((f.name, _compile_field(f, store)) for f in fields),
        sums=tuple((f.name, (definition.symbol, f.name), f.facets.sum_pos, f.facets.sum_neg)
                   for f in fields if f.facets.sum_pos or f.facets.sum_neg),
        snapshot=snapshot, in_after_init=in_after_init,
        order_free=not (snapshot or in_after_init))


def _compile_field(fld: FieldDecl, store: AccumulatorStore):
    """One field's kind and facet checks as a closure over its bounds.

    The closure returns the field's value.  Otherwise it raises _Invalid
    with the kind problem, or _BadFacets with every facet problem in turn:
    enum, min, max, pattern.
    """
    if isinstance(fld.type, str):
        return _compile_nested(fld.name, store.spec.definitions[fld.type], store)
    if fld.type is PrimitiveType.ANY:
        return lambda term: term
    name, facets = fld.name, fld.facets
    kind, noun, value_of = _KINDS[fld.type]
    enum = None if facets.enum_values is None else frozenset(facets.enum_values)
    lo, hi = facets.min, facets.max
    integer = fld.type is PrimitiveType.INTEGER
    what, shown = ("Should be", value_of) if integer else ("length should be", render)
    match = None if integer or facets.pattern is None else re.compile(facets.pattern).fullmatch

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
    return check


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
        # A hook over self runs once per snapshot, any other hook once.
        for snap in store.snapshots.get(symbol, []) if after.uses_self else [None]:
            problem = _run_hook(after, store, "after_grounding", instance=snap)
            if problem is not None:
                rule, message = problem
                shown = render(snap.source) if snap is not None and rule == "hook-fail" else None
                diags.append(diag(rule, message, instance=shown))
    return diags


# ---------------------------------------------------------------------------
# The run itself


def run(spec: ValidationSpec, facts, options: RunOptions | None = None) -> ValidationReport:
    """Apply a specification to a set of facts and report the verdict."""
    options = options or RunOptions()
    started = time.perf_counter()
    diags: list[Diagnostic] = []

    def report() -> ValidationReport:
        stats = RunStats(instances_checked=dict(store.counts),
                         wall_time=time.perf_counter() - started)
        return ValidationReport.from_diagnostics(diags, stats)

    store = AccumulatorStore(spec)

    spec_problems = check_spec(spec)
    if spec_problems:
        diags.extend(spec_problems)
        return report()

    # Step 1: the prelude defines run-wide constants.
    try:
        store.prelude = hooks.run_prelude(spec.prelude)
    except hooks.CheckFailure as exc:
        diags.append(Diagnostic("before", "", "hook-fail", f"prelude: {exc.message}"))
        return report()
    except hooks.ScriptEvalError as exc:
        diags.append(Diagnostic("before", "", "eval-error", f"prelude: {exc}"))
        return report()

    # Step 2: before hooks, in symbol order.
    for symbol in sorted(spec.definitions):
        definition = spec.definitions[symbol]
        script = definition.before_grounding
        if not script:
            continue
        problem = _run_hook(script, store, "before_grounding", instance=None)
        if problem is not None:
            diags.append(Diagnostic("before", symbol, *problem, arity=definition.arity))
        if diags and options.fail_fast:
            return report()

    # Step 3: the instance set.
    atoms, problem_diag = _instance_set(spec, facts, options)
    if problem_diag is not None:
        diags.append(problem_diag)
        return report()

    # Step 4: check instances, symbol by symbol: in term order where a hook
    # can observe the order, else in arrival order, sorting only the failing
    # ones.  Either way diagnostics come in term order.
    for symbol, group in _grouped_instances(spec, atoms):
        definition = spec.definitions[symbol]
        if store.checks(definition).order_free:
            failing = {fact: found for fact in group
                       if (found := check_instance(definition, fact, store))}
            outcomes = (failing[fact] for fact in sorted(failing, key=_args_key))
        else:
            outcomes = (check_instance(definition, fact, store)
                        for fact in sorted(group, key=_args_key))
        for instance_diags in outcomes:
            if instance_diags:
                if options.fail_fast:
                    diags.append(instance_diags[0])
                    return report()
                diags.extend(instance_diags)

    # Step 5: aggregate facets and after hooks, in symbol order.
    for symbol in sorted(spec.definitions):
        final_diags = finalize(spec.definitions[symbol], store)
        if final_diags:
            if options.fail_fast:
                diags.append(final_diags[0])
                return report()
            diags.extend(final_diags)

    return report()


def _instance_set(spec: ValidationSpec, facts, options: RunOptions):
    """Step 3: input atoms plus whatever the auxiliary program derives."""
    if options.grounder is not None:
        from . import emit

        if options.program_text is not None:
            program_text = options.program_text
        else:
            program_text = "\n".join(render(f.term()) + "." for f in
                                     sorted(set(facts), key=lambda f: sort_key(f.term())))
        if spec.asp_program:
            program_text += "\n" + spec.asp_program
        try:
            return emit.ground_with_external(program_text, options.grounder), None
        except emit.BridgeError as exc:
            return None, Diagnostic("before", "", "bridge-error", str(exc))

    program = datalog.Program([])
    if spec.asp_program and not spec.asp_program.isspace():
        try:
            program = datalog.parse_program(spec.asp_program)
        except (datalog.ProgramSyntaxError, datalog.UnsafeRuleError,
                datalog.UnstratifiedError) as exc:
            return None, Diagnostic("before", "", "asp-syntax", str(exc))
    rules = program.rules + list(options.rules)
    if not rules:
        return {*program.facts, *facts}, None
    try:
        return datalog.evaluate(datalog.Program(rules, program.facts), facts), None
    except datalog.UnstratifiedError as exc:  # only the joined rules have the cycle
        return None, Diagnostic("before", "", "asp-syntax", str(exc))
    except datalog.EvaluationError as exc:
        return None, Diagnostic("before", "", "eval-error", str(exc))


def _grouped_instances(spec: ValidationSpec, atoms):
    """Defined symbols in name order, each with its atoms in arrival order.

    Atoms whose predicate matches a definition only by name but not by arity
    are left unvalidated, mirroring how a grounder would treat them as a
    different predicate.
    """
    arities = {symbol: definition.arity for symbol, definition in spec.definitions.items()}
    groups: dict[str, list[Fact]] = {}
    for atom in atoms:
        if len(atom.args) == arities.get(atom.predicate):
            groups.setdefault(atom.predicate, []).append(atom)
    for symbol in sorted(groups):
        yield symbol, groups[symbol]


def _args_key(fact: Fact) -> tuple:
    """Term order within one group, where predicate and arity are fixed."""
    return tuple(map(sort_key, fact.args))
