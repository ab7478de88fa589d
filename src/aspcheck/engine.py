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

from . import datalog, hooks
from .diagnostics import Diagnostic, RunStats, ValidationReport
from .schema import (
    FieldDecl,
    PrimitiveType,
    UserDefinition,
    ValidationSpec,
    check_spec,
)
from .terms import Const, Fact, Func, GroundTerm, Number, Str, render, sort_key

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
    store.counts[symbol] = store.counts.get(symbol, 0) + 1

    def diag(rule: str, message: str) -> Diagnostic:
        # Rendered here, not up front: most instances are valid.
        return Diagnostic("instance", symbol, rule, message,
                          instance=render(fact.term()), arity=definition.arity)

    if len(fact.args) != definition.arity:
        return [diag("wrong-arity",
                     f"{symbol} is expected to have arity {definition.arity},"
                     f" but {len(fact.args)} arguments are found")]

    diags: list[Diagnostic] = []
    values: dict[str, object] = {}
    for fld, arg in zip(definition.fields, fact.args):
        value, problem = _check_kind(fld, arg, store)
        if problem is not None:
            diags.append(diag(problem[0], problem[1]))
        else:
            values[fld.name] = value

    for fld, arg in zip(definition.fields, fact.args):
        if fld.name in values:
            for rule, message in _check_facets(fld, values[fld.name], arg):
                diags.append(diag(rule, message))

    if len(values) < definition.arity:
        # A kind failure leaves the field values incomplete; comparisons and
        # the hook cannot run.  Facet failures only block accumulation.
        return diags

    checked = hooks.CheckedInstance(symbol, values, fact.term())
    for rule, message in _having_and_after_init(definition, checked, store):
        diags.append(diag(rule, message))
    if diags:
        return diags
    _update_accumulators(definition, values, store)
    if _wants_implicit_snapshot(definition):
        store.snapshots.setdefault(symbol, []).append(checked)
    return []


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


def _check_kind(fld: FieldDecl, term: GroundTerm, store: AccumulatorStore):
    """Return (checked value, None) or (None, (rule, message))."""
    name = fld.name
    if fld.type is PrimitiveType.INTEGER:
        if isinstance(term, Number):
            return term.value, None
        return None, ("wrong-kind", f"{name}: expected an integer, received {render(term)}")
    if fld.type is PrimitiveType.STRING:
        if isinstance(term, Str):
            return term.value, None
        return None, ("wrong-kind", f"{name}: expected a string, received {render(term)}")
    if fld.type is PrimitiveType.ALPHA:
        if isinstance(term, Const):
            return term.name, None
        return None, ("wrong-kind",
                      f"{name}: expected an alphanumeric constant, received {render(term)}")
    if fld.type is PrimitiveType.ANY:
        return term, None
    return _check_nested(fld, term, store)


def _check_nested(fld: FieldDecl, term: GroundTerm, store: AccumulatorStore):
    """Validate a user-typed field value against the referenced definition.

    A unary definition accepts the bare term as its single field value (the
    forward form); higher arities require a function with the same name.
    """
    nested = store.spec.definitions[fld.type]
    if nested.arity == 1:
        args: tuple[GroundTerm, ...] = (term,)
    elif not isinstance(term, Func) or term.name != nested.symbol:
        return None, ("wrong-kind",
                      f"{fld.name}: expected an instance of {nested.symbol},"
                      f" received {render(term)}")
    elif len(term.args) != nested.arity:
        return None, ("wrong-arity",
                      f"{nested.symbol} is expected to have arity {nested.arity},"
                      f" but {len(term.args)} arguments are found")
    else:
        args = term.args

    # Unlike check_instance, a nested value reports its first problem only,
    # field by field: kind, then facets.
    values = {}
    for inner_fld, arg in zip(nested.fields, args):
        inner_value, problem = _check_kind(inner_fld, arg, store)
        if problem is not None:
            return None, problem
        facet_problems = _check_facets(inner_fld, inner_value, arg)
        if facet_problems:
            return None, facet_problems[0]
        values[inner_fld.name] = inner_value

    checked = hooks.CheckedInstance(nested.symbol, values, term)
    problems = _having_and_after_init(nested, checked, store)
    if problems:
        return None, problems[0]
    return checked, None


def _check_facets(fld: FieldDecl, value, term: GroundTerm) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    facets = fld.facets
    name = fld.name
    if facets.enum_values is not None and term not in facets.enum_values:
        shown = ", ".join(render(v) for v in facets.enum_values)
        out.append(("enum", f"{name}: {render(term)} is not one of [{shown}]"))
    if fld.type is PrimitiveType.INTEGER:
        if facets.min is not None and value < facets.min:
            out.append(("min", f"{name}: Should be >= {facets.min},"
                               f" but received {value}"))
        if facets.max is not None and value > facets.max:
            out.append(("max", f"{name}: Should be <= {facets.max},"
                               f" but received {value}"))
    elif fld.type in (PrimitiveType.STRING, PrimitiveType.ALPHA):
        if facets.min is not None and len(value) < facets.min:
            out.append(("min", f"{name}: length should be >= {facets.min},"
                               f" but received {render(term)}"))
        if facets.max is not None and len(value) > facets.max:
            out.append(("max", f"{name}: length should be <= {facets.max},"
                               f" but received {render(term)}"))
        if facets.pattern is not None:
            if re.fullmatch(facets.pattern, value) is None:
                out.append(("pattern", f"{name}: should match {facets.pattern!r},"
                                       f" but received {render(term)}"))
    return out


def _update_accumulators(definition: UserDefinition, values: dict,
                         store: AccumulatorStore) -> None:
    for fld in definition.fields:
        if fld.facets.sum_pos is None and fld.facets.sum_neg is None:
            continue
        value = values[fld.name]
        key = (definition.symbol, fld.name)
        if fld.facets.sum_pos is not None and value > 0:
            store.sums_pos[key] = store.sums_pos.get(key, 0) + value
        if fld.facets.sum_neg is not None and value < 0:
            store.sums_neg[key] = store.sums_neg.get(key, 0) + value


def _wants_implicit_snapshot(definition: UserDefinition) -> bool:
    after = definition.after_grounding
    if after is None or not after.uses_self:
        return False
    init = definition.after_init
    return init is None or not init.uses_append_snapshot


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
                diags.append(diag(rule, f"sum of {sign} {fld.name} in {symbol} is {total},"
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

    # Step 4: check instances, symbol by symbol, in term order.
    for symbol, group in _grouped_instances(spec, atoms):
        definition = spec.definitions[symbol]
        for fact in group:
            instance_diags = check_instance(definition, fact, store)
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
    """Defined symbols in name order, each group in term order.

    Atoms whose predicate matches a definition only by name but not by arity
    are left unvalidated, mirroring how a grounder would treat them as a
    different predicate.
    """
    groups: dict[str, list[Fact]] = {}
    for atom in atoms:
        definition = spec.definitions.get(atom.predicate)
        if definition is not None and len(atom.args) == definition.arity:
            groups.setdefault(atom.predicate, []).append(atom)
    for symbol in sorted(groups):
        yield symbol, sorted(groups[symbol], key=lambda f: sort_key(f.term()))
