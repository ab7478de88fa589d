"""Stratified rule evaluation for auxiliary validation programs.

The engine covers the fragment those programs actually need: normal rules,
negation and #min/#max/#count/#sum under stratification, comparisons,
integer arithmetic, and `l..u` intervals in facts and rule heads.  Heads
must be single atoms; disjunction, choice constructs and optimization are
rejected so that every program has one computable model.

A body-less rule whose head is ground after constant folding is a fact:
parse_program returns it in Program.facts, never as a Rule.

Evaluation is bottom-up and semi-naive per stratum: each iteration joins at
least one body atom against the tuples derived in the previous iteration.
Body and aggregate-condition atoms read their relation through hash
indexes keyed by the argument positions known when the atom is reached
(ground, or a variable bound earlier in the plan), so a join touches only
the tuples that agree on those positions.  Indexes are built on first use
and kept current as relations grow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .terms import (
    COMPARISONS,
    GROUND_TYPES,
    MAX_NESTING,
    Const,
    Fact,
    Func,
    GroundTerm,
    Number,
    ParseError,
    Str,
    TokenCursor,
    Tuple,
    integer_too_long,
    render,
    sort_key,
    too_many_digits,
)

__all__ = [
    "Program",
    "Rule",
    "ProgramSyntaxError",
    "UnsafeRuleError",
    "UnstratifiedError",
    "EvaluationError",
    "parse_program",
    "stratify",
    "evaluate",
]


class ProgramSyntaxError(ParseError):
    """Syntax error in rule text, positioned by line and column."""


class UnsafeRuleError(ValueError):
    def __init__(self, variable: str, rule_text: str):
        self.variable = variable
        self.rule_text = rule_text
        super().__init__(f"unsafe variable {variable} in rule: {rule_text}")


class UnstratifiedError(ValueError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(
            "program is not stratified; negation or aggregation on the cycle: "
            + " -> ".join(cycle + cycle[:1]))


class EvaluationError(RuntimeError):
    def __init__(self, message: str, rule_text: str, binding: dict):
        shown = ", ".join(f"{k}: {render(v)}" for k, v in sorted(binding.items())
                          if not k.startswith("_#"))
        super().__init__(f"{message} in rule: {rule_text} with {{{shown}}}")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Arith:
    op: str  # + - * /
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class FuncPat:
    name: str
    args: tuple


@dataclass(frozen=True, slots=True)
class TuplePat:
    args: tuple


@dataclass(frozen=True, slots=True)
class Interval:
    lo: object
    hi: object


@dataclass(frozen=True, slots=True)
class AtTerm:
    # Externally interpreted term; parses in permissive mode, never evaluates.
    name: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple


@dataclass(frozen=True, slots=True)
class NegAtom:
    atom: Atom


@dataclass(frozen=True, slots=True)
class Comparison:
    op: str  # = != < <= > >=
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Aggregate:
    func: str  # min max count sum
    elements: tuple  # element terms, first one is the weight
    condition: tuple  # Atom | Comparison


@dataclass(frozen=True, slots=True)
class AggregateLit:
    agg: Aggregate
    op: str
    guard: object  # term


@dataclass(slots=True)
class Rule:
    head: Atom | None
    body: tuple
    source: str
    plan: tuple = ()  # body reordered so every literal is ready when reached
    # One entry per plan literal: (occurrence, key positions) for an Atom,
    # the key positions of each condition literal for an aggregate, else None.
    lookups: tuple = ()


@dataclass(slots=True)
class Program:
    rules: list[Rule]
    facts: list[Fact] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!="}


class _ProgramParser(TokenCursor):
    error_class = ProgramSyntaxError

    def __init__(self, text: str, *, permissive: bool):
        super().__init__(text)
        self.permissive = permissive
        self.anon_count = 0
        # (message, offset) of the current rule's first constant that cannot
        # be evaluated; an error if it sits in the head of a body-less rule.
        self.defect: tuple[str, int] | None = None

    def parse(self) -> tuple[list[Rule], list[Fact]]:
        rules: list[Rule] = []
        facts: list[Fact] = []
        while True:
            self.flat_facts(facts)
            if self.cur.kind == "end":
                break
            item = self.rule()
            (facts if type(item) is Fact else rules).append(item)
        return rules, facts

    def rule(self) -> Rule | Fact:
        start = self.cur.offset
        self.defect = None
        head: Atom | None = None
        if self.cur.text == ":-":
            if not self.permissive:
                raise self.error_at(
                    "constraints have no meaning here; only defining rules are"
                    " evaluated")
            self.advance()
            body = self.body()
        else:
            head = self.head_atom()
            if self.cur.text == "|":
                raise self.error_at("disjunctive heads are not supported")
            body = ()
            if self.cur.text == ":-":
                self.advance()
                body = self.body()
            elif self.defect is not None:
                # Bad data in a fact is a syntax error where it is written.
                raise self.error_at(*self.defect)
        end_tok = self.expect(".", "'.' terminating the rule")
        if not body and all(isinstance(a, GROUND_TYPES) for a in head.args):
            return Fact(head.pred, head.args)
        source = " ".join(self.text[start : end_tok.offset + 1].split())
        return Rule(head=head, body=body, source=source)

    def head_atom(self) -> Atom:
        if self.cur.text == "{":
            raise self.error_at("choice rules are not supported")
        t = self.cur
        if t.kind != "ident":
            raise self.error("a rule head")
        self.advance()
        args: tuple = ()
        if self.cur.text == "(":
            self.advance()
            args = tuple(self.term_list(allow_interval=True))
            self.expect(")", "')' closing the head")
        return Atom(t.text, args)

    def body(self) -> tuple:
        literals = [self.body_literal()]
        while self.cur.text == ",":
            self.advance()
            literals.append(self.body_literal())
        return tuple(literals)

    def body_literal(self):
        if self.cur.kind == "ident" and self.cur.text == "not":
            self.advance()
            return NegAtom(self.atom())
        if self.cur.kind == "agg":
            agg = self.aggregate()
            if self.cur.text not in COMPARISONS:
                raise self.error("a comparison after the aggregate")
            op = self.advance().text
            right = self.term()
            return AggregateLit(agg, op, right)
        left = self.term()
        if self.cur.text in COMPARISONS:
            op = self.advance().text
            if self.cur.kind == "agg":
                return AggregateLit(self.aggregate(), _FLIP[op], left)
            return Comparison(op, left, self.term())
        return self.as_atom(left)

    def as_atom(self, term) -> Atom:
        if isinstance(term, (FuncPat, Func)):
            return Atom(term.name, term.args)
        if isinstance(term, Const):
            return Atom(term.name, ())
        raise self.error_at("expected an atom or a comparison")

    def atom(self) -> Atom:
        return self.as_atom(self.term())

    def aggregate(self) -> Aggregate:
        func = self.advance().text[1:]
        self.expect("{", "'{' opening the aggregate")
        elements = tuple(self.term_list())
        condition: tuple = ()
        if self.cur.text == ":":
            self.advance()
            cond = [self.condition_literal()]
            while self.cur.text == ",":
                self.advance()
                cond.append(self.condition_literal())
            condition = tuple(cond)
        if self.cur.text == ";":
            raise self.error_at("multiple aggregate elements are not supported")
        self.expect("}", "'}' closing the aggregate")
        return Aggregate(func, elements, condition)

    def condition_literal(self):
        left = self.term()
        if self.cur.text in COMPARISONS:
            op = self.advance().text
            return Comparison(op, left, self.term())
        return self.as_atom(left)

    def term_list(self, *, allow_interval: bool = False) -> list:
        terms = [self.term(allow_interval=allow_interval)]
        while self.cur.text == ",":
            self.advance()
            terms.append(self.term(allow_interval=allow_interval))
        return terms

    def term(self, *, allow_interval: bool = False):
        start = self.cur.offset
        node = self.additive()
        if self.cur.text == "..":
            if not allow_interval:
                raise self.error_at("intervals are only supported in facts and rule heads")
            self.advance()
            node = Interval(node, self.additive())
            bounds = (node.lo, node.hi)
            if all(isinstance(b, GROUND_TYPES) for b in bounds) \
                    and not all(isinstance(b, Number) for b in bounds):
                self.defect = self.defect or ("interval bounds must be integers", start)
        if isinstance(node, (Arith, Interval)) and _arith_depth(node) > MAX_NESTING:
            raise self.error_at(f"arithmetic nested more than {MAX_NESTING} levels deep", start)
        return node

    def additive(self):
        node = self.multiplicative()
        while self.cur.text in ("+", "-"):
            op_tok = self.advance()
            node = self.fold(op_tok, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.unary()
        while self.cur.text in ("*", "/"):
            op_tok = self.advance()
            node = self.fold(op_tok, node, self.unary())
        return node

    def fold(self, op_tok, left, right):
        """left op right, computed now if both are numbers and it has a value.

        1/0 and a result with too many digits stay unfolded, to be reported
        when the rule is evaluated, and become a defect at the operator.
        """
        if isinstance(left, Number) and isinstance(right, Number):
            try:
                return Number(_arith(op_tok.text, left.value, right.value))
            except ArithmeticError as exc:
                self.defect = self.defect or (str(exc), op_tok.offset)
        return Arith(op_tok.text, left, right)

    def unary(self):
        signs = 0
        while self.cur.text == "-":
            self.advance()
            signs += 1
        node = self.primary()
        for _ in range(signs):
            if isinstance(node, Number):
                node = Number(-node.value)
            else:
                node = Arith("-", Number(0), node)
        return node

    def primary(self):
        t = self.cur
        if t.kind == "number":
            self.advance()
            return Number(self.integer(t.text, t.offset))
        if t.kind == "string":
            self.advance()
            return Str(self.string_value(t))
        if t.kind == "var":
            self.advance()
            return Var(t.text)
        if t.kind == "anon":
            self.advance()
            self.anon_count += 1
            return Var(f"_#{self.anon_count}")
        if t.text == "@":
            if not self.permissive:
                raise self.error_at(
                    "externally interpreted terms cannot be evaluated here")
            self.advance()
            if self.cur.kind != "ident":
                raise self.error("a name after '@'")
            name = self.advance().text
            self.expect("(", "'(' after the interpreted term name")
            args = () if self.cur.text == ")" else tuple(self.term_list())
            self.expect(")", "')'")
            return AtTerm(name, args)
        if t.kind == "ident":
            self.advance()
            if self.cur.text == "(":
                self.open_paren()
                args = tuple(self.term_list())
                self.close_paren("')' closing the argument list")
                if all(isinstance(a, GROUND_TYPES) for a in args):
                    return Func(t.text, args)
                return FuncPat(t.text, args)
            return Const(t.text)
        if t.text == "(":
            items, is_tuple = self.parenthesized(self.term)
            if not is_tuple:
                return items[0]
            if all(isinstance(a, GROUND_TYPES) for a in items):
                return Tuple(tuple(items))
            return TuplePat(tuple(items))
        raise self.error("a term")


def _arith_depth(term) -> int:
    """The most Arith nodes on one path through term, counted without recursion."""
    deepest = 0
    stack = [(term, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Arith):
            depth += 1
            deepest = max(deepest, depth)
            stack += ((node.left, depth), (node.right, depth))
        elif isinstance(node, Interval):
            stack += ((node.lo, depth), (node.hi, depth))
        elif isinstance(node, (FuncPat, TuplePat, AtTerm)):
            stack += ((arg, depth) for arg in node.args)
    return deepest


def _arith(op: str, a: int, b: int) -> int:
    """a op b; an ArithmeticError naming the reason when it has no value."""
    if op == "+":
        value = a + b
    elif op == "-":
        value = a - b
    elif op == "*":
        value = a * b
    elif op == "/":
        if b == 0:
            raise ZeroDivisionError("division by zero")
        q = abs(a) // abs(b)
        value = q if (a >= 0) == (b >= 0) else -q
    else:
        raise AssertionError(op)
    if too_many_digits(value):
        raise OverflowError(integer_too_long("result"))
    return value


# ---------------------------------------------------------------------------
# Variables, safety and planning


def _term_vars(term, out: set[str]) -> None:
    if isinstance(term, Var):
        out.add(term.name)
    elif isinstance(term, (FuncPat, TuplePat)):
        for a in term.args:
            _term_vars(a, out)
    elif isinstance(term, Arith):
        _term_vars(term.left, out)
        _term_vars(term.right, out)
    elif isinstance(term, Interval):
        _term_vars(term.lo, out)
        _term_vars(term.hi, out)
    elif isinstance(term, AtTerm):
        for a in term.args:
            _term_vars(a, out)


def _vars_of(*items) -> set[str]:
    out: set[str] = set()
    for item in items:
        if isinstance(item, Atom):
            for a in item.args:
                _term_vars(a, out)
        elif isinstance(item, NegAtom):
            out |= _vars_of(item.atom)
        elif isinstance(item, Comparison):
            _term_vars(item.left, out)
            _term_vars(item.right, out)
        elif isinstance(item, AggregateLit):
            out |= _vars_of(*item.agg.condition)
            for t in item.agg.elements:
                _term_vars(t, out)
            _term_vars(item.guard, out)
        else:
            _term_vars(item, out)
    return out


def _atom_binds(atom: Atom, bound: set[str]) -> set[str] | None:
    """Vars the atom would bind, or None if its computed args are not ready."""
    binds: set[str] = set()
    for arg in atom.args:
        if not _pattern_binds(arg, bound, binds):
            return None
    return binds


def _pattern_binds(term, bound: set[str], binds: set[str]) -> bool:
    if isinstance(term, Var):
        binds.add(term.name)
        return True
    if isinstance(term, (FuncPat, TuplePat)):
        return all(_pattern_binds(a, bound, binds) for a in term.args)
    if isinstance(term, (Arith, AtTerm)):
        needed: set[str] = set()
        _term_vars(term, needed)
        return needed <= bound | binds
    if isinstance(term, Interval):
        return False
    return True  # ground


def _aggregate_ready(lit: AggregateLit, bound: set[str]) -> bool:
    cond_binds: set[str] = set()
    for c in lit.agg.condition:
        if isinstance(c, Atom):
            for a in c.args:
                _term_vars(a, cond_binds)
    needed = _vars_of(lit) - cond_binds
    guard_vars: set[str] = set()
    _term_vars(lit.guard, guard_vars)
    if lit.op == "=" and isinstance(lit.guard, Var):
        needed -= guard_vars
    return needed <= bound


def _key_positions(atom: Atom, bound: set[str]) -> tuple[int, ...]:
    """Argument positions whose values are known before the atom is matched.

    A position is a key if it is ground or a variable bound earlier.  Keys
    stop at the first argument holding arithmetic, so a failing evaluation
    is met on the same candidate tuples as in a scan of the relation.
    """
    keys = []
    for pos, arg in enumerate(atom.args):
        if not _is_pattern(arg):
            break
        if isinstance(arg, GROUND_TYPES) or (isinstance(arg, Var) and arg.name in bound):
            keys.append(pos)
    return tuple(keys)


def _is_pattern(term) -> bool:
    """True if matching the term never evaluates anything."""
    if isinstance(term, (FuncPat, TuplePat)):
        return all(_is_pattern(a) for a in term.args)
    return not isinstance(term, Arith)


def _condition_keys(condition: tuple, bound: set[str]) -> tuple:
    """Key positions of each aggregate condition atom; None for a comparison."""
    bound = set(bound)
    keys: list = []
    for lit in condition:
        if isinstance(lit, Atom):
            keys.append(_key_positions(lit, bound))
            bound |= _vars_of(lit)
        else:
            keys.append(None)
    return tuple(keys)


def _plan_rule(rule: Rule) -> None:
    """Reorder the body greedily so each literal is evaluable when reached.

    Each planned literal also gets its lookup metadata (see Rule.lookups):
    an atom's occurrence number counts the atoms before it in the plan.
    """
    remaining = list(rule.body)
    plan: list = []
    lookups: list = []
    atoms = 0
    bound: set[str] = set()
    while remaining:
        progress = False
        for idx, lit in enumerate(remaining):
            ready = False
            binds: set[str] = set()
            if isinstance(lit, Atom):
                got = _atom_binds(lit, bound)
                if got is not None:
                    ready, binds = True, got
            elif isinstance(lit, NegAtom):
                ready = _vars_of(lit) <= bound
            elif isinstance(lit, Comparison):
                lv: set[str] = set()
                rv: set[str] = set()
                _term_vars(lit.left, lv)
                _term_vars(lit.right, rv)
                if lv <= bound and rv <= bound:
                    ready = True
                elif lit.op == "=" and isinstance(lit.left, Var) and rv <= bound:
                    ready, binds = True, {lit.left.name}
                elif lit.op == "=" and isinstance(lit.right, Var) and lv <= bound:
                    ready, binds = True, {lit.right.name}
            elif isinstance(lit, AggregateLit):
                if _aggregate_ready(lit, bound):
                    ready = True
                    if lit.op == "=" and isinstance(lit.guard, Var):
                        binds = {lit.guard.name}
            if ready:
                plan.append(lit)
                if isinstance(lit, Atom):
                    lookups.append((atoms, _key_positions(lit, bound)))
                    atoms += 1
                elif isinstance(lit, AggregateLit):
                    lookups.append(_condition_keys(lit.agg.condition, bound))
                else:
                    lookups.append(None)
                bound |= binds
                del remaining[idx]
                progress = True
                break
        if not progress:
            unbound = sorted(_vars_of(*remaining) - bound)
            raise UnsafeRuleError(unbound[0] if unbound else "?", rule.source)
    head_vars = _vars_of(rule.head) if rule.head is not None else set()
    loose = sorted(v for v in head_vars - bound if not v.startswith("_#"))
    if loose:
        raise UnsafeRuleError(loose[0], rule.source)
    rule.plan = tuple(plan)
    rule.lookups = tuple(lookups)


# ---------------------------------------------------------------------------
# Stratification


def stratify(program: "Program | list[Rule]") -> list[list[str]]:
    """Partition predicates into strata; raise UnstratifiedError on bad cycles."""
    rules = program.rules if isinstance(program, Program) else program
    preds: set[str] = set()
    pos_edges: set[tuple[str, str]] = set()
    neg_edges: set[tuple[str, str]] = set()
    for rule in rules:
        if rule.head is None:
            continue
        h = rule.head.pred
        preds.add(h)
        for lit in rule.body:
            if isinstance(lit, Atom):
                preds.add(lit.pred)
                pos_edges.add((lit.pred, h))
            elif isinstance(lit, NegAtom):
                preds.add(lit.atom.pred)
                neg_edges.add((lit.atom.pred, h))
            elif isinstance(lit, AggregateLit):
                for c in lit.agg.condition:
                    if isinstance(c, Atom):
                        preds.add(c.pred)
                        neg_edges.add((c.pred, h))

    succ: dict[str, list[str]] = {p: [] for p in sorted(preds)}
    for src, dst in sorted(pos_edges | neg_edges):
        succ[src].append(dst)
    sccs = _tarjan(succ)
    scc_of = {p: i for i, scc in enumerate(sccs) for p in scc}
    for src, dst in sorted(neg_edges):
        if scc_of[src] == scc_of[dst]:
            # A real cycle through the offending edge, from the least member.
            start = min(sccs[scc_of[src]])
            raise UnstratifiedError(_path(succ, start, src) + _path(succ, dst, start)[:-1])

    # Longest path over the condensation, counting negative edges.
    level = {i: 0 for i in range(len(sccs))}
    changed = True
    while changed:
        changed = False
        for src, dst in pos_edges:
            if scc_of[src] != scc_of[dst]:
                want = level[scc_of[src]]
                if level[scc_of[dst]] < want:
                    level[scc_of[dst]] = want
                    changed = True
        for src, dst in neg_edges:
            want = level[scc_of[src]] + 1
            if level[scc_of[dst]] < want:
                level[scc_of[dst]] = want
                changed = True

    if not preds:
        return []
    height = max(level.values()) + 1
    strata: list[list[str]] = [[] for _ in range(height)]
    for i, scc in enumerate(sccs):
        strata[level[i]].extend(scc)
    return [sorted(s) for s in strata if s]


def _path(succ: dict[str, list[str]], start: str, goal: str) -> list[str]:
    """A shortest path from start to goal, breadth first in successor order."""
    came_from = {start: start}
    queue = [start]
    for node in queue:
        for nxt in succ[node]:
            if nxt not in came_from:
                came_from[nxt] = node
                queue.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(came_from[path[-1]])
    return path[::-1]


def _tarjan(succ: dict[str, list[str]]) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = itertools.count()

    def visit(root: str) -> None:
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    for node in sorted(succ):
        if node not in index:
            visit(node)
    return sccs


def parse_program(text: str, *, permissive: bool = False) -> Program:
    """Parse rule text into rules and ground facts.

    Unless permissive, every rule is planned (which checks safety) and the
    rules are stratified, so an unstratified text is rejected here.
    """
    rules, facts = _ProgramParser(text, permissive=permissive).parse()
    if not permissive:
        for rule in rules:
            _plan_rule(rule)
        stratify(rules)
    return Program(rules=rules, facts=facts)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(program: Program, input_facts) -> set[Fact]:
    """The unique stratified model over the program's and the input facts.

    The rules must come from a non-permissive parse_program (they carry
    their plans); they are stratified here, so a set of rules joined from
    several programs raises UnstratifiedError if the join has a bad cycle.
    """
    strata = stratify(program.rules)
    stratum_of = {p: i for i, s in enumerate(strata) for p in s}
    relations = _Relations()
    model: set[Fact] = set()
    for fact in itertools.chain(program.facts, input_facts):
        model.add(fact)
        relations.add(fact.predicate, fact.args)

    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(stratum_of[rule.head.pred], []).append(rule)

    for idx in sorted(by_stratum):
        _eval_stratum(by_stratum[idx], relations)

    # The set keeps the given Fact objects, so the caller's facts are not
    # held twice.
    model.update(Fact(pred, args)
                 for pred, rel in relations.tuples.items() for args in rel)
    return model


class _Relations:
    """Tuples by predicate in insertion order, with hash indexes built on first use.

    An index holds the tuples of one predicate and arity in buckets keyed
    by their values at some argument positions, each bucket in insertion
    order.  add keeps every built index current, so lookups stay exact
    while the relations of the stratum being evaluated grow.
    """

    __slots__ = ("tuples", "_indexes")

    def __init__(self) -> None:
        self.tuples: dict[str, dict[tuple, None]] = {}  # pred -> tuples as keys
        # pred -> (arity, positions) -> key -> bucket
        self._indexes: dict[str, dict[tuple, dict[tuple, list[tuple]]]] = {}

    def add(self, pred: str, args: tuple) -> bool:
        rel = self.tuples.get(pred)
        if rel is None:
            rel = self.tuples[pred] = {}
        elif args in rel:
            return False
        rel[args] = None
        indexes = self._indexes.get(pred)
        if indexes:
            for (arity, positions), index in indexes.items():
                if len(args) == arity:
                    index.setdefault(tuple([args[p] for p in positions]), []).append(args)
        return True

    def lookup(self, pred: str, arity: int, positions: tuple, key: tuple):
        """The tuples of pred/arity holding key at positions, as of now."""
        indexes = self._indexes.get(pred)
        if indexes is None:
            indexes = self._indexes[pred] = {}
        index = indexes.get((arity, positions))
        if index is None:
            index = indexes[arity, positions] = {}
            for args in self.tuples.get(pred, ()):
                if len(args) == arity:
                    index.setdefault(tuple([args[p] for p in positions]), []).append(args)
        bucket = index.get(key)
        if bucket is None:
            return ()
        # Tuples appended while the caller iterates are left to the next
        # round's delta, as a snapshot would leave them.
        return itertools.islice(bucket, len(bucket))


def _candidates(relations: _Relations, atom: Atom, positions: tuple,
                binding: dict):
    """The tuples that can match atom: its key positions already agree."""
    args = atom.args
    key = tuple([binding[args[p].name] if isinstance(args[p], Var) else args[p]
                 for p in positions])
    return relations.lookup(atom.pred, len(args), positions, key)


def _eval_stratum(rules: list[Rule], relations: _Relations) -> None:
    delta = _Relations()

    def derive(rule: Rule, delta_occurrence: int | None,
               frozen: _Relations | None) -> None:
        for binding in _solve(rule, 0, {}, relations, delta_occurrence, frozen):
            for args in _instantiate_head(rule.head, binding, rule):
                if relations.add(rule.head.pred, args):
                    delta.add(rule.head.pred, args)

    for rule in rules:
        derive(rule, None, None)

    # Only this stratum's heads enter the delta, so an atom over a lower
    # stratum never reads it.
    while delta.tuples:
        frozen, delta = delta, _Relations()
        for rule in rules:
            for lit, lookup in zip(rule.plan, rule.lookups):
                if isinstance(lit, Atom) and lit.pred in frozen.tuples:
                    derive(rule, lookup[0], frozen)
    # delta empty: fixpoint reached


def _solve(rule: Rule, i: int, binding: dict, relations: _Relations,
           delta_occurrence: int | None, delta: _Relations | None):
    plan = rule.plan
    if i == len(plan):
        yield binding
        return
    lit = plan[i]
    if isinstance(lit, Atom):
        occurrence, positions = rule.lookups[i]
        source = delta if occurrence == delta_occurrence else relations
        for args in _candidates(source, lit, positions, binding):
            new_binding = _match_args(lit.args, args, binding, rule)
            if new_binding is not None:
                yield from _solve(rule, i + 1, new_binding, relations,
                                  delta_occurrence, delta)
        return
    if isinstance(lit, NegAtom):
        args = tuple(_eval_term(a, binding, rule) for a in lit.atom.args)
        if args not in relations.tuples.get(lit.atom.pred, ()):
            yield from _solve(rule, i + 1, binding, relations,
                              delta_occurrence, delta)
        return
    if isinstance(lit, Comparison):
        result = _eval_comparison(lit, binding, rule)
        if result is not None:
            yield from _solve(rule, i + 1, result, relations,
                              delta_occurrence, delta)
        return
    if isinstance(lit, AggregateLit):
        result = _eval_aggregate(lit, rule.lookups[i], binding, relations, rule)
        if result is not None:
            yield from _solve(rule, i + 1, result, relations,
                              delta_occurrence, delta)
        return
    raise EvaluationError(f"cannot evaluate literal {lit!r}", rule.source, binding)


def _eval_comparison(lit: Comparison, binding: dict, rule: Rule) -> dict | None:
    if lit.op == "=":
        if isinstance(lit.left, Var) and lit.left.name not in binding:
            value = _eval_term(lit.right, binding, rule)
            return {**binding, lit.left.name: value}
        if isinstance(lit.right, Var) and lit.right.name not in binding:
            value = _eval_term(lit.left, binding, rule)
            return {**binding, lit.right.name: value}
    left = _eval_term(lit.left, binding, rule)
    right = _eval_term(lit.right, binding, rule)
    return binding if _holds(lit.op, left, right) else None


def _holds(op: str, left: GroundTerm, right: GroundTerm) -> bool:
    return COMPARISONS[op](sort_key(left), sort_key(right))


def _eval_aggregate(lit: AggregateLit, keys: tuple, binding: dict,
                    relations: _Relations, rule: Rule) -> dict | None:
    tuples = dict.fromkeys(  # distinct, in the order they are found
        tuple(_eval_term(t, cond_binding, rule) for t in lit.agg.elements)
        for cond_binding in _solve_condition(lit.agg.condition, keys, 0, binding,
                                             relations, rule))

    func = lit.agg.func
    value: GroundTerm
    if func == "count":
        value = Number(len(tuples))
    elif func == "sum":
        total = 0
        for t in tuples:
            if not isinstance(t[0], Number):
                raise EvaluationError(
                    f"#sum over a non-integer {render(t[0])}", rule.source, binding)
            total += t[0].value
        if too_many_digits(total):
            raise EvaluationError(integer_too_long("result"), rule.source, binding)
        value = Number(total)
    elif func in ("min", "max"):
        if not tuples:
            return None  # the aggregate binds nothing over an empty set
        pick = min if func == "min" else max
        value = pick((t[0] for t in tuples), key=sort_key)
    else:
        raise EvaluationError(f"unknown aggregate #{func}", rule.source, binding)

    if lit.op == "=" and isinstance(lit.guard, Var) and lit.guard.name not in binding:
        return {**binding, lit.guard.name: value}
    guard = _eval_term(lit.guard, binding, rule)
    return binding if _holds(lit.op, value, guard) else None


def _solve_condition(condition: tuple, keys: tuple, i: int, binding: dict,
                     relations: _Relations, rule: Rule):
    if i == len(condition):
        yield binding
        return
    lit = condition[i]
    if isinstance(lit, Atom):
        for args in _candidates(relations, lit, keys[i], binding):
            new_binding = _match_args(lit.args, args, binding, rule)
            if new_binding is not None:
                yield from _solve_condition(condition, keys, i + 1, new_binding,
                                            relations, rule)
        return
    if isinstance(lit, Comparison):
        result = _eval_comparison(lit, binding, rule)
        if result is not None:
            yield from _solve_condition(condition, keys, i + 1, result,
                                        relations, rule)
        return
    raise EvaluationError(f"unsupported aggregate condition {lit!r}",
                          rule.source, binding)


def _match_args(patterns: tuple, ground: tuple, binding: dict,
                rule: Rule) -> dict | None:
    new_binding = binding
    for pat, g in zip(patterns, ground):
        new_binding = _match(pat, g, new_binding, rule)
        if new_binding is None:
            return None
    return new_binding


def _match(pattern, ground: GroundTerm, binding: dict, rule: Rule) -> dict | None:
    if isinstance(pattern, Var):
        seen = binding.get(pattern.name)
        if seen is None:
            return {**binding, pattern.name: ground}
        return binding if seen == ground else None
    if isinstance(pattern, FuncPat):
        if not isinstance(ground, Func) or ground.name != pattern.name \
                or len(ground.args) != len(pattern.args):
            return None
        return _match_args(pattern.args, ground.args, binding, rule)
    if isinstance(pattern, TuplePat):
        if not isinstance(ground, Tuple) or len(ground.args) != len(pattern.args):
            return None
        return _match_args(pattern.args, ground.args, binding, rule)
    if isinstance(pattern, Arith):
        return binding if _eval_term(pattern, binding, rule) == ground else None
    if isinstance(pattern, GROUND_TYPES):
        return binding if pattern == ground else None
    return None


def _eval_term(term, binding: dict, rule: Rule) -> GroundTerm:
    if isinstance(term, Var):
        try:
            return binding[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name}",
                                  rule.source, binding) from None
    if isinstance(term, Arith):
        left = _eval_term(term.left, binding, rule)
        right = _eval_term(term.right, binding, rule)
        if not isinstance(left, Number) or not isinstance(right, Number):
            raise EvaluationError(
                f"arithmetic on non-integers ({term.op})", rule.source, binding)
        try:
            return Number(_arith(term.op, left.value, right.value))
        except ArithmeticError as exc:
            raise EvaluationError(str(exc), rule.source, binding) from None
    if isinstance(term, FuncPat):
        return Func(term.name, _eval_args(term.args, binding, rule))
    if isinstance(term, TuplePat):
        return Tuple(_eval_args(term.args, binding, rule))
    if isinstance(term, AtTerm):
        raise EvaluationError(
            f"externally interpreted term @{term.name} cannot be evaluated",
            rule.source, binding)
    if isinstance(term, Interval):
        raise EvaluationError("interval outside a fact or rule head",
                              rule.source, binding)
    return term  # ground


def _eval_args(args: tuple, binding: dict, rule: Rule) -> tuple:
    """The values of a derived function's or tuple's arguments.

    Each may nest less than MAX_NESTING deep, so the term built from them
    nests at most as deep as parsed input may.
    """
    values = tuple([_eval_term(a, binding, rule) for a in args])
    for value in values:
        if isinstance(value, (Func, Tuple)) and _term_depth(value) >= MAX_NESTING:
            raise EvaluationError(
                f"derived term nested more than {MAX_NESTING} levels deep",
                rule.source, binding)
    return values


def _term_depth(term: GroundTerm) -> int:
    """The most Func and Tuple nodes on one path through term."""
    deepest = 0
    stack = [(term, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += ((a, depth + 1) for a in node.args if isinstance(a, (Func, Tuple)))
    return deepest


def _instantiate_head(head: Atom, binding: dict, rule: Rule):
    """Ground the head; intervals multiply out into one atom per value."""
    slots: list[list[GroundTerm]] = []
    for arg in head.args:
        if isinstance(arg, Interval):
            lo = _eval_term(arg.lo, binding, rule)
            hi = _eval_term(arg.hi, binding, rule)
            if not isinstance(lo, Number) or not isinstance(hi, Number):
                raise EvaluationError("interval bounds must be integers",
                                      rule.source, binding)
            slots.append([Number(v) for v in range(lo.value, hi.value + 1)])
        else:
            slots.append([_eval_term(arg, binding, rule)])
    for combo in itertools.product(*slots):
        yield tuple(combo)
