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
Each rule's plan is compiled when it is parsed into nested closures over a
list of variable slots (see _Compiler); nothing interprets the rule later.
Body and aggregate-condition atoms read their relation through hash
indexes keyed by the argument positions known when the atom is reached
(ground, or a variable bound earlier in the plan), so a join touches only
the tuples that agree on those positions.  Indexes are built on first use
and kept current as relations grow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

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
    atoms: tuple = ()  # the predicate of each positive atom in the plan
    derive: object = None  # the compiled plan (see _Compiler.rule)


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
            return self.number(t.text, t.offset)
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
            return self.const(t.text)
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


def _vars_of(*items) -> set[str]:
    """The variables of terms and literals, found without recursion."""
    out: set[str] = set()
    stack = list(items)
    while stack:
        item = stack.pop()
        if isinstance(item, Var):
            out.add(item.name)
        elif isinstance(item, (Atom, FuncPat, TuplePat, AtTerm)):
            stack += item.args
        elif isinstance(item, (Arith, Comparison)):
            stack += (item.left, item.right)
        elif isinstance(item, Interval):
            stack += (item.lo, item.hi)
        elif isinstance(item, NegAtom):
            stack.append(item.atom)
        elif isinstance(item, AggregateLit):
            stack += (*item.agg.condition, *item.agg.elements, item.guard)
    return out


def _pattern_ready(term, known: set[str]) -> bool:
    """Whether matching term can compute what it must; adds its variables to known."""
    if isinstance(term, Var):
        known.add(term.name)
        return True
    if isinstance(term, (FuncPat, TuplePat)):
        return all(_pattern_ready(a, known) for a in term.args)
    if isinstance(term, (Arith, AtTerm)):
        return _vars_of(term) <= known
    return not isinstance(term, Interval)


def _aggregate_ready(lit: AggregateLit, bound: set[str]) -> bool:
    needed = _vars_of(lit) - _vars_of(*(c for c in lit.agg.condition if isinstance(c, Atom)))
    if lit.op == "=" and isinstance(lit.guard, Var):
        needed.discard(lit.guard.name)
    return needed <= bound


def _key_positions(atom: Atom, bound: set[str]) -> tuple[int, ...]:
    """Argument positions whose values are known before the atom is matched.

    A position is a key if it is ground or a variable bound earlier.  Keys
    stop at the first argument holding arithmetic, so a failing evaluation
    is met on the same candidate tuples as in a scan of the relation.
    """
    keys = []
    for pos, arg in enumerate(atom.args):
        if _arith_depth(arg):
            break
        if isinstance(arg, GROUND_TYPES) or (isinstance(arg, Var) and arg.name in bound):
            keys.append(pos)
    return tuple(keys)


def _plan_rule(rule: Rule) -> None:
    """Order the body so each literal is evaluable when reached; compile it."""
    compiler = _Compiler(rule.source)
    remaining = list(rule.body)
    plan: list = []
    bound: set[str] = set()
    while remaining:
        for idx, lit in enumerate(remaining):
            if isinstance(lit, Atom):
                known = set(bound)
                ready = all(_pattern_ready(a, known) for a in lit.args)
            elif isinstance(lit, NegAtom):
                ready = _vars_of(lit) <= bound
            elif isinstance(lit, Comparison):
                lv, rv = _vars_of(lit.left), _vars_of(lit.right)
                ready = (lv <= bound and rv <= bound) or lit.op == "=" and (
                    isinstance(lit.left, Var) and rv <= bound
                    or isinstance(lit.right, Var) and lv <= bound)
            else:
                ready = _aggregate_ready(lit, bound)
            if ready:
                plan.append(lit)
                compiler.literal(lit, bound)  # adds what lit binds to bound
                del remaining[idx]
                break
        else:
            unbound = sorted(_vars_of(*remaining) - bound)
            raise UnsafeRuleError(unbound[0] if unbound else "?", rule.source)
    head_vars = _vars_of(rule.head) if rule.head is not None else set()
    loose = sorted(v for v in head_vars - bound if not v.startswith("_#"))
    if loose:
        raise UnsafeRuleError(loose[0], rule.source)
    rule.plan = tuple(plan)
    rule.atoms = tuple(compiler.atoms)
    rule.derive = compiler.rule(rule.head, bound)


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

    An index holds the tuples of one predicate and arity in buckets, in
    insertion order, keyed by their values at some positions as
    itemgetter(*positions) gives them.  add keeps every built index current.
    """

    __slots__ = ("tuples", "_indexes", "_index_lists")

    def __init__(self) -> None:
        self.tuples: dict[str, dict[tuple, None]] = {}  # pred -> tuples as keys
        # (pred, arity, positions) -> key -> bucket
        self._indexes: dict[tuple, dict[object, list[tuple]]] = {}
        # pred -> (arity, key function, index) of each of its indexes
        self._index_lists: dict[str, list[tuple]] = {}

    def add(self, pred: str, args: tuple) -> bool:
        rel = self.tuples.get(pred)
        if rel is None:
            rel = self.tuples[pred] = {}
        elif args in rel:
            return False
        rel[args] = None
        for arity, key_of, index in self._index_lists.get(pred, ()):
            if len(args) == arity:
                index.setdefault(key_of(args), []).append(args)
        return True

    def lookup(self, pred: str, arity: int, positions: tuple, key):
        """The tuples of pred/arity holding key at positions, as of now."""
        index = self._indexes.get((pred, arity, positions))
        if index is None:
            index = self._indexes[pred, arity, positions] = {}
            # args[0:0] is (), the one key of an index without positions.
            key_of = itemgetter(*positions) if positions else itemgetter(slice(0, 0))
            self._index_lists.setdefault(pred, []).append((arity, key_of, index))
            for args in self.tuples.get(pred, ()):
                if len(args) == arity:
                    index.setdefault(key_of(args), []).append(args)
        bucket = index.get(key)
        if bucket is None:
            return ()
        # Tuples appended while the caller iterates are left to the next
        # round's delta, as a snapshot would leave them.
        return itertools.islice(bucket, len(bucket))


def _eval_stratum(rules: list[Rule], relations: _Relations) -> None:
    delta = _Relations()
    for rule in rules:
        rule.derive(relations, delta)

    # Only this stratum's heads enter the delta, so an atom over a lower
    # stratum never reads it.
    while delta.tuples:
        frozen, delta = delta, _Relations()
        for rule in rules:
            for occurrence, pred in enumerate(rule.atoms):
                if pred in frozen.tuples:
                    rule.derive(relations, delta, frozen, occurrence)
    # delta empty: fixpoint reached


# ---------------------------------------------------------------------------
# Compilation of planned rules
#
# A binding is a list with a slot per variable, numbered as first met; which
# are bound at each literal is known at planning.  A literal compiles to a
# maker: given the next literal's closure and the relations of one pass, it
# returns a closure that binds or checks slots of the binding and calls on.
# Nothing is copied per match; a stale slot is never read.


class _Compiler:
    """Compiles one rule's planned literals, in plan order, then its head."""

    def __init__(self, source: str):
        self.source = source
        self.slots: dict[str, int] = {}
        self.makers: list = []
        self.atoms: list[str] = []  # the predicate of each body atom compiled

    def slot(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots))

    def error(self, bound: set[str]):
        """error(message, b): an EvaluationError showing the bound variables."""
        shown = [(name, self.slot(name)) for name in bound]

        def error(message: str, b: list) -> EvaluationError:
            return EvaluationError(message, self.source, {name: b[s] for name, s in shown})
        return error

    # -- literals ----------------------------------------------------------

    def literal(self, lit, bound: set[str]) -> None:
        compile = {Atom: self.atom, NegAtom: self.negation, Comparison: self.comparison,
                   AggregateLit: self.aggregate}[type(lit)]
        self.makers.append(compile(lit, bound))

    def atom(self, atom: Atom, bound: set[str], in_body: bool = True):
        """Candidates by key positions, then binds, then checks left to right."""
        pred, arity = atom.pred, len(atom.args)
        occurrence = len(self.atoms) if in_body else -1
        if in_body:
            self.atoms.append(pred)
        positions = _key_positions(atom, bound)
        key = self.values([atom.args[p] for p in positions], bound, bare=True)
        binds: list[tuple[int, int]] = []  # (position, slot) of a variable met first
        checks: list = []  # (position, matcher) of every other argument
        for pos, arg in enumerate(atom.args):
            if pos in positions:
                continue
            if isinstance(arg, Var) and arg.name not in bound:
                bound.add(arg.name)
                binds.append((pos, self.slot(arg.name)))
            else:
                checks.append((pos, self.matcher(arg, bound)))

        def make(nxt, relations, delta, now):
            lookup = (delta if occurrence == now else relations).lookup

            def step(b: list) -> None:
                for args in lookup(pred, arity, positions, key(b)):
                    for p, s in binds:
                        b[s] = args[p]
                    for p, match in checks:
                        if not match(args[p], b):
                            break
                    else:
                        nxt(b)
            return step
        return make

    def matcher(self, pattern, bound: set[str]):
        """match(g, b): whether ground term g matches, binding pattern's new variables."""
        if isinstance(pattern, Var):
            s = self.slot(pattern.name)
            if pattern.name in bound:
                return lambda g, b: b[s] == g
            bound.add(pattern.name)

            def bind(g, b: list) -> bool:
                b[s] = g
                return True
            return bind
        if isinstance(pattern, (FuncPat, TuplePat)):
            subs = [self.matcher(a, bound) for a in pattern.args]
            kind, name = (Func, pattern.name) if isinstance(pattern, FuncPat) else (Tuple, None)
            return lambda g, b: (type(g) is kind and len(g.args) == len(subs)
                                 and getattr(g, "name", None) == name
                                 and all(sub(a, b) for sub, a in zip(subs, g.args)))
        if isinstance(pattern, GROUND_TYPES):
            return lambda g, b: g == pattern
        if isinstance(pattern, Arith):
            value = self.value(pattern, bound)
            return lambda g, b: value(b) == g
        return lambda g, b: False  # an interpreted term matches nothing

    def negation(self, lit: NegAtom, bound: set[str]):
        pred, values = lit.atom.pred, self.values(lit.atom.args, bound)

        def make(nxt, relations, delta, now):
            tuples = relations.tuples

            def step(b: list) -> None:
                if values(b) not in tuples.get(pred, ()):
                    nxt(b)
            return step
        return make

    def comparison(self, lit: Comparison, bound: set[str]):
        """Binds an unbound variable side of '=', else compares in term order."""
        if lit.op == "=":
            for var, other in ((lit.left, lit.right), (lit.right, lit.left)):
                if isinstance(var, Var) and var.name not in bound:
                    value = self.value(other, bound)
                    bound.add(var.name)
                    s = self.slot(var.name)

                    def make_bind(nxt, *_):
                        def step(b: list) -> None:
                            b[s] = value(b)
                            nxt(b)
                        return step
                    return make_bind
        left, right = self.value(lit.left, bound), self.value(lit.right, bound)
        holds = COMPARISONS[lit.op]

        def make(nxt, *_):
            def step(b: list) -> None:
                if holds(left(b), right(b)):
                    nxt(b)
            return step
        return make

    def aggregate(self, lit: AggregateLit, bound: set[str]):
        """Over the distinct element tuples, in the order found; binds or compares the guard."""
        inner = set(bound)  # condition variables stay local to the aggregate
        conditions = [self.atom(c, inner, in_body=False) if isinstance(c, Atom)
                      else self.comparison(c, inner) for c in lit.agg.condition]
        elements = [self.value(t, inner) for t in lit.agg.elements]
        error, func = self.error(bound), lit.agg.func
        guard = lit.guard
        if lit.op == "=" and isinstance(guard, Var) and guard.name not in bound:
            guard_slot, holds = self.slot(guard.name), None
            bound.add(guard.name)
        else:
            guard_value, holds = self.value(guard, bound), COMPARISONS[lit.op]

        def make(nxt, relations, delta, now):
            found: dict[tuple, None] = {}

            def collect(b: list) -> None:
                found[tuple([e(b) for e in elements])] = None
            solve = collect
            for condition in reversed(conditions):
                solve = condition(solve, relations, None, None)

            def step(b: list) -> None:
                found.clear()
                solve(b)
                if func == "count":
                    value = Number(len(found))
                elif func == "sum":
                    total = 0
                    for t in found:
                        if type(t[0]) is not Number:
                            raise error(f"#sum over a non-integer {render(t[0])}", b)
                        total += t[0].value
                    if too_many_digits(total):
                        raise error(integer_too_long("result"), b)
                    value = Number(total)
                elif not found:
                    return  # #min and #max bind nothing over an empty set
                else:
                    value = (min if func == "min" else max)(t[0] for t in found)
                if holds is None:
                    b[guard_slot] = value
                elif not holds(value, guard_value(b)):
                    return
                nxt(b)
            return step
        return make

    # -- terms -------------------------------------------------------------

    def value(self, term, bound: set[str]):
        """value(b): the ground value of term; an EvaluationError if it has none."""
        if isinstance(term, Var) and term.name in bound:
            return itemgetter(self.slot(term.name))
        if isinstance(term, GROUND_TYPES):
            return lambda b: term
        if isinstance(term, Arith):
            return self.arith(term, bound)
        if isinstance(term, (FuncPat, TuplePat)):
            return self.compound(term, bound)
        error = self.error(bound)
        message = (f"unbound variable {term.name}" if isinstance(term, Var)
                   else f"externally interpreted term @{term.name} cannot be evaluated"
                   if isinstance(term, AtTerm) else "interval outside a fact or rule head")

        def fail(b: list):
            raise error(message, b)
        return fail

    def arith(self, term: Arith, bound: set[str]):
        left, right = self.value(term.left, bound), self.value(term.right, bound)
        op, error = term.op, self.error(bound)

        def arith(b: list) -> Number:
            a, c = left(b), right(b)
            if type(a) is not Number or type(c) is not Number:
                raise error(f"arithmetic on non-integers ({op})", b)
            try:
                return Number(_arith(op, a.value, c.value))
            except ArithmeticError as exc:
                raise error(str(exc), b) from None
        return arith

    def values(self, terms, bound: set[str], bare: bool = False):
        """values(b): the terms' values as a tuple; if bare, alone for one term."""
        if len(terms) > (0 if bare else 1) and all(isinstance(t, Var) and t.name in bound for t in terms):
            return itemgetter(*[self.slots[t.name] for t in terms])
        values = [self.value(t, bound) for t in terms]
        if bare and len(values) == 1:
            return values[0]
        return lambda b: tuple([v(b) for v in values])

    def compound(self, term, bound: set[str]):
        """A derived function or tuple, whose arguments nest less than MAX_NESTING deep."""
        values = self.values(term.args, bound)
        build = Tuple if isinstance(term, TuplePat) else partial(Func, term.name)
        error = self.error(bound)

        def compound(b: list) -> GroundTerm:
            args = values(b)
            for v in args:
                if isinstance(v, (Func, Tuple)) and _term_depth(v) >= MAX_NESTING:
                    raise error(f"derived term nested more than {MAX_NESTING} levels deep", b)
            return build(args)
        return compound

    # -- the head and the whole rule ---------------------------------------

    def rule(self, head: Atom, bound: set[str]):
        """derive: one pass of the rule, adding each new head atom to relations and out."""
        pred, makers, width = head.pred, self.makers, len(self.slots)
        if any(isinstance(a, Interval) for a in head.args):
            instances = self.intervals(head.args, bound)
        else:
            values = self.values(head.args, bound)
            instances = lambda b: (values(b),)  # noqa: E731

        def derive(relations, out, delta=None, occurrence=None) -> None:
            add, note = relations.add, out.add

            def emit(b: list) -> None:
                for args in instances(b):
                    if add(pred, args):
                        note(pred, args)
            step = emit
            for make in reversed(makers):
                step = make(step, relations, delta, occurrence)
            step([None] * width)
        return derive

    def intervals(self, args: tuple, bound: set[str]):
        """instances(b): the head's argument tuples, one per value of each interval."""
        error = self.error(bound)

        def span(lo, hi):
            def numbers(b: list) -> list[Number]:
                first, last = lo(b), hi(b)
                if type(first) is not Number or type(last) is not Number:
                    raise error("interval bounds must be integers", b)
                return [Number(v) for v in range(first.value, last.value + 1)]
            return numbers
        columns = [span(self.value(a.lo, bound), self.value(a.hi, bound))
                   if isinstance(a, Interval) else self.values((a,), bound) for a in args]
        return lambda b: itertools.product(*[column(b) for column in columns])


def _term_depth(term: GroundTerm) -> int:
    """The most Func and Tuple nodes on one path through term."""
    deepest = 0
    stack = [(term, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += ((a, depth + 1) for a in node.args if isinstance(a, (Func, Tuple)))
    return deepest
