"""Stratified rule evaluation for auxiliary validation programs.

The engine covers the fragment those programs actually need: normal rules,
negation and #min/#max/#count/#sum under stratification, comparisons,
integer arithmetic, and `l..u` intervals in facts and rule heads.  Heads
must be single atoms; disjunction, choice constructs and optimization are
rejected so that every program has one computable model.

The parser here is the one reader of ASP text: parse_program, and through
it terms.parse_facts and terms.parse_term, share its lexer and grammar, and
the grounder bridge (emit) reads the rule heads of its output with it.
A body-less rule whose head is ground after constant folding is a fact:
parse_program returns it in Program.facts, never as a Rule.  A constraint
(`:- body.`) derives no atom, so it is read for its syntax and dropped.  An
externally interpreted term (`@f(t)`) is read anywhere a term is, and
evaluating one is an EvaluationError, raised only where a rule reaches it.
Flat facts (`p(1,"a",b).`, nothing inside but the arguments) skip the
token grammar: a long run of them with one predicate and the same argument
kinds is read in bulk, a column at a time, with patterns compiled for that
shape (see _ProgramParser.flat_facts).  Every route reads the same facts
and raises the same errors.

Evaluation is bottom-up, semi-naive per component of the dependency graph;
a non-recursive component takes one pass.  Each iteration joins at least
one body atom against the tuples derived in the previous iteration.
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
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import repeat
from operator import itemgetter
from typing import Iterator

from .terms import (
    COMPARISONS,
    GROUND_TYPES,
    IDENT,
    MAX_NESTING,
    Const,
    Fact,
    Func,
    GroundTerm,
    Number,
    ParseError,
    Str,
    Tuple,
    gc_paused,
    integer_too_long,
    render,
    too_many_digits,
)

# The most values one interval may hold, and the most atoms the intervals of
# one head may give, checked before any is built; as many as a hook list may
# hold (hooks.MAX_LIST_ITEMS).
MAX_INTERVAL_VALUES = 10**6

__all__ = [
    "Program",
    "Rule",
    "PROGRAM_ERRORS",
    "UnsafeRuleError",
    "UnstratifiedError",
    "EvaluationError",
    "ResourceLimitError",
    "parse_program",
    "stratify",
    "evaluate",
]


class UnsafeRuleError(ValueError):
    def __init__(self, variable: str, rule_text: str):
        self.variable = variable = "_" if variable.startswith("_#") else variable
        self.rule_text = rule_text
        super().__init__(f"unsafe variable {variable} in rule: {rule_text}")


class UnstratifiedError(ValueError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(
            "program is not stratified; negation or aggregation on the cycle: "
            + " -> ".join(cycle + cycle[:1]))


# The errors parse_program raises for a text it rejects.
PROGRAM_ERRORS = (ParseError, UnsafeRuleError, UnstratifiedError)


class EvaluationError(RuntimeError):
    def __init__(self, message: str, rule_text: str, binding: dict):
        shown = ", ".join(f"{k}: {render(v)}" for k, v in sorted(binding.items())
                          if not k.startswith("_#"))
        super().__init__(f"{message} in rule: {rule_text} with {{{shown}}}")


class ResourceLimitError(EvaluationError):
    """Evaluation would exceed a run-time bound, such as MAX_INTERVAL_VALUES."""


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
    # A compound term with a variable inside: a function, or a tuple if unnamed.
    name: str | None
    args: tuple


@dataclass(frozen=True, slots=True)
class Interval:
    lo: object
    hi: object


@dataclass(frozen=True, slots=True)
class AtTerm:
    # Externally interpreted term: read like a function, never evaluated.
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
class AggregateLit:
    func: str  # min max count sum
    elements: tuple  # element terms, first one is the weight
    condition: tuple  # Atom | Comparison
    op: str
    guard: object  # term


@dataclass(slots=True)
class Rule:
    head: Atom
    body: tuple
    source: str
    atoms: tuple = ()  # the predicate of each positive atom in the plan
    derive: object = None  # the compiled plan (see _Compiler.rule)


@dataclass(slots=True)
class Program:
    rules: list[Rule]
    facts: list[Fact] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!="}

# One lexer for all ASP text.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<agg>\#(?:min|max|count|sum))
  | (?P<ident>""" + IDENT + r""")
  | (?P<var>_*[A-Z][A-Za-z0-9_']*)
  | (?P<anon>_)
  | (?P<op>:-|\.\.|<=|>=|!=|==|[-+*/(){},:;.<>=@|])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# Exactly the escapes terms.render writes; anything else is an error.
_ESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}
_ESCAPE_RE = re.compile(r"\\.")

# A flat fact: `ident(arg,...,arg).` with no whitespace or comment inside,
# after any whitespace and comments.  Each argument is an integer, a string
# without escapes or a constant: the text before, of and after its value, by
# the term it reads as.  A second '.' would lex as '..', so it ends the run.
# A comment runs to the end of its line, so that a failed match cannot split
# it at each '%' and backtrack exponentially.
_FLAT_KINDS = {Number: ("", "-?[0-9]+", ""), Str: ('"', r'[^"\\]*', '"'), Const: ("", IDENT, "")}
_FLAT_ARG = "|".join(map("".join, _FLAT_KINDS.values()))
_FLAT_ARG_RE = re.compile(_FLAT_ARG)
_FLAT_SPACE = r"(?:\s|%[^\n]*(?![^\n]))*"
_FLAT_FACT_RE = re.compile(
    rf"{_FLAT_SPACE}({IDENT})\(((?:{_FLAT_ARG})(?:,(?:{_FLAT_ARG}))*)\)\.(?!\.)")
# A run's first _RUN_START facts are read one at a time: compiling the
# patterns of a new shape costs about as much as reading that many, so a
# file of short runs of many shapes pays no more than before.  After them
# the run is read in bulk, at most _RUN_CHUNK facts at once; more grew peak
# RSS.
_RUN_START = 64
_RUN_CHUNK = 512


@lru_cache(maxsize=256)
def _run_patterns(kinds: tuple[type, ...]) -> tuple[re.Pattern, re.Pattern]:
    """The patterns of a run of flat facts whose arguments have kinds.

    The first, matched at the predicate of a fact of the run, matches that
    fact and 1 to _RUN_CHUNK contiguous facts after it with the same
    predicate; its group "last" is the predicate of the last.  The second
    matches one fact, with a group per argument value.  The predicate is a
    backreference, not part of the pattern, so one compiled pair serves
    every predicate of the same argument kinds.
    """
    def args(group: bool) -> str:
        return ",".join(f"{before}({arg}){after}" if group else before + arg + after
                        for before, arg, after in map(_FLAT_KINDS.__getitem__, kinds))

    end = r"\)\.(?!\.)"
    chunk = (rf"(?P<pred>{IDENT})\({args(False)}{end}"
             rf"(?:{_FLAT_SPACE}(?P<last>(?P=pred))\({args(False)}{end}){{1,{_RUN_CHUNK}}}")
    return re.compile(chunk), re.compile(rf"{_FLAT_SPACE}{IDENT}\({args(True)}{end}")


# Not frozen: a frozen dataclass assigns each field through
# object.__setattr__, which makes lexing measurably slower.
@dataclass(slots=True)
class _Token:
    kind: str  # a group name of _TOKEN_RE, or "end"
    text: str
    offset: int


def _line_col(text: str, offset: int) -> dict[str, int]:
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return {"line": line, "column": column}


class _ProgramParser:
    """The one reader of ASP text: rules, facts and ground terms.

    One token of lookahead, lexed lazily.  Tokens carry only their offset;
    line and column are computed when an error is built.  Equal number and
    constant literals in one parse share one term, found through memo by
    their text.
    """

    def __init__(self, text: str):
        self.text = text
        self._next = self._lex(0).__next__
        self.cur = self._next()
        self.depth = 0
        self.memo: dict[str, GroundTerm] = {}
        self.anon_count = 0
        # (message, offset) of the current rule's first constant that cannot
        # be evaluated; an error if it sits in the head of a body-less rule.
        self.defect: tuple[str, int] | None = None

    # tokens ----------------------------------------------------------------

    def _lex(self, pos: int) -> Iterator[_Token]:
        for m in _TOKEN_RE.finditer(self.text, pos):
            kind = m.lastgroup
            if kind == "ws" or kind == "comment":
                continue
            if kind == "bad":
                raise self.error_at(f"unexpected character {m.group()!r}", m.start())
            yield _Token(kind, m.group(), m.start())
        yield _Token("end", "", len(self.text))

    def advance(self) -> _Token:
        tok = self.cur
        self.cur = self._next()
        return tok

    def expect(self, text: str, expected: str) -> _Token:
        if self.cur.text != text:
            raise self.error(expected)
        return self.advance()

    def open_paren(self) -> None:
        """Consume the '(' of a nested term, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise self.error_at(f"terms nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        self.advance()

    def close_paren(self, expected: str) -> None:
        self.expect(")", expected)
        self.depth -= 1

    def parenthesized(self) -> tuple[list, bool]:
        """The items of '(' ... ')' and whether they form a tuple.

        (t) is just t; (), (t,) and (t,u) are tuples.
        """
        self.open_paren()
        items = []
        is_tuple = self.cur.text == ")"
        if not is_tuple:
            items.append(self.term())
            while self.cur.text == ",":
                is_tuple = True
                self.advance()
                if self.cur.text == ")":  # trailing comma: (1,)
                    break
                items.append(self.term())
        self.close_paren("')' closing the parenthesis")
        return items, is_tuple

    def error_at(self, message: str, offset: int | None = None) -> ParseError:
        """An error at the offset, by default that of the current token."""
        if offset is None:
            offset = self.cur.offset
        return ParseError(message, offset=offset, **_line_col(self.text, offset))

    def error(self, expected: str) -> ParseError:
        tok = self.cur
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        return self.error_at(f"expected {expected}, got {got}")

    # literals --------------------------------------------------------------

    def number(self, literal: str, offset: int) -> Number:
        """The Number of an integer literal whose digits start at offset."""
        if literal not in self.memo:
            try:
                self.memo[literal] = Number(int(literal))
            except ValueError:
                raise self.error_at(integer_too_long(), offset) from None
        return self.memo[literal]

    def const(self, name: str) -> Const:
        return self.memo.get(name) or self.memo.setdefault(name, Const(name))

    def string_value(self, tok: _Token) -> str:
        """The content of a string token, unescaped."""
        body = tok.text[1:-1]
        if "\\" not in body:
            return body

        def unescape(m: re.Match) -> str:
            esc = m.group()
            if esc not in _ESCAPES:
                raise self.error_at(f"unsupported string escape {esc!r}",
                                    tok.offset + 1 + m.start())
            return _ESCAPES[esc]

        return _ESCAPE_RE.sub(unescape, body)

    # statements ------------------------------------------------------------

    def statements(self, facts: list[Fact]) -> Iterator[tuple[int, Rule | None]]:
        """Read the whole text, appending each fact to facts.

        Yields the offset and the Rule of every other statement, None for a
        constraint.
        """
        while True:
            self.flat_facts(facts)
            if self.cur.kind == "end":
                return
            start = self.cur.offset
            item = self.rule()
            if type(item) is Fact:
                facts.append(item)
            else:
                yield start, item

    def flat_facts(self, facts: list[Fact]) -> None:
        """Append the run of flat facts that starts at the current token.

        Each fact takes one match of _FLAT_FACT_RE, until _RUN_START facts
        in a row share a predicate.  The last of them starts a bulk read
        (_read_run) of the facts after it that have its shape: its predicate
        and the kind of each argument.  Each bulk read that reads fewer than
        _RUN_START facts doubles the run the next one waits for, so that
        input whose shapes keep changing compiles few patterns.  Either way
        each fact gets the values the grammar would give it.  Lexing resumes
        after the run.
        """
        text = self.text
        match = _FLAT_FACT_RE.match
        m = match(text, self.cur.offset)
        if m is None:
            return
        pred, run, wait = None, 0, _RUN_START  # run: pred facts read one at a time in a row
        while m is not None:
            name, body = m.groups()
            args = self._flat_args(body.split(","), m.start(2))
            if args is None:  # a string argument holds a comma
                args = self._flat_args(_FLAT_ARG_RE.findall(body), m.start(2))
            facts.append(Fact(name, args))
            end = m.end()
            run = run + 1 if name == pred else 1
            if run == wait:
                count = len(facts)
                end = self._read_run(facts, tuple(map(type, args)), m.start(1), end)
                # A bulk read too short to pay for its patterns doubles the wait.
                wait = _RUN_START if len(facts) - count >= _RUN_START else 2 * wait
                run = 0
            pred = name
            m = match(text, end)
        self._next = self._lex(end).__next__
        self.cur = self._next()

    def _read_run(self, facts: list[Fact], kinds: tuple[type, ...], start: int,
                  pos: int) -> int:
        """Append the flat facts from pos on that have the predicate and the
        argument kinds of the fact from start to pos; the offset after them.

        Up to _RUN_CHUNK facts at a time: one match finds where they end, one
        findall over that span reads their argument columns, and each column
        is converted at once, a number or a constant through memo once per
        distinct literal.  Anything else, an integer too long for int() too,
        ends the read where that chunk starts.
        """
        chunk, row = _run_patterns(kinds)
        text, memo = self.text, self.memo
        while (m := chunk.match(text, start)) is not None:
            end = m.end()
            rows = row.findall(text, pos, end)
            columns = []
            for kind, column in zip(kinds, zip(*rows) if len(kinds) > 1 else (rows,)):
                if kind is Str:
                    columns.append(map(tuple.__new__, repeat(Str), zip(repeat(2), column)))
                    continue
                new = set(column).difference(memo)
                if new:
                    try:
                        memo.update(zip(new, map(Const, new) if kind is Const
                                        else map(Number, map(int, new))))
                    except ValueError:
                        return pos
                columns.append(map(memo.__getitem__, column))
            facts.extend(map(Fact, repeat(m["pred"]), zip(*columns)))
            start, pos = m.start("last"), end
            if len(rows) < _RUN_CHUNK:
                break
        return pos

    def _flat_args(self, parts: list[str], offset: int) -> tuple[GroundTerm, ...] | None:
        """The terms of a flat fact's arguments; None if parts split a string."""
        args: list[GroundTerm] = []
        memo = self.memo
        for part in parts:
            first = part[0]
            if first == '"':
                if len(part) == 1 or part[-1] != '"':
                    return None
                args.append(Str(part[1:-1]))
            elif first >= "_":  # '_' or a lowercase letter
                args.append(memo.get(part) or self.const(part))
            else:
                args.append(memo.get(part) or self.number(part, offset + (first == "-")))
            offset += len(part) + 1
        return tuple(args)

    def rule(self) -> Rule | Fact | None:
        """The next rule or fact; None for a constraint, which derives nothing."""
        start = self.cur.offset
        self.defect = None
        head = None if self.cur.text == ":-" else self.head_atom()
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
        if head is None:
            return None
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

    def separated(self, read) -> list:
        """The items that read() reads, separated by commas."""
        items = [read()]
        while self.cur.text == ",":
            self.advance()
            items.append(read())
        return items

    def body(self) -> tuple:
        return tuple(self.separated(self.body_literal))

    def body_literal(self):
        if self.cur.kind == "ident" and self.cur.text == "not":
            self.advance()
            return NegAtom(self.atom())
        if self.cur.kind == "agg":
            agg = self.aggregate()
            if self.cur.text not in COMPARISONS:
                raise self.error("a comparison after the aggregate")
            op = self.advance().text
            return AggregateLit(*agg, op, self.term())
        left = self.term()
        if self.cur.text in COMPARISONS:
            op = self.advance().text
            if self.cur.kind == "agg":
                return AggregateLit(*self.aggregate(), _FLIP[op], left)
            return Comparison(op, left, self.term())
        return self.as_atom(left)

    def as_atom(self, term) -> Atom:
        if isinstance(term, (FuncPat, Func)) and term.name is not None:
            return Atom(term.name, term.args)
        if isinstance(term, Const):
            return Atom(term.name, ())
        raise self.error_at("expected an atom or a comparison")

    def atom(self) -> Atom:
        return self.as_atom(self.term())

    def aggregate(self) -> tuple[str, tuple, tuple]:
        """The function, elements and condition of an aggregate."""
        func = self.advance().text[1:]
        self.expect("{", "'{' opening the aggregate")
        elements = tuple(self.term_list())
        condition: tuple = ()
        if self.cur.text == ":":
            self.advance()
            condition = tuple(self.separated(self.condition_literal))
        if self.cur.text == ";":
            raise self.error_at("multiple aggregate elements are not supported")
        self.expect("}", "'}' closing the aggregate")
        return func, elements, condition

    def condition_literal(self):
        if self.cur.kind == "ident" and self.cur.text == "not":
            raise self.error_at("negation in an aggregate condition is not supported")
        left = self.term()
        if self.cur.text in COMPARISONS:
            op = self.advance().text
            return Comparison(op, left, self.term())
        return self.as_atom(left)

    def term_list(self, *, allow_interval: bool = False) -> list:
        return self.separated(partial(self.term, allow_interval=allow_interval))

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

        1/0, a result with too many digits and a ground operand that is not
        a number stay unfolded, to be reported when the rule is evaluated,
        and become a defect at the operator.
        """
        if isinstance(left, Number) and isinstance(right, Number):
            try:
                return Number(_arith(op_tok.text, left.value, right.value))
            except ArithmeticError as exc:
                self.defect = self.defect or (str(exc), op_tok.offset)
        else:
            self.non_integer(op_tok, left, right)
        return Arith(op_tok.text, left, right)

    def non_integer(self, op_tok, *operands) -> None:
        """Record a defect at the operator if an operand is ground but not a number."""
        if any(isinstance(a, GROUND_TYPES) and not isinstance(a, Number) for a in operands):
            self.defect = self.defect or (f"arithmetic on non-integers ({op_tok.text})",
                                          op_tok.offset)

    def unary(self):
        signs = []
        while self.cur.text == "-":
            signs.append(self.advance())
        node = self.primary()
        for sign in reversed(signs):
            if isinstance(node, Number):
                node = Number(-node.value)
            else:
                self.non_integer(sign, node)
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
            self.advance()
            if self.cur.kind != "ident":
                raise self.error("a name after '@'")
            name = self.advance().text
            if self.cur.text != "(":
                raise self.error("'(' after the interpreted term name")
            self.open_paren()
            args = () if self.cur.text == ")" else tuple(self.term_list())
            self.close_paren("')'")
            return AtTerm(name, args)
        if t.kind == "ident":
            self.advance()
            if self.cur.text != "(":
                return self.const(t.text)
            self.open_paren()
            name, args = t.text, tuple(self.term_list())
            self.close_paren("')' closing the argument list")
        elif t.text == "(":
            items, is_tuple = self.parenthesized()
            if not is_tuple:
                return items[0]
            name, args = None, tuple(items)
        else:
            raise self.error("a term")
        if all(isinstance(a, GROUND_TYPES) for a in args):
            return Tuple(args) if name is None else Func(name, args)
        return FuncPat(name, args)


def _children(node) -> tuple:
    """The terms and literals directly inside a rule node; none in a Var or
    a ground term."""
    kind = type(node)
    if kind in (Atom, FuncPat, AtTerm):
        return node.args
    if kind in (Arith, Comparison):
        return (node.left, node.right)
    if kind is Interval:
        return (node.lo, node.hi)
    if kind is NegAtom:
        return (node.atom,)
    if kind is AggregateLit:
        return (*node.condition, *node.elements, node.guard)
    return ()


def _arith_depth(term) -> int:
    """The most Arith and AtTerm nodes on one path through term, counted
    without recursion."""
    deepest = 0
    stack = [(term, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (Arith, AtTerm)):
            depth += 1
            deepest = max(deepest, depth)
        stack += ((child, depth) for child in _children(node))
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
        stack += _children(item)
    return out


def _pattern_ready(term, known: set[str]) -> bool:
    """Whether matching term can compute what it must; adds its variables to known."""
    if isinstance(term, Var):
        known.add(term.name)
        return True
    if isinstance(term, FuncPat):
        return all(_pattern_ready(a, known) for a in term.args)
    if isinstance(term, (Arith, AtTerm)):
        return _vars_of(term) <= known
    return not isinstance(term, Interval)


def _aggregate_ready(lit: AggregateLit, bound: set[str]) -> bool:
    needed = _vars_of(lit) - _vars_of(*(c for c in lit.condition if isinstance(c, Atom)))
    if lit.op == "=" and isinstance(lit.guard, Var):
        needed.discard(lit.guard.name)
    return needed <= bound


def _key_positions(atom: Atom, bound: set[str]) -> tuple[int, ...]:
    """Argument positions whose values are known before the atom is matched.

    A position is a key if it is ground or a variable bound earlier.  Keys
    stop at the first argument holding arithmetic or an interpreted term,
    so a failing evaluation is met on the same candidate tuples as in a
    scan of the relation.
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
                compiler.literal(lit, bound)  # adds what lit binds to bound
                del remaining[idx]
                break
        else:
            unbound = sorted(_vars_of(*remaining) - bound)
            raise UnsafeRuleError(unbound[0] if unbound else "?", rule.source)
    loose = sorted(_vars_of(rule.head) - bound)
    if loose:
        raise UnsafeRuleError(loose[0], rule.source)
    rule.atoms = tuple(compiler.atoms)
    rule.derive = compiler.rule(rule.head, bound)


# ---------------------------------------------------------------------------
# Stratification


def stratify(program: "Program | list[Rule]") -> list[list[str]]:
    """The finest stratification: the components of the dependency graph, each
    sorted and after those it reads, which evaluate runs in order, semi-naive
    per component; a non-recursive component takes one pass.  Raise
    UnstratifiedError on a cycle through negation or aggregation."""
    rules = program.rules if isinstance(program, Program) else program
    preds: set[str] = set()
    pos_edges: set[tuple[str, str]] = set()
    neg_edges: set[tuple[str, str]] = set()
    for rule in rules:
        h = rule.head.pred
        preds.add(h)
        for lit in rule.body:
            if isinstance(lit, Atom):
                pos_edges.add((lit.pred, h))
            elif isinstance(lit, NegAtom):
                neg_edges.add((lit.atom.pred, h))
            elif isinstance(lit, AggregateLit):
                neg_edges.update((c.pred, h) for c in lit.condition if isinstance(c, Atom))
    edges = sorted(pos_edges | neg_edges)
    preds.update(src for src, _ in edges)

    succ: dict[str, list[str]] = {p: [] for p in sorted(preds)}
    reads: dict[str, list[str]] = {p: [] for p in succ}
    for src, dst in edges:
        succ[src].append(dst)
        reads[dst].append(src)
    # Over reads, Tarjan lists each component after those it reads; the rest
    # of the order is its depth-first search from the predicates by name.
    sccs = _tarjan(reads)
    scc_of = {p: i for i, scc in enumerate(sccs) for p in scc}
    for src, dst in sorted(neg_edges):
        if scc_of[src] == scc_of[dst]:
            # A real cycle through the offending edge, from the least member.
            start = min(sccs[scc_of[src]])
            raise UnstratifiedError(_path(succ, start, src) + _path(succ, dst, start)[:-1])
    return [sorted(scc) for scc in sccs]


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


@gc_paused()
def parse_program(text: str) -> Program:
    """Parse rule text into rules and ground facts; constraints are dropped.

    Every rule is planned (which checks safety) and the rules are
    stratified, so an unstratified text is rejected here.
    """
    facts: list[Fact] = []
    rules = [rule for _, rule in _ProgramParser(text).statements(facts) if rule is not None]
    for rule in rules:
        _plan_rule(rule)
    stratify(rules)
    return Program(rules=rules, facts=facts)


# ---------------------------------------------------------------------------
# Evaluation


@gc_paused()
def evaluate(program: Program, input_facts) -> set[Fact]:
    """The unique stratified model over the program's and the input facts.

    The rules must come from parse_program (they carry their plans); they
    are stratified here, so a set of rules joined from several programs
    raises UnstratifiedError if the join has a bad cycle.
    """
    strata = stratify(program.rules)
    stratum_of = {p: i for i, s in enumerate(strata) for p in s}
    relations = _Relations()
    model: set[Fact] = set()
    for fact in itertools.chain(program.facts, input_facts):
        model.add(fact)
        relations.add(fact.predicate, fact.args)
    given = {pred: len(rel) for pred, rel in relations.tuples.items()}

    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(stratum_of[rule.head.pred], []).append(rule)

    for idx in sorted(by_stratum):
        _eval_stratum(by_stratum[idx], relations)

    # Relations keep insertion order, so each one's derived tuples follow
    # the given facts, whose own Fact objects the model already holds.
    model.update(Fact(pred, args) for pred, rel in relations.tuples.items()
                 for args in itertools.islice(rel, given.get(pred, 0), None))
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
    # One component's rules.  Unless a body atom reads one of its heads, one
    # pass derives all and nothing enters the delta; otherwise only its heads
    # do, so an atom over an earlier component never reads the delta.
    heads = {rule.head.pred for rule in rules}
    delta = _Relations()
    out = delta if any(p in heads for rule in rules for p in rule.atoms) else None
    for rule in rules:
        rule.derive(relations, out)
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
        """error(message, b[, kind]): an EvaluationError (or the subclass
        kind) showing the bound variables."""
        shown = [(name, self.slot(name)) for name in bound]

        def error(message: str, b: list, kind=EvaluationError) -> EvaluationError:
            return kind(message, self.source, {name: b[s] for name, s in shown})
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
        if isinstance(pattern, FuncPat):
            subs = [self.matcher(a, bound) for a in pattern.args]
            kind, name = Tuple if pattern.name is None else Func, pattern.name
            return lambda g, b: (type(g) is kind and len(g.args) == len(subs)
                                 and getattr(g, "name", None) == name
                                 and all(sub(a, b) for sub, a in zip(subs, g.args)))
        if isinstance(pattern, GROUND_TYPES):
            return lambda g, b: g == pattern
        value = self.value(pattern, bound)  # arithmetic or an interpreted term
        return lambda g, b: value(b) == g

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
                      else self.comparison(c, inner) for c in lit.condition]
        elements = [self.value(t, inner) for t in lit.elements]
        error, func = self.error(bound), lit.func
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
        if isinstance(term, FuncPat):
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
        build = Tuple if term.name is None else partial(Func, term.name)
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
        """derive: one pass of the rule, adding each new head atom to relations
        and, unless out is None, to out."""
        pred, makers, width = head.pred, self.makers, len(self.slots)
        if any(isinstance(a, Interval) for a in head.args):
            instances = self.intervals(head.args, bound)
        else:
            values = self.values(head.args, bound)
            instances = lambda b: (values(b),)  # noqa: E731

        def derive(relations, out, delta=None, occurrence=None) -> None:
            add, note = relations.add, out.add if out is not None else None

            def emit(b: list) -> None:
                for args in instances(b):
                    if add(pred, args) and note:
                        note(pred, args)
            step = emit
            for make in reversed(makers):
                step = make(step, relations, delta, occurrence)
            step([None] * width)
        return derive

    def intervals(self, args: tuple, bound: set[str]):
        """instances(b): the head's argument tuples, one per value of each
        interval.  Each interval, then their product, is bounded before any
        value is built."""
        error = self.error(bound)

        def span(lo, hi):
            def numbers(b: list) -> range:
                first, last = lo(b), hi(b)
                if type(first) is not Number or type(last) is not Number:
                    raise error("interval bounds must be integers", b)
                if last.value - first.value >= MAX_INTERVAL_VALUES:
                    raise error(f"interval holds more than {MAX_INTERVAL_VALUES} values", b,
                                ResourceLimitError)
                return range(first.value, last.value + 1)
            return numbers
        columns = [span(self.value(a.lo, bound), self.value(a.hi, bound))
                   if isinstance(a, Interval) else self.values((a,), bound) for a in args]

        def instances(b: list):
            spans = [column(b) for column in columns]
            if math.prod(map(len, spans)) > MAX_INTERVAL_VALUES:
                raise error(f"head intervals give more than {MAX_INTERVAL_VALUES} atoms", b,
                            ResourceLimitError)
            return itertools.product(*[map(Number, s) if type(s) is range else s for s in spans])
        return instances


def _term_depth(term: GroundTerm) -> int:
    """The most Func and Tuple nodes on one path through term."""
    deepest = 0
    stack = [(term, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += ((a, depth + 1) for a in node.args if isinstance(a, (Func, Tuple)))
    return deepest
