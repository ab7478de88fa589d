"""Stratified rule evaluation for auxiliary validation programs.

The engine covers the fragment those programs actually need: normal rules,
negation and #min/#max/#count/#sum under stratification, comparisons,
integer arithmetic, and `l..u` intervals in facts and rule heads.  Heads
must be single atoms; disjunction, choice constructs and optimization are
rejected so that every program has one computable model.

The parser here is the one reader of ASP text: parse_program, and through
it terms.parse_facts and terms.parse_term, share its lexer and grammar, and
the grounder bridge (emit) reads the rule heads of its output with it.
A body-less rule whose head is ground after constant folding is a fact,
never a Rule.  The parser adds each fact to a sink: parse_program's gives
Program.facts, relation lists ((name, arity) -> argument tuples, in source
order, repeats kept) with no Fact built, and parse_facts' a list of Facts.
A constraint (`:- body.`) derives no atom, so it is read for its syntax and
dropped.  An externally interpreted term (`@f(t)`) is read anywhere a term
is, and evaluating one is an EvaluationError, raised only where a rule
reaches it.
Flat facts (`p(1,"a",b).`, nothing inside but the arguments) skip the
token grammar: a long run of them with one predicate and the same argument
kinds is read in bulk, a column at a time, with patterns compiled for that
shape (see _ProgramParser.flat_facts).  Every route reads the same facts
and raises the same errors.

Evaluation is bottom-up, semi-naive per component of the dependency graph;
a non-recursive component takes one pass.  A predicate is a name and an
arity, in the graph and in every relation, delta, index and model: p/1 and
p/2 are two relations.  Each iteration joins at least one body atom against
the tuples derived in the previous iteration.
parse_program orders each rule's body into a plan; the first time the rule
is evaluated, the plan becomes one generated Python function, a flat nest of
for loops with the variables as locals (see _Generator), and nothing
interprets the rule later.  Body and aggregate-condition atoms read their
relation through hash indexes keyed by the argument positions known when the
atom is reached (ground, or a variable bound earlier in the plan), so a join
touches only the tuples that agree on those positions; an atom with none
reads the relation's own tuples.  Indexes are built on first use and kept
current as relations grow.  Only two places write a tuple: evaluate's loop
over the given facts, and each rule's generated head block, which adds a new
atom to the relations and to its round's delta.  No text of the rule is in
the generated source: predicates, terms and messages reach the function as
arguments, so rules of one shape share one source text, compiled once.

evaluate returns the fixpoint's relations themselves, as a Model: a set of
Facts that keeps each predicate's argument tuples and builds a Fact only
when it is iterated, so a caller that reads the relations (the validation
engine) never builds one.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Set
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import repeat
from operator import itemgetter
from types import CodeType, FunctionType
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
    "Model",
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
    plan: tuple = ()  # the body in evaluation order (see _plan_rule)
    atoms: tuple = ()  # the (name, arity) of each positive atom in the plan
    derive: object = None  # the plan as a function, made on first evaluation (see _Generator)


@dataclass(slots=True)
class Program:
    """A program's rules, and its facts as relation lists: (name, arity) ->
    argument tuples, each relation at its first fact, each list in source
    order with repeats kept."""

    rules: list[Rule]
    facts: dict[tuple[str, int], list[tuple]] = field(default_factory=dict)


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


def _lex(text: str, pos: int) -> Iterator[_Token]:
    """The tokens of text from pos on, then an "end" token.

    A function of the text alone: a parser holds its lexer, and a lexer that
    held its parser would make a reference cycle, which only the cyclic
    collector frees.
    """
    for m in _TOKEN_RE.finditer(text, pos):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            offset = m.start()
            raise ParseError(f"unexpected character {m.group()!r}", offset=offset,
                             **_line_col(text, offset))
        yield _Token(kind, m.group(), m.start())
    yield _Token("end", "", len(text))


class _FactList:
    """A sink for the parser's facts (see _ProgramParser.statements): a Fact
    per fact, in source order, repeats kept."""

    __slots__ = ("facts",)

    def __init__(self) -> None:
        self.facts: list[Fact] = []

    def add(self, name: str, args: tuple) -> None:
        self.facts.append(Fact(name, args))

    def add_run(self, name: str, arity: int, rows: Iterator[tuple]) -> None:
        self.facts.extend(map(Fact, repeat(name), rows))


class _RelationLists:
    """A sink for the parser's facts as relation lists, the Program.facts of
    parse_program.  No Fact is built."""

    __slots__ = ("relations",)

    def __init__(self) -> None:
        self.relations: dict[tuple[str, int], list[tuple]] = {}

    def add(self, name: str, args: tuple) -> None:
        self.add_run(name, len(args), (args,))

    def add_run(self, name: str, arity: int, rows: Iterator[tuple]) -> None:
        rows_of = self.relations.get((name, arity))
        if rows_of is None:
            rows_of = self.relations[name, arity] = []
        rows_of.extend(rows)


_Sink = _FactList | _RelationLists


class _ProgramParser:
    """The one reader of ASP text: rules, facts and ground terms.

    One token of lookahead, lexed lazily.  Tokens carry only their offset;
    line and column are computed when an error is built.  Equal number and
    constant literals in one parse share one term, found through memo by
    their text.
    """

    def __init__(self, text: str):
        self.text = text
        self._next = _lex(text, 0).__next__
        self.cur = self._next()
        self.depth = 0
        self.memo: dict[str, GroundTerm] = {}
        self.anon_count = 0
        # (message, offset) of the current rule's first constant that cannot
        # be evaluated; an error if it sits in the head of a body-less rule.
        self.defect: tuple[str, int] | None = None

    # tokens ----------------------------------------------------------------

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

    def statements(self, sink: _Sink) -> Iterator[tuple[int, Rule | None]]:
        """Read the whole text, adding each fact to sink (see _FactList).

        Yields the offset and the Rule of every other statement, None for a
        constraint.
        """
        while True:
            self.flat_facts(sink)
            if self.cur.kind == "end":
                return
            start = self.cur.offset
            item = self.rule()
            if type(item) is Atom:
                sink.add(item.pred, item.args)
            else:
                yield start, item

    def flat_facts(self, sink: _Sink) -> None:
        """Add to sink the run of flat facts that starts at the current token.

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
            sink.add(name, args)
            end = m.end()
            run = run + 1 if name == pred else 1
            if run == wait:
                end, read = self._read_run(sink, tuple(map(type, args)), m.start(1), end)
                # A bulk read too short to pay for its patterns doubles the wait.
                wait = _RUN_START if read >= _RUN_START else 2 * wait
                run = 0
            pred = name
            m = match(text, end)
        self._next = _lex(text, end).__next__
        self.cur = self._next()

    def _read_run(self, sink: _Sink, kinds: tuple[type, ...], start: int,
                  pos: int) -> tuple[int, int]:
        """Add to sink the flat facts from pos on that have the predicate and
        the argument kinds of the fact from start to pos; the offset after
        them and how many they are.

        Up to _RUN_CHUNK facts at a time: one match finds where they end, one
        findall over that span reads their argument columns, and each column
        is converted at once, a number or a constant through memo once per
        distinct literal.  Anything else, an integer too long for int() too,
        ends the read where that chunk starts.
        """
        chunk, row = _run_patterns(kinds)
        text, memo = self.text, self.memo
        read = 0
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
                        return pos, read
                columns.append(map(memo.__getitem__, column))
            sink.add_run(m["pred"], len(kinds), zip(*columns))
            read += len(rows)
            start, pos = m.start("last"), end
            if len(rows) < _RUN_CHUNK:
                break
        return pos, read

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

    def rule(self) -> Rule | Atom | None:
        """The next rule, or the head of a fact; None for a constraint, which
        derives nothing."""
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
            return head
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
    """Order the body so each literal is evaluable when reached; check safety.

    The plan is turned into code when the rule is first evaluated.
    """
    remaining = list(rule.body)
    plan = []
    bound: set[str] = set()
    while remaining:
        for idx, lit in enumerate(remaining):
            binds: set[str] = set()
            if isinstance(lit, Atom):
                known = set(bound)
                ready = all(_pattern_ready(a, known) for a in lit.args)
                binds = known
            elif isinstance(lit, NegAtom):
                ready = _vars_of(lit) <= bound
            elif isinstance(lit, Comparison):
                lv, rv = _vars_of(lit.left), _vars_of(lit.right)
                ready = (lv <= bound and rv <= bound) or lit.op == "=" and (
                    isinstance(lit.left, Var) and rv <= bound
                    or isinstance(lit.right, Var) and lv <= bound)
                binds = lv | rv
            else:
                ready = _aggregate_ready(lit, bound)
                if lit.op == "=" and isinstance(lit.guard, Var):
                    binds = {lit.guard.name}
            if ready:
                bound |= binds
                plan.append(remaining.pop(idx))
                break
        else:
            unbound = sorted(_vars_of(*remaining) - bound)
            raise UnsafeRuleError(unbound[0] if unbound else "?", rule.source)
    loose = sorted(_vars_of(rule.head) - bound)
    if loose:
        raise UnsafeRuleError(loose[0], rule.source)
    rule.plan = tuple(plan)
    rule.atoms = tuple(_key(lit) for lit in plan if isinstance(lit, Atom))
    rule.derive = None


# ---------------------------------------------------------------------------
# Stratification


def stratify(program: "Program | list[Rule]") -> list[list[str]]:
    """The finest stratification: the components of the dependency graph, each
    after those it reads, which evaluate runs in order, semi-naive per
    component; a non-recursive component takes one pass.  A predicate is a
    name and an arity, so p/1 and p/2 may sit in different components; each
    component is given as the sorted names of its predicates.  Raise
    UnstratifiedError on a cycle through negation or aggregation; the cycle
    names its predicates as name/arity if two of them share a name."""
    rules = program.rules if isinstance(program, Program) else program
    return [sorted({name for name, _ in scc}) for scc in _components(rules)]


def _key(atom: Atom) -> tuple[str, int]:
    return atom.pred, len(atom.args)


def _components(rules: list[Rule]) -> list[list[tuple[str, int]]]:
    """stratify's components, of predicates as (name, arity), each sorted."""
    preds: set[tuple[str, int]] = set()
    pos_edges: set[tuple] = set()
    neg_edges: set[tuple] = set()
    for rule in rules:
        h = _key(rule.head)
        preds.add(h)
        for lit in rule.body:
            if isinstance(lit, Atom):
                pos_edges.add((_key(lit), h))
            elif isinstance(lit, NegAtom):
                neg_edges.add((_key(lit.atom), h))
            elif isinstance(lit, AggregateLit):
                neg_edges.update((_key(c), h) for c in lit.condition if isinstance(c, Atom))
    edges = sorted(pos_edges | neg_edges)
    preds.update(src for src, _ in edges)

    succ: dict[tuple, list[tuple]] = {p: [] for p in sorted(preds)}
    reads: dict[tuple, list[tuple]] = {p: [] for p in succ}
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
            cycle = _path(succ, start, src) + _path(succ, dst, start)[:-1]
            if len({name for name, _ in cycle}) < len(set(cycle)):  # p/1 and p/2 on it
                raise UnstratifiedError([f"{name}/{arity}" for name, arity in cycle])
            raise UnstratifiedError([name for name, _ in cycle])
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

    The facts come as relation lists (see Program); no Fact is built.
    Every rule is planned (which checks safety) and the rules are
    stratified, so an unstratified text is rejected here.
    """
    sink = _RelationLists()
    rules = [rule for _, rule in _ProgramParser(text).statements(sink) if rule is not None]
    for rule in rules:
        _plan_rule(rule)
    _components(rules)
    return Program(rules=rules, facts=sink.relations)


# ---------------------------------------------------------------------------
# Evaluation


@gc_paused()
def evaluate(program: Program, input_facts) -> Model:
    """The unique stratified model over the program's and the input facts.

    The model is a Model: a set of Facts kept as relations, each predicate's
    atoms in arrival order (the program's facts, read from its relation
    lists, and then the input Facts, each at its first occurrence, then the
    derived atoms in derivation order).  The program is not changed.  The
    rules must come from parse_program (they carry their plans); they are
    stratified here, so a set of rules joined from several programs raises
    UnstratifiedError if the join has a bad cycle.
    """
    stratum_of = {p: i for i, s in enumerate(_components(program.rules)) for p in s}
    relations = _Relations()
    tuples = relations.tuples  # no index exists yet to keep current
    for key, rows in program.facts.items():
        tuples[key] = dict.fromkeys(rows)
    for fact in input_facts:
        key = (fact.predicate, len(fact.args))
        rel = tuples.get(key)
        if rel is None:
            rel = tuples[key] = {}
        rel[fact.args] = None  # an equal key already there stays

    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(stratum_of[_key(rule.head)], []).append(rule)

    for idx in sorted(by_stratum):
        _eval_stratum(by_stratum[idx], relations)
    return Model(tuples)


class Model(Set):
    """evaluate's result: a set of Facts, held as the fixpoint's relations.

    relations maps each predicate, a (name, arity) pair, in the order it
    first arrived, to its argument tuples as the keys of a dict, in arrival
    order.  in and len read them as they are; iteration goes relation by
    relation and builds a Fact per atom as it goes.  No Fact and no index is
    kept.
    """

    __slots__ = ("relations", "_len", "__weakref__")

    def __init__(self, relations: dict[tuple[str, int], dict[tuple, None]]):
        self.relations = relations
        self._len = sum(map(len, relations.values()))

    @classmethod
    def _from_iterable(cls, atoms) -> set[Fact]:  # what &, |, - and ^ return
        return set(atoms)

    def __contains__(self, atom) -> bool:
        return isinstance(atom, Fact) and \
            atom.args in self.relations.get((atom.predicate, len(atom.args)), ())

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Fact]:
        for (pred, _), tuples in self.relations.items():
            for args in tuples:
                yield Fact(pred, args)


class _Relations:
    """Tuples by predicate, a (name, arity) pair, in insertion order, with
    hash indexes built on first use.

    An index holds the tuples of one predicate in buckets, in insertion
    order, keyed by their values at some positions as itemgetter(*positions)
    gives them.  It is only a store: its writers are evaluate's loop over
    the given facts and the generated head blocks, which keep every built
    index current through _grow.
    """

    __slots__ = ("tuples", "_indexes", "_index_lists")

    def __init__(self) -> None:
        self.tuples: dict[tuple[str, int], dict[tuple, None]] = {}  # pred -> tuples as keys
        # (pred, positions) -> key -> bucket
        self._indexes: dict[tuple, dict[object, list[tuple]]] = {}
        # pred -> (key function, index) of each of its indexes
        self._index_lists: dict[tuple[str, int], list[tuple]] = {}

    def index(self, pred: tuple[str, int], positions: tuple) -> dict[object, list[tuple]]:
        """The buckets of pred by their values at positions (one or more)."""
        index = self._indexes.get((pred, positions))
        if index is None:
            index = self._indexes[pred, positions] = {}
            key_of = itemgetter(*positions)
            self._index_lists.setdefault(pred, []).append((key_of, index))
            for args in self.tuples.get(pred, ()):
                index.setdefault(key_of(args), []).append(args)
        return index

    def scan(self, pred: tuple[str, int]):
        """The tuples of pred: what an atom without keys reads."""
        return self.tuples.get(pred, ())


def _grow(indexes: list[tuple], args: tuple) -> None:
    """Add args to each of its relation's indexes (key function, index)."""
    for key_of, index in indexes:
        index.setdefault(key_of(args), []).append(args)


def _eval_stratum(rules: list[Rule], relations: _Relations) -> None:
    # One component's rules.  Unless a body atom reads one of its heads, one
    # pass derives all and nothing enters the delta; otherwise only its heads
    # do, so an atom over an earlier component never reads the delta.
    heads = {_key(rule.head) for rule in rules}
    for rule in rules:
        if rule.derive is None:
            rule.derive = _Generator(rule).function()
    delta = _Relations()
    out = delta if any(p in heads for rule in rules for p in rule.atoms) else None
    for rule in rules:
        rule.derive(relations, out, None, -1)
    while delta.tuples:
        frozen, delta = delta, _Relations()
        for rule in rules:
            for occurrence, pred in enumerate(rule.atoms):
                if pred in frozen.tuples:
                    rule.derive(relations, delta, frozen, occurrence)
    # delta empty: fixpoint reached


# ---------------------------------------------------------------------------
# Code generation for planned rules
#
# Each rule becomes the source of one function, derive(relations, out, delta,
# now, k0, k1, ...): one pass of the rule that adds each new head atom to
# relations and, unless out is None, to out; the body atom at occurrence now
# reads delta instead of relations.  The body is a flat nest of for loops in
# plan order, one per atom, over the buckets of a hash index (or, for an atom
# without key positions, over its relation's tuples); a variable is a local
# v<slot>, numbered as first met.  A literal that does not hold skips to the
# next candidate of the innermost loop.  Every predicate, ground term, message
# and name of the rule reaches the code as a default argument k<i>, so the
# source holds only names made here and integers: rules of one shape share
# one source text, and one code object (_code).
#
# CPython refuses more than 20 nested blocks in one function, so a nest
# deeper than _MAX_LOOPS loops goes on in a nested function f<i> that takes
# the bound variables.  An aggregate's condition is always such a function,
# collecting the element tuples into the dict it is given.

_MAX_LOOPS = 16

# Python's spelling of each comparison operator.
_PY_OPS = {"=": "==", "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Limit(str):
    """The message of a ResourceLimitError, as a helper returns it."""


def _fail(message: str, source: str, names: tuple, values: tuple) -> EvaluationError:
    kind = ResourceLimitError if type(message) is _Limit else EvaluationError
    return kind(message, source, dict(zip(names, values)))


# The helpers below return a message instead of a value that has none, and
# the generated code raises it with the binding of the place it was called.

def _arith_term(op: str, left, right):
    """The Number left op right."""
    if type(left) is not Number or type(right) is not Number:
        return f"arithmetic on non-integers ({op})"
    try:
        return Number(_arith(op, left[1], right[1]))
    except ArithmeticError as exc:
        return str(exc)


def _compound(name: str | None, args: tuple):
    """A derived function (a tuple if name is None), nested at most MAX_NESTING deep."""
    for arg in args:
        # A tuple or a function ranks 3 or 4 (see terms._Term).
        if arg[0] > 2 and _term_depth(arg) >= MAX_NESTING:
            return f"derived term nested more than {MAX_NESTING} levels deep"
    return Tuple(args) if name is None else Func(name, args)


def _sum(found: dict):
    """The Number that #sum gives over the element tuples found."""
    total = 0
    for elements in found:
        weight = elements[0]
        if type(weight) is not Number:
            return f"#sum over a non-integer {render(weight)}"
        total += weight[1]
    if too_many_digits(total):
        return integer_too_long("result")
    return Number(total)


def _span(lo, hi):
    """The values of the interval lo..hi, bounded before any is built."""
    if type(lo) is not Number or type(hi) is not Number:
        return "interval bounds must be integers"
    if hi[1] - lo[1] >= MAX_INTERVAL_VALUES:
        return _Limit(f"interval holds more than {MAX_INTERVAL_VALUES} values")
    return range(lo[1], hi[1] + 1)


def _instances(columns: tuple):
    """A head's argument tuples, one per value of each interval column."""
    if math.prod(map(len, columns)) > MAX_INTERVAL_VALUES:
        return _Limit(f"head intervals give more than {MAX_INTERVAL_VALUES} atoms")
    return itertools.product(*[map(Number, c) if type(c) is range else c for c in columns])


def _term_depth(term: GroundTerm) -> int:
    """The most Func and Tuple nodes on one path through term."""
    deepest = 0
    stack = [(term, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += ((a, depth + 1) for a in node.args if isinstance(a, (Func, Tuple)))
    return deepest


@lru_cache(maxsize=512)
def _code(source: str) -> CodeType:
    """The code object of the one function that source defines."""
    module = compile(source, "<rule>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _tuple(items: list[str]) -> str:
    """A tuple display of the expressions items."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _Function:
    """The lines of one generated function, and where its nest stands."""

    __slots__ = ("header", "lines", "indent", "loops", "found")

    def __init__(self, indent: int, found: str | None = None):
        self.header = ""  # a nested function's def line
        self.lines: list[str] = []
        self.indent = indent
        self.loops = 0  # loops opened; none yet means the nest's only binding
        self.found = found  # the dict an aggregate condition collects into


class _Generator:
    """Writes one planned rule as a function (see above)."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.consts: list = [rule.source, _key(rule.head)]  # k0, k1
        self.slots: dict[str, int] = {}
        self.names = itertools.count()  # numbers the other names made here
        self.hoisted: list[str] = []  # derive's lines before its nest
        self.nested: list[_Function] = []
        self.main = self.fn = _Function(1)  # derive's own nest
        self.occurrence = 0  # of the next body atom

    def function(self):
        """The rule's derive function, its code shared by rules of its shape."""
        source, constants = self.source()
        return FunctionType(_code(source), globals(), "derive", constants)

    def source(self) -> tuple[str, tuple]:
        """The text of derive and the constants its k parameters default to."""
        bound: set[str] = set()
        for lit in self.rule.plan:
            self.literal(lit, bound)
        self.head(self.rule.head, bound)
        params = ", ".join(f"k{i}" for i in range(len(self.consts)))
        lines = [f"def derive(relations, out, delta, now, {params}):",
                 *("    " + line for line in self.hoisted),
                 # Read after the lines above build indexes, so that it holds
                 # a new index of the head's relation too.
                 "    grow = relations._index_lists.get(k1, ())",
                 "    rel = relations.tuples.get(k1) or {}",
                 "    note = None if out is None else out.tuples.get(k1) or {}"]
        for fn in self.nested:
            lines += ["    " + fn.header, *fn.lines]
        lines += self.main.lines
        return "\n".join(lines) + "\n", tuple(self.consts)

    # -- names and lines ---------------------------------------------------

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def var(self, name: str) -> str:
        return f"v{self.slots.setdefault(name, len(self.slots))}"

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self.names)}"

    def line(self, text: str) -> None:
        self.fn.lines.append("    " * self.fn.indent + text)

    def skip_if(self, condition: str) -> None:
        self.line(f"if {condition}: {'continue' if self.fn.loops else 'return'}")

    def fail_if(self, condition: str, message: str, bound: set[str]) -> None:
        """Raise message when condition holds, showing the bound variables."""
        names = sorted(bound, key=self.slots.__getitem__)
        values = _tuple([self.var(name) for name in names])
        self.line(f"if {condition}: raise _fail({message}, k0, {self.const(tuple(names))}, "
                  f"{values})")

    def open_loop(self, header: str, bound: set[str]) -> None:
        if self.fn.loops == _MAX_LOOPS:
            self.call(_Function(2, self.fn.found), bound)
        self.line(header)
        self.fn.indent += 1
        self.fn.loops += 1

    def call(self, fn: _Function, bound: set[str]) -> None:
        """Go on in fn, a nested function called here with its found dict, if
        any, and the bound variables."""
        names = [self.var(name) for name in sorted(bound, key=self.slots.__getitem__)]
        name, params = self.fresh("f"), ", ".join([fn.found, *names] if fn.found else names)
        fn.header = f"def {name}({params}):"
        self.line(f"{name}({params})")
        self.nested.append(fn)
        self.fn = fn

    # -- literals ----------------------------------------------------------

    def literal(self, lit, bound: set[str]) -> None:
        if type(lit) is Atom:
            self.atom(lit, bound, self.occurrence)
            self.occurrence += 1
        elif type(lit) is NegAtom:
            pred, values = _key(lit.atom), [self.value(a, bound) for a in lit.atom.args]
            tuples = self.fresh("n")
            self.hoisted.append(f"{tuples} = relations.tuples.get({self.const(pred)}, ())")
            self.skip_if(f"{_tuple(values)} in {tuples}")
        elif type(lit) is Comparison:
            self.comparison(lit, bound)
        else:
            self.aggregate(lit, bound)

    def atom(self, atom: Atom, bound: set[str], occurrence: int | None) -> None:
        """A loop over the candidates by key positions; binds and checks in position order.

        A body atom reads delta at occurrence now; an aggregate condition
        (occurrence None) always reads relations.  Only the head's relation
        grows during a pass, so a body atom of that predicate loops over a
        copy of what it reads, as it stands when the loop starts.
        """
        pred = self.const(_key(atom))
        source = "relations" if occurrence is None else \
            f"(delta if now == {occurrence} else relations)"
        grows = occurrence is not None and _key(atom) == _key(self.rule.head)
        positions = _key_positions(atom, bound)
        row = self.fresh("t")
        if positions:
            get = self.fresh("g")
            self.hoisted.append(f"{get} = {source}.index({pred}, {positions!r}).get")
            key = [self.value(atom.args[p], bound) for p in positions]
            bucket = f"{get}({key[0] if len(key) == 1 else _tuple(key)}, ())"
            self.open_loop(f"for {row} in {bucket}{'[:]' if grows else ''}:", bound)
        else:
            tuples = self.fresh("r")
            self.hoisted.append(f"{tuples} = {source}.scan({pred})")
            self.open_loop(f"for {row} in {f'tuple({tuples})' if grows else tuples}:", bound)
        for pos, arg in enumerate(atom.args):
            if pos not in positions:
                self.match(f"{row}[{pos}]", arg, bound)

    def match(self, ground: str, pattern, bound: set[str]) -> None:
        """Skip unless the ground term matches pattern, binding its new variables."""
        if isinstance(pattern, Var):
            if pattern.name in bound:
                self.skip_if(f"{ground} != {self.var(pattern.name)}")
            else:
                bound.add(pattern.name)
                self.line(f"{self.var(pattern.name)} = {ground}")
        elif isinstance(pattern, FuncPat):
            term, args = self.fresh("t"), self.fresh("t")
            self.line(f"{term} = {ground}")
            n = len(pattern.args)
            if pattern.name is None:
                self.skip_if(f"type({term}) is not Tuple or {term}[1] != {n}")
                self.line(f"{args} = {term}[2]")
            else:
                self.skip_if(f"type({term}) is not Func or {term}[1] != {n}"
                             f" or {term}[2] != {self.const(pattern.name)}")
                self.line(f"{args} = {term}[3]")
            for i, sub in enumerate(pattern.args):
                self.match(f"{args}[{i}]", sub, bound)
        elif isinstance(pattern, GROUND_TYPES):
            self.skip_if(f"{ground} != {self.const(pattern)}")
        else:  # arithmetic or an interpreted term
            self.skip_if(f"{ground} != {self.value(pattern, bound)}")

    def comparison(self, lit: Comparison, bound: set[str]) -> None:
        """Binds an unbound variable side of '=', else compares in term order."""
        if lit.op == "=":
            for var, other in ((lit.left, lit.right), (lit.right, lit.left)):
                if isinstance(var, Var) and var.name not in bound:
                    value = self.value(other, bound)
                    bound.add(var.name)
                    self.line(f"{self.var(var.name)} = {value}")
                    return
        left, right = self.value(lit.left, bound), self.value(lit.right, bound)
        self.skip_if(f"not {left} {_PY_OPS[lit.op]} {right}")

    def aggregate(self, lit: AggregateLit, bound: set[str]) -> None:
        """Over the distinct element tuples, in the order found; binds or compares the guard."""
        found, outer = self.fresh("a"), self.fn
        self.line(f"{found} = {{}}")
        self.call(_Function(2, found), bound)
        inner = set(bound)  # condition variables stay local to the aggregate
        for condition in lit.condition:
            if isinstance(condition, Atom):
                self.atom(condition, inner, None)
            else:
                self.comparison(condition, inner)
        elements = [self.value(t, inner) for t in lit.elements]
        self.line(f"{found}[{_tuple(elements)}] = None")
        self.fn = outer
        value = self.fresh("t")
        if lit.func == "count":
            self.line(f"{value} = Number(len({found}))")
        elif lit.func == "sum":
            self.line(f"{value} = _sum({found})")
            self.fail_if(f"type({value}) is str", value, bound)
        else:  # #min and #max bind nothing over an empty set
            self.skip_if(f"not {found}")
            self.line(f"{value} = {lit.func}({found})[0]")
        guard = lit.guard
        if lit.op == "=" and isinstance(guard, Var) and guard.name not in bound:
            bound.add(guard.name)
            self.line(f"{self.var(guard.name)} = {value}")
        else:
            self.skip_if(f"not {value} {_PY_OPS[lit.op]} {self.value(guard, bound)}")

    # -- terms -------------------------------------------------------------

    def value(self, term, bound: set[str]) -> str:
        """An expression for the ground value of term; raises if it has none."""
        if isinstance(term, Var) and term.name in bound:
            return self.var(term.name)
        if isinstance(term, GROUND_TYPES):
            return self.const(term)
        if isinstance(term, (Arith, FuncPat)):
            if isinstance(term, Arith):
                operands = [self.value(term.left, bound), self.value(term.right, bound)]
                call = f"_arith_term({self.const(term.op)}, {', '.join(operands)})"
            else:
                args = [self.value(a, bound) for a in term.args]
                call = f"_compound({self.const(term.name)}, {_tuple(args)})"
            value = self.fresh("t")
            self.line(f"{value} = {call}")
            self.fail_if(f"type({value}) is str", value, bound)
            return value
        message = (f"unbound variable {term.name}" if isinstance(term, Var)
                   else f"externally interpreted term @{term.name} cannot be evaluated"
                   if isinstance(term, AtTerm) else "interval outside a fact or rule head")
        self.fail_if("True", self.const(message), bound)
        return "None"

    # -- the head ----------------------------------------------------------

    def head(self, head: Atom, bound: set[str]) -> None:
        """Adds the head's atoms; each interval, then their product, is bounded
        before any value is built."""
        if any(isinstance(a, Interval) for a in head.args):
            columns = []
            for arg in head.args:
                if isinstance(arg, Interval):
                    lo, hi = self.value(arg.lo, bound), self.value(arg.hi, bound)
                    column = self.fresh("t")
                    self.line(f"{column} = _span({lo}, {hi})")
                    self.fail_if(f"type({column}) is not range", column, bound)
                    columns.append(column)
                else:
                    columns.append(_tuple([self.value(arg, bound)]))
            instances, args = self.fresh("t"), self.fresh("t")
            self.line(f"{instances} = _instances({_tuple(columns)})")
            self.fail_if(f"type({instances}) is _Limit", instances, bound)
            self.open_loop(f"for {args} in {instances}:", bound)
        else:
            values = [self.value(a, bound) for a in head.args]
            args = self.fresh("t")
            self.line(f"{args} = {_tuple(values)}")
        # A relation is registered with its first tuple, so that relations
        # keep the order of their first derived atoms.
        self.line(f"if {args} not in rel:")
        self.line(f"    if not rel: relations.tuples[k1] = rel")
        self.line(f"    rel[{args}] = None")
        self.line(f"    if grow: _grow(grow, {args})")
        self.line("    if note is not None:")
        self.line("        if not note: out.tuples[k1] = note")
        self.line(f"        note[{args}] = None")
