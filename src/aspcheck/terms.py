"""Ground ASP terms and facts: parsing, rendering, ordering.

The term grammar covers exactly what shows up in ground data: integers
(unbounded at this layer; 32-bit range enforcement is a validation facet,
not a parsing concern), double-quoted strings, alphanumeric constants,
functions with at least one argument, and tuples.  Variables, intervals
and rule syntax are deliberately absent; those belong to the rule engine,
which reads its text through the same lexer, string decoder and token
cursor defined here.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Number",
    "Str",
    "Const",
    "Func",
    "Tuple",
    "GroundTerm",
    "Fact",
    "ParseError",
    "parse_term",
    "parse_facts",
    "render",
    "compare",
    "sort_key",
    "COMPARISONS",
]

# How deeply terms may nest parentheses; deeper input is a ParseError
# rather than a RecursionError in the recursive-descent parsers.
MAX_NESTING = 100

# Matches gringo-style identifiers; leading underscores are legal so that
# auxiliary predicates like __in_range can be declared and derived.
IDENT_RE = re.compile(r"_*[a-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, slots=True)
class Number:
    value: int


@dataclass(frozen=True, slots=True)
class Str:
    """String content without the surrounding quotes."""

    value: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str


@dataclass(frozen=True, slots=True)
class Func:
    name: str
    args: tuple["GroundTerm", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("zero-arity symbols are Const, not Func")


@dataclass(frozen=True, slots=True)
class Tuple:
    args: tuple["GroundTerm", ...]


GroundTerm = Union[Number, Str, Const, Func, Tuple]
GROUND_TYPES = (Number, Str, Const, Func, Tuple)  # for isinstance checks


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground atom: predicate name plus argument terms (possibly none)."""

    predicate: str
    args: tuple[GroundTerm, ...] = ()

    def term(self) -> GroundTerm:
        """The fact viewed as a term (used for rendering and ordering)."""
        return Func(self.predicate, self.args) if self.args else Const(self.predicate)


class ParseError(ValueError):
    """Syntax error in ASP text, positioned by line and column."""

    def __init__(self, message: str, *, offset: int, line: int, column: int):
        self.offset = offset
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


# ---------------------------------------------------------------------------
# Lexer and token cursor, shared with the rule parser in datalog


# One lexer for all ASP text.  The ground grammar below reads a subset of
# these tokens; the rule grammar in datalog reads all of them.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<agg>\#(?:min|max|count|sum))
  | (?P<ident>_*[a-z][A-Za-z0-9_]*)
  | (?P<var>_*[A-Z][A-Za-z0-9_']*)
  | (?P<anon>_)
  | (?P<op>:-|\.\.|<=|>=|!=|==|[-+*/(){},:;.<>=@|])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# Exactly the escapes _encode_string writes; anything else is an error.
_ESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}
_ESCAPE_RE = re.compile(r"\\.")

# A flat fact: `ident(arg,...,arg).` with no whitespace or comment inside,
# after any whitespace and comments.  Each argument is an integer, a string
# without escapes or a constant.  A second '.' would lex as '..', so it ends
# the run.  A comment runs to the end of its line, so that a failed match
# cannot split it at each '%' and backtrack exponentially.
_FLAT_ARG = r'-?[0-9]+|"[^"\\]*"|_*[a-z][A-Za-z0-9_]*'
_FLAT_ARG_RE = re.compile(_FLAT_ARG)
_FLAT_FACT_RE = re.compile(
    rf"(?:\s|%[^\n]*(?![^\n]))*(_*[a-z][A-Za-z0-9_]*)\(((?:{_FLAT_ARG})(?:,(?:{_FLAT_ARG}))*)\)\.(?!\.)")


def integer_too_long(what: str = "literal") -> str:
    """The message for an integer with more digits than int() converts."""
    return f"integer {what} longer than {sys.get_int_max_str_digits()} digits"


def too_many_digits(value: int) -> bool:
    """Whether value has more digits than int() converts, found without converting it."""
    limit = sys.get_int_max_str_digits()
    # |value| < 2**bits <= 10**limit when bits * 0.30103 <= limit, as log10(2) < 0.30103.
    return (limit > 0 and value.bit_length() * 30103 > limit * 100000
            and abs(value) >= 10 ** limit)


def _encode_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


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


class TokenCursor:
    """One token of lookahead over ASP text, lexed lazily.

    Tokens carry only their offset; line and column are computed when an
    error is built.  Subclasses set error_class to their own ParseError.
    """

    error_class = ParseError

    def __init__(self, text: str):
        self.text = text
        self._next = self._lex(0).__next__
        self.cur = self._next()
        self.depth = 0

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

    def parenthesized(self, item) -> tuple[list, bool]:
        """The items of '(' ... ')' and whether they form a tuple.

        (t) is just t; (), (t,) and (t,u) are tuples.
        """
        self.open_paren()
        items = []
        is_tuple = self.cur.text == ")"
        if not is_tuple:
            items.append(item())
            while self.cur.text == ",":
                is_tuple = True
                self.advance()
                if self.cur.text == ")":  # trailing comma: (1,)
                    break
                items.append(item())
        self.close_paren("')' closing the parenthesis")
        return items, is_tuple

    def flat_facts(self, facts: list[Fact]) -> None:
        """Append the run of flat facts that starts at the current token.

        Each fact takes one match of _FLAT_FACT_RE and gives the values the
        grammar would.  Lexing resumes after the run.
        """
        text = self.text
        match = _FLAT_FACT_RE.match
        m = match(text, self.cur.offset)
        if m is None:
            return
        while m is not None:
            body = m.group(2)
            args = self._flat_args(body.split(","), m.start(2))
            if args is None:  # a string argument holds a comma
                args = self._flat_args(_FLAT_ARG_RE.findall(body), m.start(2))
            facts.append(Fact(m.group(1), args))
            end = m.end()
            m = match(text, end)
        self._next = self._lex(end).__next__
        self.cur = self._next()

    def _flat_args(self, parts: list[str], offset: int) -> tuple[GroundTerm, ...] | None:
        """The terms of a flat fact's arguments; None if parts split a string."""
        args: list[GroundTerm] = []
        for part in parts:
            first = part[0]
            if first == '"':
                if len(part) == 1 or part[-1] != '"':
                    return None
                args.append(Str(part[1:-1]))
            elif first >= "_":  # '_' or a lowercase letter
                args.append(Const(part))
            else:
                args.append(Number(self.integer(part, offset + (first == "-"))))
            offset += len(part) + 1
        return tuple(args)

    def integer(self, literal: str, offset: int) -> int:
        """The value of an integer literal whose digits start at offset."""
        try:
            return int(literal)
        except ValueError:
            raise self.error_at(integer_too_long(), offset) from None

    def error_at(self, message: str, offset: int | None = None) -> ParseError:
        """An error at the offset, by default that of the current token."""
        if offset is None:
            offset = self.cur.offset
        return self.error_class(message, offset=offset, **_line_col(self.text, offset))

    def error(self, expected: str) -> ParseError:
        tok = self.cur
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        return self.error_at(f"expected {expected}, got {got}")

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


# ---------------------------------------------------------------------------
# Recursive-descent parser for ground terms and facts


class _Parser(TokenCursor):
    def term(self) -> GroundTerm:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Number(self.integer(tok.text, tok.offset))
        if tok.text == "-":
            self.advance()
            if self.cur.kind != "number":
                raise self.error("digits after '-'")
            tok = self.advance()
            return Number(-self.integer(tok.text, tok.offset))
        if tok.kind == "string":
            self.advance()
            return Str(self.string_value(tok))
        if tok.kind == "ident":
            self.advance()
            if self.cur.text == "(":
                self.open_paren()
                args = self.term_list()
                self.close_paren("')' closing argument list")
                return Func(tok.text, tuple(args))
            return Const(tok.text)
        if tok.text == "(":
            args, is_tuple = self.parenthesized(self.term)
            return Tuple(tuple(args)) if is_tuple else args[0]
        raise self.error("a term (number, string, constant, function or tuple)")

    def term_list(self) -> list[GroundTerm]:
        args = [self.term()]
        while self.cur.text == ",":
            self.advance()
            args.append(self.term())
        return args

    def fact(self) -> Fact:
        tok = self.cur
        if tok.kind != "ident":
            raise self.error("a predicate name")
        self.advance()
        args: tuple[GroundTerm, ...] = ()
        if self.cur.text == "(":
            self.advance()
            args = tuple(self.term_list())
            self.expect(")", "')' closing argument list")
        self.expect(".", "'.' terminating the fact")
        return Fact(tok.text, args)


def parse_term(text: str) -> GroundTerm:
    """Parse one ground term; the whole input must be consumed."""
    parser = _Parser(text)
    term = parser.term()
    if parser.cur.kind != "end":
        raise parser.error("end of input")
    return term


def parse_facts(text: str) -> list[Fact]:
    """Parse dot-terminated facts, in source order, duplicates preserved.

    `%` starts a line comment.  Rule syntax is rejected with the offending
    line so that program files are not silently misread as data.
    """
    try:
        parser = _Parser(text)
        facts: list[Fact] = []
        while True:
            parser.flat_facts(facts)
            if parser.cur.kind == "end":
                break
            if parser.cur.text == ":-":
                raise _rule_error(text, parser.cur.offset)
            facts.append(parser.fact())
        return facts
    except ParseError as exc:
        # Split on "\n" only, as _line_col counts lines; the error may sit
        # on the empty line after a final newline.
        line_text = text.split("\n")[exc.line - 1]
        if ":-" in line_text and "rules are not allowed" not in str(exc):
            raise _rule_error(text, exc.offset) from None
        raise


def _rule_error(text: str, offset: int) -> ParseError:
    pos = _line_col(text, offset)
    return ParseError(
        f"rules are not allowed in a facts file (':-' on line {pos['line']})",
        offset=offset, **pos)


# ---------------------------------------------------------------------------
# Rendering and ordering


def render(t: GroundTerm) -> str:
    """Canonical text: no whitespace, strings quoted, `(x,)` for 1-tuples."""
    if isinstance(t, Number):
        return str(t.value)
    if isinstance(t, Str):
        return _encode_string(t.value)
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Func):
        return f"{t.name}({','.join(render(a) for a in t.args)})"
    if isinstance(t, Tuple):
        if len(t.args) == 1:
            return f"({render(t.args[0])},)"
        return f"({','.join(render(a) for a in t.args)})"
    raise TypeError(f"not a ground term: {t!r}")


def sort_key(t: GroundTerm):
    """The key of t in the term order; compare and every comparison use it.

    Numbers come first, then constants, strings, tuples and functions.
    Numbers order by value, constants by name and strings by text; tuples
    by length, then item by item; functions by arity, then name, then
    argument by argument.
    """
    if isinstance(t, Number):
        return (0, t.value)
    if isinstance(t, Const):
        return (1, t.name)
    if isinstance(t, Str):
        return (2, t.value)
    if isinstance(t, Tuple):
        return (3, len(t.args), tuple(sort_key(a) for a in t.args))
    if isinstance(t, Func):
        return (4, len(t.args), t.name, tuple(sort_key(a) for a in t.args))
    raise TypeError(f"not a ground term: {t!r}")


def compare(a: GroundTerm, b: GroundTerm) -> int:
    """-1, 0 or 1 as the sort keys of a and b compare."""
    ka, kb = sort_key(a), sort_key(b)
    return (ka > kb) - (ka < kb)


# The comparison operators of rules, `having` and hooks, as functions of two
# sort keys (or of two values that Python orders alike).
COMPARISONS = {"=": operator.eq, "==": operator.eq, "!=": operator.ne,
               "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
