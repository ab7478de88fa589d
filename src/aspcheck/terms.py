"""Ground ASP terms and facts: parsing, rendering, ordering.

Ground terms are integers (unbounded at this layer; 32-bit range
enforcement is a validation facet, not a parsing concern), double-quoted
strings, alphanumeric constants, functions with at least one argument,
and tuples.  parse_term and parse_facts read their text with the one
reader of ASP text, the rule parser in datalog, so data reads alike from
a library call and from the command line: constant arithmetic folds, and
anything that is not ground is an error.
"""

from __future__ import annotations

import contextlib
import gc
import operator
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Union

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
    "gc_paused",
]

# How deeply terms may nest parentheses; deeper input is a ParseError
# rather than a RecursionError in the recursive-descent parser.
MAX_NESTING = 100

# Matches gringo-style identifiers; leading underscores are legal so that
# auxiliary predicates like __in_range can be declared and derived.
IDENT = r"_*[a-z][A-Za-z0-9_]*"
IDENT_RE = re.compile(IDENT + r"\Z")


class _Term(tuple):
    """A ground term: a tuple laid out as its own sort key, a kind rank first,
    then what orders terms of that kind, so hashing, equality and ordering
    run in C.  Numbers rank first, then constants, strings (content without
    the quotes), tuples (by length first) and functions (by arity, then
    name).  _fields names the constructor's arguments, for repr and copies.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with these
        return tuple(getattr(self, name) for name in self._fields)


class Number(_Term):
    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: int):
        return tuple.__new__(cls, (0, value))


class Const(_Term):
    __slots__ = ()
    _fields = ("name",)
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (1, name))


class Str(_Term):
    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: str):
        return tuple.__new__(cls, (2, value))


class Tuple(_Term):
    __slots__ = ()
    _fields = ("args",)
    args = property(itemgetter(2))

    def __new__(cls, args: tuple["GroundTerm", ...]):
        return tuple.__new__(cls, (3, len(args), args))


class Func(_Term):
    __slots__ = ()
    _fields = ("name", "args")
    name = property(itemgetter(2))
    args = property(itemgetter(3))

    def __new__(cls, name: str, args: tuple["GroundTerm", ...]):
        if not args:
            raise ValueError("zero-arity symbols are Const, not Func")
        return tuple.__new__(cls, (4, len(args), name, args))


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


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic garbage collector, and restore its state on exit.

    A run builds hundreds of thousands of tracked objects (facts, terms,
    checked instances) and no reference cycle among them, so each automatic
    collection walks them all and frees nothing.  Nested uses cost one
    gc.isenabled() call.  gc.disable is process-wide: other threads run
    without cyclic collection until the outermost use exits.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Parsing, through the one reader of ASP text in datalog


def integer_too_long(what: str = "literal") -> str:
    """The message for an integer with more digits than int() converts."""
    return f"integer {what} longer than {sys.get_int_max_str_digits()} digits"


def too_many_digits(value: int) -> bool:
    """Whether value has more digits than int() converts, found without converting it."""
    limit = sys.get_int_max_str_digits()
    # |value| < 2**bits <= 10**limit when bits * 0.30103 <= limit, as log10(2) < 0.30103.
    return (limit > 0 and value.bit_length() * 30103 > limit * 100000
            and abs(value) >= 10 ** limit)


def parse_term(text: str) -> GroundTerm:
    """Parse one ground term; the whole input must be consumed.

    Constant arithmetic folds as in rule text: "1+2" reads as 3.
    """
    from .datalog import _ProgramParser  # datalog imports this module

    parser = _ProgramParser(text)
    start = parser.cur.offset
    term = parser.term()
    if not isinstance(term, GROUND_TYPES):
        message, offset = parser.defect or ("expected a ground term", start)
        raise parser.error_at(message, offset)
    if parser.cur.kind != "end":
        raise parser.error("end of input")
    return term


@gc_paused()
def parse_facts(text: str) -> list[Fact]:
    """Parse dot-terminated facts, in source order, duplicates preserved.

    `%` starts a line comment.  Each statement is read as parse_program
    reads it, constant arithmetic folded, and kept when that makes it a
    fact.  A rule, a constraint or a statement that is not ground is an
    error naming its line, so that program files are not silently misread
    as data.
    """
    from .datalog import _ProgramParser  # datalog imports this module

    parser = _ProgramParser(text)
    facts: list[Fact] = []
    for start, rule in parser.statements(facts):  # the first non-fact ends the read
        if rule is None or rule.body:
            raise parser.error_at("rules are not allowed in a facts file", start)
        raise parser.error_at("facts must be ground", start)
    return facts


# ---------------------------------------------------------------------------
# Rendering and ordering


def _encode_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def render(t: GroundTerm) -> str:
    """Canonical text: no whitespace, strings quoted, `(x,)` for 1-tuples."""
    kind = type(t)
    if kind is Number:
        return str(t[1])
    if kind is Const:
        return t[1]
    if kind is Str:
        return _encode_string(t[1])
    if kind is Func:
        return f"{t[2]}({','.join(map(render, t[3]))})"
    if kind is Tuple:
        if t[1] == 1:
            return f"({render(t[2][0])},)"
        return f"({','.join(map(render, t[2]))})"
    raise TypeError(f"not a ground term: {t!r}")


def sort_key(t: GroundTerm):
    """The key of t in the term order: t itself, laid out as its own key (see Number).
    A tuple of terms is its own key too, ordered item by item."""
    return t


def compare(a: GroundTerm, b: GroundTerm) -> int:
    """-1, 0 or 1 as a and b compare in the term order."""
    return (a > b) - (a < b)


# The comparison operators of rules, `having` and hooks, as functions of two
# sort keys (or of two values that Python orders alike).
COMPARISONS = {"=": operator.eq, "==": operator.eq, "!=": operator.ne,
               "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
