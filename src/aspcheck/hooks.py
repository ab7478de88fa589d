"""The validation hook mini-language.

Per-instance checks (after_init), run-level hooks (before_grounding /
after_grounding) and the global prelude all share one small, closed
statement language, and `having` comparisons use its compare_values.  It deliberately has no loops, no user
functions and no I/O: calendar validity, modulo tests, membership,
accumulators, snapshot sweeps and formatted failure messages are the whole
feature set, so a specification stays auditable.

Scope rules:
  self.FIELD   checked field values of the instance under validation
  cls.NAME     the run-wide class store (accumulators, snapshot bindings)
  NAME         script-local bindings, then prelude constants
  builtins     valid_date, len, match, append_snapshot

An after_grounding script that mentions ``self`` is swept once per stored
snapshot of its symbol; everything else runs exactly once.  A script that is
one bare ``append_snapshot()`` call is marked snapshot_only, and the engine
takes the snapshot without running it.  Assigning a ``cls`` field is the only
effect a script leaves behind, so a script without writes_cls cannot tell in
which order the engine runs it over the instances.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .terms import (
    COMPARISONS,
    GROUND_TYPES,
    MAX_NESTING,
    GroundTerm,
    Number,
    Str,
    integer_too_long,
    render,
    too_many_digits,
)

__all__ = [
    "CheckFailure",
    "ScriptEvalError",
    "ScriptSyntaxError",
    "CheckedInstance",
    "EvalEnv",
    "HookScript",
    "parse_script",
    "eval_instance",
    "run_prelude",
    "compare_values",
]

# The most items a script's list may hold, counted through its nested lists.
MAX_LIST_ITEMS = 10**6


class CheckFailure(Exception):
    """Validation verdict: the data is invalid, with a human message."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class ScriptEvalError(Exception):
    """Spec-quality problem (unknown name, bad types, division by zero).

    Distinct from CheckFailure: this means the script is wrong, not the data.
    """


class ScriptSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


@dataclass(frozen=True, slots=True)
class CheckedInstance:
    """A validated instance: field values plus the originating term."""

    symbol: str
    values: Mapping[str, object]
    source: GroundTerm


@dataclass(slots=True)
class EvalEnv:
    instance: Mapping[str, object] | None = None
    class_store: dict[str, object] = field(default_factory=dict)
    prelude: Mapping[str, object] = field(default_factory=dict)
    locals: dict[str, object] = field(default_factory=dict)
    on_snapshot: Callable[[], None] | None = None


@dataclass(frozen=True, slots=True)
class HookScript:
    """A parsed hook: each statement is a function of an EvalEnv.

    eval_instance calls them in order.  Scripts compare by their source text.
    snapshot_only: the one statement is a bare append_snapshot() call.
    writes_cls: some statement assigns a class field (=, += or -=).
    """

    text: str
    statements: tuple[Callable[[EvalEnv], object], ...] = field(compare=False)
    uses_self: bool
    uses_append_snapshot: bool
    snapshot_only: bool
    writes_cls: bool


# ---------------------------------------------------------------------------
# Tokenizer (per logical line, indentation tracked separately)


_SCRIPT_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\+=|-=|==|!=|<=|>=|//|[+\-*%<>=:.,()\[\]])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"if", "not", "and", "or", "in", "fail", "self", "cls", "True", "False"}


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # number | string | name | kw | op | end
    text: str
    line: int
    column: int


def _tokenize_line(line: str, lineno: int, columns: Sequence[int]) -> list[_Tok]:
    """The tokens of line lineno; line[i], or its end at i = len(line), is at column columns[i]."""
    toks: list[_Tok] = []
    pos = 0
    while pos < len(line):
        m = _SCRIPT_TOKEN_RE.match(line, pos)
        if m is None:
            raise ScriptSyntaxError(f"unexpected character {line[pos]!r}", lineno, columns[pos])
        kind = m.lastgroup
        text = m.group()
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "name" and text in _KEYWORDS:
            kind = "kw"
        toks.append(_Tok(kind, text, lineno, columns[m.start()]))
    toks.append(_Tok("end", "", lineno, columns[len(line)]))
    return toks


_SCRIPT_ESCAPES = {"\\\\": "\\", "\\'": "'", '\\"': '"', "\\n": "\n"}


def _decode_script_string(text: str, tok: _Tok) -> str:
    """text, the content of the string literal tok or a part of it, unescaped."""
    def unescape(m: re.Match) -> str:
        if m.group() not in _SCRIPT_ESCAPES:
            raise ScriptSyntaxError(f"unsupported escape {m.group()}", tok.line, tok.column)
        return _SCRIPT_ESCAPES[m.group()]

    return re.sub(r"\\.", unescape, text)


# ---------------------------------------------------------------------------
# Parser: every expression and statement is built as the function of an
# EvalEnv that evaluates it, so a script is compiled once, when it loads.

# Binding strength of the binary operators, loosest first; prefix 'not'
# sits between 'and' and the comparisons.
_OR, _AND, _NOT, _CMP, _SUM, _PRODUCT = 1, 2, 3, 4, 5, 6
_BINARY = {"or": _OR, "and": _AND, "in": _CMP, "not in": _CMP,
           "==": _CMP, "!=": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP,
           "+": _SUM, "-": _SUM, "*": _PRODUCT, "//": _PRODUCT, "%": _PRODUCT}


def _binary(op: str, prec: int, parts: list):
    """The function of op over parts, a list of two operands.

    An and/or reads parts when it runs, so the operands the parser appends
    to a chain such as a and b and c join the same function.
    """
    if prec == _OR:
        return lambda env: any(_truth(part(env)) for part in parts)
    if prec == _AND:
        return lambda env: all(_truth(part(env)) for part in parts)
    left, right = parts
    if op in ("in", "not in"):
        return _contains(left, right, negated=op == "not in")
    if prec == _CMP:
        return lambda env: compare_values(op, left(env), right(env))
    return _arithmetic(op, left, right)


class _LineParser:
    """Expression and statement parser over one logical line.

    mentions collects "self" and "append_snapshot" where the script uses
    them, and "cls=" where it assigns a class field; the lines of one
    script share it.
    """

    def __init__(self, toks: list[_Tok], mentions: set[str]):
        self.toks = toks
        self.i = 0
        self.open = 0  # brackets open at the current token
        self.mentions = mentions
        self.string: _Tok | None = None  # the last atom, if a string literal

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, expected: str) -> ScriptSyntaxError:
        t = self.cur
        got = repr(t.text) if t.kind != "end" else "end of line"
        return ScriptSyntaxError(f"expected {expected}, got {got}", t.line, t.column)

    def expect(self, text: str, expected: str) -> _Tok:
        if self.cur.text != text:
            raise self.error(expected)
        return self.advance()

    def at_end(self) -> bool:
        return self.cur.kind == "end"

    # expressions -----------------------------------------------------------

    def expr(self):
        return self.binary(_OR)[0]

    def nested(self, depth: int, tok: _Tok) -> int:
        """depth, unless it exceeds MAX_NESTING."""
        if depth > MAX_NESTING:
            raise ScriptSyntaxError(
                f"expression nested more than {MAX_NESTING} levels deep", tok.line, tok.column)
        return depth

    def binary(self, min_prec: int):
        """(expression, depth) of the operators binding at least min_prec.

        Precedence climbing from loosest to tightest: or, and, prefix not,
        comparisons (which do not chain), + -, * // %, prefix -, attribute
        access.  depth counts the compound nodes on the longest path; it is
        0 for a lone atom, parenthesized or not.
        """
        start = self.cur
        if start.text == "not" and min_prec <= _NOT:
            nots = self.prefix_run("not")
            node, depth = self.binary(_CMP)
            for _ in range(nots):
                node = _not(node)
            depth, limit = self.nested(depth + nots, start), _NOT
        else:
            node, depth = self.unary()
            limit = _PRODUCT
        last = None
        while True:
            t = self.cur
            op = "not in" if t.text == "not" and self.toks[self.i + 1].text == "in" else t.text
            prec = _BINARY.get(op)
            if prec is None or not min_prec <= prec <= limit:
                return node, depth
            self.advance()
            if op == "not in":
                self.advance()
            right, right_depth = self.binary(prec + 1)
            if op == last and prec <= _AND:  # a and b and c is one node
                parts.append(right)
                depth = max(depth, right_depth + 1)
            else:
                parts = [node, right]
                node, depth = _binary(op, prec, parts), max(depth, right_depth) + 1
            depth = self.nested(depth, t)
            last, limit = op, prec - 1 if prec == _CMP else prec

    def prefix_run(self, text: str) -> int:
        """Consume a run of the prefix operator text; return its length."""
        count = 0
        while self.cur.text == text:
            self.advance()
            count += 1
        return count

    def unary(self):
        start = self.cur
        negs = self.prefix_run("-")
        node, depth = self.atom()
        while self.cur.text == ".":
            node, depth = _attribute(node, self.attribute_name()), depth + 1
        for _ in range(negs):
            node = _negate(node)
        return node, self.nested(depth + negs, start)

    def atom(self):
        t = self.cur
        self.string = None
        if t.kind == "number":
            self.advance()
            try:
                return _constant(int(t.text)), 0
            except ValueError:
                raise ScriptSyntaxError(integer_too_long(), t.line, t.column) from None
        if t.kind == "string":
            self.advance()
            self.string = t
            return _constant(_decode_script_string(t.text[1:-1], t)), 0
        if t.text in _CONSTANTS:
            self.advance()
            return _CONSTANTS[t.text], 0
        if t.text in ("self", "cls"):
            self.advance()
            name = self.attribute_name(f"'.' after {t.text!r}")
            if t.text == "cls":
                return _cls_field(name), 1
            self.mentions.add("self")
            return _self_field(name), 1
        if t.kind == "name":
            self.advance()
            if self.cur.text == "(":
                args, depth = self.bracketed(")", "')' closing the call")
                if t.text == "append_snapshot":
                    self.mentions.add(t.text)
                return _call(t.text, args), depth
            return _name(t.text), 0
        if t.text == "[":
            items, depth = self.bracketed("]", "']' closing the list")
            return (lambda env: _ListValue([item(env) for item in items])), depth
        if t.text == "(":
            self.open_bracket()
            inner = self.binary(_OR)
            self.close_bracket(")", "')'")
            return inner
        raise self.error("an expression")

    def attribute_name(self, expected: str = "'.'") -> str:
        """The NAME of a '.NAME' that must come next."""
        self.expect(".", expected)
        if self.cur.kind != "name":
            raise self.error("an attribute name after '.'")
        return self.advance().text

    def open_bracket(self) -> _Tok:
        """Consume an opening bracket, at most MAX_NESTING deep."""
        tok = self.advance()
        self.open = self.nested(self.open + 1, tok)
        return tok

    def close_bracket(self, close: str, expected: str) -> None:
        self.expect(close, expected)
        self.open -= 1

    def bracketed(self, close: str, expected: str):
        """(items, depth) of the comma-separated expressions up to close."""
        tok = self.open_bracket()
        items: list = []  # (expression, depth) pairs
        if self.cur.text != close:
            items.append(self.binary(_OR))
            while self.cur.text == ",":
                self.advance()
                items.append(self.binary(_OR))
        self.close_bracket(close, expected)
        depth = max((depth for _, depth in items), default=0)
        return tuple(item for item, _ in items), self.nested(depth + 1, tok)

    # statements ------------------------------------------------------------

    def simple_statement(self):
        t = self.cur
        if t.text == "fail":
            self.advance()
            self.expect("(", "'(' after fail")
            message, depth = self.binary(_OR)
            literal = self.string if depth == 0 else None
            self.expect(")", "')' closing fail")
            return _fail((message,) if literal is None else self.fail_segments(literal, t))
        if t.text == "cls":
            nxt = self.toks[self.i + 1 : self.i + 4]
            if len(nxt) >= 3 and nxt[0].text == "." and nxt[2].text in ("=", "+=", "-="):
                self.advance()
                self.advance()
                name = self.advance().text
                op = self.advance().text
                expr = self.expr()
                self.mentions.add("cls=")
                if op == "=":
                    return _set_class_field(name, expr)
                return _update_class_field(name, op, expr)
        if t.kind == "name" and self.toks[self.i + 1].text == "=":
            self.advance()
            self.advance()
            return _assign(t.text, self.expr())
        return self.expr()

    def fail_segments(self, string: _Tok, tok: _Tok) -> tuple:
        """Split the string literal of a fail message into text and `{expr}` segments.

        The expressions are evaluated when the message is built, at failure.
        No escape stands for a brace, so the braces are found in the literal
        as written, and each expression is tokenized at the columns it is written at.
        """
        text = string.text[1:-1]
        segments: list = []
        pos = 0
        while pos < len(text):
            open_ = text.find("{", pos)
            if open_ < 0:
                segments.append(_constant(_decode_script_string(text[pos:], string)))
                break
            close = text.find("}", open_)
            if close < 0:
                raise ScriptSyntaxError("unterminated '{' in fail message", tok.line, tok.column)
            if open_ > pos:
                segments.append(_constant(_decode_script_string(text[pos:open_], string)))
            raw, start = text[open_ + 1 : close], string.column + open_ + 2
            # An escape decodes to one character, at its backslash's column.
            columns = [start + m.start() for m in re.finditer(r"\\.|.|$", raw)]
            p = _LineParser(_tokenize_line(_decode_script_string(raw, string), tok.line, columns),
                            self.mentions)
            expr = p.expr()
            if not p.at_end():
                raise p.error("end of interpolated expression")
            segments.append(expr)
            pos = close + 1
        return tuple(segments)


def parse_script(text: str) -> HookScript:
    """Parse hook text into a script; empty input is an empty script."""
    lines: list[tuple[int, list[_Tok]]] = []  # (indent, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        expanded = raw.expandtabs(4)
        stripped = expanded.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(expanded) - len(expanded.lstrip(" "))
        # Columns count in the expanded line, its indentation included.
        start = len(expanded) - len(expanded.lstrip())
        lines.append((indent, _tokenize_line(stripped, lineno,
                                             range(start + 1, len(expanded) + 2))))

    mentions: set[str] = set()
    statements, rest = _parse_block(lines, 0, None, 0, mentions)
    if rest != len(lines):
        tok = lines[rest][1][0]
        raise ScriptSyntaxError("unexpected indentation", tok.line, tok.column)
    return HookScript(text, tuple(statements), uses_self="self" in mentions,
                      uses_append_snapshot="append_snapshot" in mentions,
                      snapshot_only=statements == [_append_snapshot],
                      writes_cls="cls=" in mentions)


def _parse_block(lines, start: int, base_indent: int | None, ifs: int, mentions: set[str]):
    """The statements of one suite; ifs counts the if blocks around it."""
    statements: list = []
    i = start
    indent = None
    while i < len(lines):
        line_indent, toks = lines[i]
        if indent is None:
            if base_indent is not None and line_indent <= base_indent:
                break  # empty suite; caller reports
            indent = line_indent
        if line_indent < indent:
            break
        if line_indent > indent:
            tok = toks[0]
            raise ScriptSyntaxError("unexpected indentation", tok.line, tok.column)
        stmt, i = _parse_statement(lines, i, ifs, mentions)
        statements.append(stmt)
    return statements, i


def _parse_statement(lines, i: int, ifs: int, mentions: set[str]):
    line_indent, toks = lines[i]
    p = _LineParser(toks, mentions)
    if p.cur.text == "if":
        if ifs == MAX_NESTING:
            raise ScriptSyntaxError(f"if blocks nested more than {MAX_NESTING} levels deep",
                                    toks[0].line, toks[0].column)
        p.advance()
        cond = p.expr()
        p.expect(":", "':' after the if condition")
        if not p.at_end():
            body = p.simple_statement()
            if not p.at_end():
                raise p.error("end of line after the inline statement")
            return _if(cond, (body,)), i + 1
        body_stmts, nxt = _parse_block(lines, i + 1, line_indent, ifs + 1, mentions)
        if not body_stmts:
            raise ScriptSyntaxError("expected an indented block after 'if ...:'",
                                    toks[0].line, toks[0].column)
        return _if(cond, tuple(body_stmts)), nxt
    stmt = p.simple_statement()
    if not p.at_end():
        raise p.error("end of line")
    return stmt, i + 1


# ---------------------------------------------------------------------------
# Evaluation: the functions the parser builds, and what they call


def eval_instance(script: HookScript, env: EvalEnv) -> None:
    """Run a script; CheckFailure means invalid data, ScriptEvalError a bad spec."""
    for statement in script.statements:
        statement(env)


def run_prelude(script: HookScript | None) -> dict[str, object]:
    """Execute the global prelude; its local bindings become constants."""
    if script is None:
        return {}
    env = EvalEnv()
    eval_instance(script, env)
    return env.locals


def _assign(name: str, expr):
    def assign(env: EvalEnv) -> None:
        env.locals[name] = expr(env)
    return assign


def _set_class_field(name: str, expr):
    def set_class_field(env: EvalEnv) -> None:
        env.class_store[name] = expr(env)
    return set_class_field


def _update_class_field(name: str, op: str, expr):
    """cls.name += expr or cls.name -= expr."""
    apply = _ARITHMETIC[op[0]]

    def update_class_field(env: EvalEnv) -> None:
        if name not in env.class_store:
            raise ScriptEvalError(
                f"cls.{name} is not initialized (set it in before_grounding)")
        current = env.class_store[name]
        delta = expr(env)
        if not _is_int(current) or not _is_int(delta):
            raise ScriptEvalError(f"cls.{name} {op} needs integer operands")
        env.class_store[name] = _integer_result(apply(current, delta))
    return update_class_field


def _if(cond, body: tuple):
    def if_(env: EvalEnv) -> None:
        if _truth(cond(env)):
            for statement in body:
                statement(env)
    return if_


def _fail(segments: tuple):
    def fail(env: EvalEnv):
        raise CheckFailure("".join(_format_value(segment(env)) for segment in segments))
    return fail


def _format_value(v) -> str:
    if isinstance(v, CheckedInstance):
        return render(v.source)
    if isinstance(v, GROUND_TYPES):
        return render(v)
    if isinstance(v, list):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    return str(v)


def _constant(value):
    return lambda env: value


_CONSTANTS = {"True": _constant(True), "False": _constant(False)}


def _name(name: str):
    def lookup(env: EvalEnv):
        if name in env.locals:
            return env.locals[name]
        if name in env.prelude:
            return env.prelude[name]
        raise ScriptEvalError(f"unknown name {name!r}")
    return lookup


def _self_field(name: str):
    def self_field(env: EvalEnv):
        if env.instance is None:
            raise ScriptEvalError("self is not available in this hook phase")
        try:
            return env.instance[name]
        except KeyError:
            raise ScriptEvalError(f"instance has no field {name!r}") from None
    return self_field


def _cls_field(name: str):
    def cls_field(env: EvalEnv):
        try:
            return env.class_store[name]
        except KeyError:
            raise ScriptEvalError(f"cls.{name} is not set") from None
    return cls_field


def _attribute(base, name: str):
    def attribute(env: EvalEnv):
        value = base(env)
        if isinstance(value, CheckedInstance):
            if name not in value.values:
                raise ScriptEvalError(f"{value.symbol} has no field {name!r}")
            return value.values[name]
        raise ScriptEvalError(f"value of type {type(value).__name__} has no attributes")
    return attribute


def _negate(operand):
    def negate(env: EvalEnv):
        value = operand(env)
        if not _is_int(value):
            raise ScriptEvalError("unary '-' needs an integer")
        return -value
    return negate


def _not(operand):
    return lambda env: not _truth(operand(env))


def _contains(item, seq, negated: bool):
    def contains(env: EvalEnv) -> bool:
        members = seq(env)
        if not isinstance(members, list):
            raise ScriptEvalError("'in' expects a list on the right-hand side")
        value = item(env)
        return any(compare_values("==", value, member) for member in members) != negated
    return contains


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "//": operator.floordiv, "%": operator.mod}


def _arithmetic(op: str, left, right):
    apply = _ARITHMETIC[op]

    def arithmetic(env: EvalEnv) -> int:
        a, b = left(env), right(env)
        if not _is_int(a) or not _is_int(b):
            raise ScriptEvalError(f"arithmetic '{op}' needs integer operands")
        try:
            return _integer_result(apply(a, b))
        except ZeroDivisionError:
            raise ScriptEvalError("division by zero") from None
    return arithmetic


def _integer_result(value: int) -> int:
    """value, unless it has more digits than int() converts to text."""
    if too_many_digits(value):
        raise ScriptEvalError(integer_too_long("result"))
    return value


class _ListValue(list):
    """A list a script built.

    depth counts the lists on its longest path and size the items in it and
    in its nested lists, repeats included.  Lists nest at most MAX_NESTING
    deep and hold at most MAX_LIST_ITEMS items, so formatting and comparing
    them can exhaust neither the interpreter's stack nor memory.
    """

    __slots__ = ("depth", "size")

    def __init__(self, items: list):
        super().__init__(items)
        nested = [x for x in items if isinstance(x, _ListValue)]
        self.depth = 1 + max((x.depth for x in nested), default=0)
        if self.depth > MAX_NESTING:
            raise ScriptEvalError(f"lists nested more than {MAX_NESTING} levels deep")
        self.size = len(items) + sum(x.size for x in nested)
        if self.size > MAX_LIST_ITEMS:
            raise ScriptEvalError(f"lists hold more than {MAX_LIST_ITEMS} items")


def _call(name: str, args: tuple):
    if name == "append_snapshot" and not args:
        return _append_snapshot
    return lambda env: _builtin(name, [arg(env) for arg in args])


def _append_snapshot(env: EvalEnv) -> None:
    if env.on_snapshot is None:
        raise ScriptEvalError("append_snapshot is only available in after_init")
    env.on_snapshot()


def _builtin(name: str, args: list):
    if name == "valid_date":
        return _valid_date(args)
    if name == "len":
        if len(args) != 1 or not isinstance(args[0], (str, list)):
            raise ScriptEvalError("len expects one string or list argument")
        return len(args[0])
    if name == "match":
        if len(args) != 2 or not isinstance(args[0], str) or not isinstance(args[1], str):
            raise ScriptEvalError("match expects (text, pattern) strings")
        try:
            return re.fullmatch(args[1], args[0]) is not None
        except re.error as exc:
            raise ScriptEvalError(f"bad pattern in match: {exc}") from exc
    if name == "append_snapshot":  # with no arguments it is _append_snapshot
        raise ScriptEvalError("append_snapshot takes no arguments")
    raise ScriptEvalError(f"unknown function {name!r}")


def _valid_date(args) -> bool:
    if len(args) != 3 or not all(_is_int(a) for a in args):
        raise ScriptEvalError("valid_date expects three integers (year, month, day)")
    y, m, d = args
    try:
        datetime.date(y, m, d)
    except (ValueError, OverflowError):  # OverflowError: a part beyond a C int
        raise CheckFailure(f"no such calendar date: {y}-{m}-{d}") from None
    return True


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _truth(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ScriptEvalError(f"condition is {type(v).__name__}, not a boolean")


def _as_term(v) -> GroundTerm:
    if isinstance(v, CheckedInstance):
        return v.source
    if isinstance(v, GROUND_TYPES):
        return v
    if _is_int(v):
        return Number(v)
    if isinstance(v, str):
        return Str(v)
    raise ScriptEvalError(f"cannot order a value of type {type(v).__name__}")


_TERM_LIKE = (CheckedInstance, *GROUND_TYPES)


def compare_values(op: str, left, right) -> bool:
    """left op right as scripts compare: terms in term order, ScriptEvalError if unordered."""
    if isinstance(left, _TERM_LIKE) or isinstance(right, _TERM_LIKE):
        left, right = _as_term(left), _as_term(right)
    elif not (_is_int(left) and _is_int(right) or isinstance(left, str) and isinstance(right, str)
              or op in ("==", "!=")):
        raise ScriptEvalError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}")
    return COMPARISONS[op](left, right)
