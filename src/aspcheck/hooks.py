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
snapshot of its symbol; everything else runs exactly once.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .terms import (
    GROUND_TYPES,
    MAX_NESTING,
    GroundTerm,
    Number,
    Str,
    compare,
    integer_too_long,
    render,
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


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class ENum:
    value: int


@dataclass(frozen=True, slots=True)
class EStr:
    value: str


@dataclass(frozen=True, slots=True)
class EBool:
    value: bool


@dataclass(frozen=True, slots=True)
class EName:
    name: str


@dataclass(frozen=True, slots=True)
class ESelf:
    pass


@dataclass(frozen=True, slots=True)
class ECls:
    pass


@dataclass(frozen=True, slots=True)
class EAttr:
    base: "Expr"
    name: str


@dataclass(frozen=True, slots=True)
class ECall:
    name: str
    args: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class EList:
    items: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class ENeg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class ENot:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class EBin:
    op: str  # + - * // %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class EBoolOp:
    op: str  # and | or
    parts: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class ECompare:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class EIn:
    item: "Expr"
    seq: "Expr"
    negated: bool


Expr = (ENum, EStr, EBool, EName, ESelf, ECls, EAttr, ECall, EList, ENeg,
        ENot, EBin, EBoolOp, ECompare, EIn)


@dataclass(frozen=True, slots=True)
class SAssign:
    name: str
    expr: "Expr"


@dataclass(frozen=True, slots=True)
class SClsAssign:
    name: str
    expr: "Expr"


@dataclass(frozen=True, slots=True)
class SClsAugAssign:
    name: str
    op: str  # += | -=
    expr: "Expr"


@dataclass(frozen=True, slots=True)
class SIf:
    cond: "Expr"
    body: tuple["Stmt", ...]


@dataclass(frozen=True, slots=True)
class SFail:
    # Literal fail messages are split into text/expression segments so that
    # {expr} interpolation happens at failure time.
    segments: tuple[object, ...]  # str | Expr


@dataclass(frozen=True, slots=True)
class SExpr:
    expr: "Expr"


Stmt = (SAssign, SClsAssign, SClsAugAssign, SIf, SFail, SExpr)


@dataclass(frozen=True, slots=True)
class HookScript:
    statements: tuple["Stmt", ...]
    uses_self: bool
    uses_append_snapshot: bool

    def __bool__(self) -> bool:
        return bool(self.statements)


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


def _tokenize_line(line: str, lineno: int) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    while pos < len(line):
        m = _SCRIPT_TOKEN_RE.match(line, pos)
        if m is None:
            raise ScriptSyntaxError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        kind = m.lastgroup
        text = m.group()
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "name" and text in _KEYWORDS:
            kind = "kw"
        toks.append(_Tok(kind, text, lineno, m.start() + 1))
    toks.append(_Tok("end", "", lineno, len(line) + 1))
    return toks


_SCRIPT_ESCAPES = {"\\\\": "\\", "\\'": "'", '\\"': '"', "\\n": "\n"}


def _decode_script_string(tok: _Tok) -> str:
    def unescape(m: re.Match) -> str:
        if m.group() not in _SCRIPT_ESCAPES:
            raise ScriptSyntaxError(f"unsupported escape {m.group()}", tok.line, tok.column)
        return _SCRIPT_ESCAPES[m.group()]

    return re.sub(r"\\.", unescape, tok.text[1:-1])


# ---------------------------------------------------------------------------
# Parser

# Binding strength of the binary operators, loosest first; prefix 'not'
# sits between 'and' and the comparisons.
_OR, _AND, _NOT, _CMP, _SUM, _PRODUCT = 1, 2, 3, 4, 5, 6
_BINARY = {"or": _OR, "and": _AND, "in": _CMP, "not in": _CMP,
           "==": _CMP, "!=": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP,
           "+": _SUM, "-": _SUM, "*": _PRODUCT, "//": _PRODUCT, "%": _PRODUCT}


_CONSTANTS = {"True": EBool(True), "False": EBool(False), "self": ESelf(), "cls": ECls()}


def _binary_node(op: str, prec: int, left, right):
    if prec <= _AND:
        return EBoolOp(op, (left, right))
    if op in ("in", "not in"):
        return EIn(left, right, negated=op == "not in")
    if prec == _CMP:
        return ECompare(op, left, right)
    return EBin(op, left, right)


class _LineParser:
    """Expression and statement parser over one logical line."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.open = 0  # brackets open at the current token

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
        access.  depth counts the compound nodes on the longest path.
        """
        start = self.cur
        if start.text == "not" and min_prec <= _NOT:
            nots = self.prefix_run("not")
            node, depth = self.binary(_CMP)
            for _ in range(nots):
                node = ENot(node)
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
                node, depth = EBoolOp(op, node.parts + (right,)), max(depth, right_depth + 1)
            else:
                node, depth = _binary_node(op, prec, node, right), max(depth, right_depth) + 1
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
            self.advance()
            if self.cur.kind != "name":
                raise self.error("an attribute name after '.'")
            node, depth = EAttr(node, self.advance().text), depth + 1
        for _ in range(negs):
            node = ENeg(node)
        return node, self.nested(depth + negs, start)

    def atom(self):
        t = self.cur
        if t.kind == "number":
            self.advance()
            try:
                return ENum(int(t.text)), 0
            except ValueError:
                raise ScriptSyntaxError(integer_too_long(), t.line, t.column) from None
        if t.kind == "string":
            self.advance()
            return EStr(_decode_script_string(t)), 0
        if t.text in _CONSTANTS:
            self.advance()
            return _CONSTANTS[t.text], 0
        if t.kind == "name":
            self.advance()
            if self.cur.text == "(":
                args, depth = self.bracketed(")", "')' closing the call")
                return ECall(t.text, args), depth
            return EName(t.text), 0
        if t.text == "[":
            items, depth = self.bracketed("]", "']' closing the list")
            return EList(items), depth
        if t.text == "(":
            self.open_bracket()
            inner = self.binary(_OR)
            self.close_bracket(")", "')'")
            return inner
        raise self.error("an expression")

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
            message = self.expr()
            self.expect(")", "')' closing fail")
            return SFail(_fail_segments(message, t))
        if t.text == "cls":
            nxt = self.toks[self.i + 1 : self.i + 4]
            if len(nxt) >= 3 and nxt[0].text == "." and nxt[2].text in ("=", "+=", "-="):
                self.advance()
                self.advance()
                name = self.advance().text
                op = self.advance().text
                expr = self.expr()
                if op == "=":
                    return SClsAssign(name, expr)
                return SClsAugAssign(name, op, expr)
        if t.kind == "name" and self.toks[self.i + 1].text == "=":
            self.advance()
            self.advance()
            return SAssign(t.text, self.expr())
        return SExpr(self.expr())


def _fail_segments(message, tok: _Tok) -> tuple[object, ...]:
    """Split a literal fail message into text and `{expr}` segments."""
    if not isinstance(message, EStr):
        return (message,)
    text = message.value
    segments: list[object] = []
    pos = 0
    while pos < len(text):
        open_ = text.find("{", pos)
        if open_ < 0:
            segments.append(text[pos:])
            break
        close = text.find("}", open_)
        if close < 0:
            raise ScriptSyntaxError("unterminated '{' in fail message", tok.line, tok.column)
        if open_ > pos:
            segments.append(text[pos:open_])
        inner = text[open_ + 1 : close]
        p = _LineParser(_tokenize_line(inner, tok.line))
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
        lines.append((indent, _tokenize_line(expanded.strip(), lineno)))

    statements, rest = _parse_block(lines, 0, base_indent=None, ifs=0)
    if rest != len(lines):
        tok = lines[rest][1][0]
        raise ScriptSyntaxError("unexpected indentation", tok.line, tok.column)
    stmts = tuple(statements)
    return HookScript(
        statements=stmts,
        uses_self=any(_mentions(s, lambda n: isinstance(n, ESelf)) for s in stmts),
        uses_append_snapshot=any(
            _mentions(s, lambda n: isinstance(n, ECall) and n.name == "append_snapshot")
            for s in stmts),
    )


def _parse_block(lines, start: int, base_indent: int | None, ifs: int):
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
        stmt, i = _parse_statement(lines, i, ifs)
        statements.append(stmt)
    return statements, i


def _parse_statement(lines, i: int, ifs: int):
    line_indent, toks = lines[i]
    p = _LineParser(toks)
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
            return SIf(cond, (body,)), i + 1
        body_stmts, nxt = _parse_block(lines, i + 1, base_indent=line_indent, ifs=ifs + 1)
        if not body_stmts:
            raise ScriptSyntaxError("expected an indented block after 'if ...:'",
                                    toks[0].line, toks[0].column)
        return SIf(cond, tuple(body_stmts)), nxt
    stmt = p.simple_statement()
    if not p.at_end():
        raise p.error("end of line")
    return stmt, i + 1


def _mentions(node, hit) -> bool:
    """Whether hit holds for the statement or expression or any node in it."""
    if hit(node):
        return True
    for f in node.__dataclass_fields__:
        v = getattr(node, f)
        for child in v if isinstance(v, tuple) else (v,):
            if isinstance(child, Stmt + Expr) and _mentions(child, hit):
                return True
    return False


# ---------------------------------------------------------------------------
# Evaluation


def eval_instance(script: HookScript, env: EvalEnv) -> None:
    """Run a script; CheckFailure means invalid data, ScriptEvalError a bad spec."""
    for stmt in script.statements:
        _exec(stmt, env)


def run_prelude(script: HookScript | None) -> dict[str, object]:
    """Execute the global prelude; its local bindings become constants."""
    if script is None:
        return {}
    env = EvalEnv()
    eval_instance(script, env)
    return env.locals


def _exec(stmt, env: EvalEnv) -> None:
    if isinstance(stmt, SAssign):
        env.locals[stmt.name] = _eval(stmt.expr, env)
    elif isinstance(stmt, SClsAssign):
        env.class_store[stmt.name] = _eval(stmt.expr, env)
    elif isinstance(stmt, SClsAugAssign):
        if stmt.name not in env.class_store:
            raise ScriptEvalError(
                f"cls.{stmt.name} is not initialized (set it in before_grounding)")
        current = env.class_store[stmt.name]
        delta = _eval(stmt.expr, env)
        if not _is_int(current) or not _is_int(delta):
            raise ScriptEvalError(f"cls.{stmt.name} {stmt.op} needs integer operands")
        env.class_store[stmt.name] = current + delta if stmt.op == "+=" else current - delta
    elif isinstance(stmt, SIf):
        if _truth(_eval(stmt.cond, env)):
            for inner in stmt.body:
                _exec(inner, env)
    elif isinstance(stmt, SFail):
        raise CheckFailure(_render_fail(stmt, env))
    else:
        _eval(stmt.expr, env)


def _render_fail(stmt: SFail, env: EvalEnv) -> str:
    parts: list[str] = []
    for seg in stmt.segments:
        parts.append(seg if isinstance(seg, str) else _format_value(_eval(seg, env)))
    return "".join(parts)


def _format_value(v) -> str:
    if isinstance(v, CheckedInstance):
        return render(v.source)
    if _is_term(v):
        return render(v)
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, list):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    return str(v)


def _eval(node, env: EvalEnv):
    if isinstance(node, ENum):
        return node.value
    if isinstance(node, EStr):
        return node.value
    if isinstance(node, EBool):
        return node.value
    if isinstance(node, EName):
        if node.name in env.locals:
            return env.locals[node.name]
        if node.name in env.prelude:
            return env.prelude[node.name]
        raise ScriptEvalError(f"unknown name {node.name!r}")
    if isinstance(node, ESelf):
        if env.instance is None:
            raise ScriptEvalError("self is not available in this hook phase")
        return _InstanceScope(env.instance)
    if isinstance(node, ECls):
        return _ClsScope(env.class_store)
    if isinstance(node, EAttr):
        base = _eval(node.base, env)
        if isinstance(base, _InstanceScope):
            if node.name not in base.values:
                raise ScriptEvalError(f"instance has no field {node.name!r}")
            return base.values[node.name]
        if isinstance(base, _ClsScope):
            if node.name not in base.store:
                raise ScriptEvalError(f"cls.{node.name} is not set")
            return base.store[node.name]
        if isinstance(base, CheckedInstance):
            if node.name not in base.values:
                raise ScriptEvalError(f"{base.symbol} has no field {node.name!r}")
            return base.values[node.name]
        raise ScriptEvalError(f"value of type {type(base).__name__} has no attributes")
    if isinstance(node, ECall):
        return _call(node, env)
    if isinstance(node, EList):
        return _ListValue([_eval(item, env) for item in node.items])
    if isinstance(node, ENeg):
        v = _eval(node.operand, env)
        if not _is_int(v):
            raise ScriptEvalError("unary '-' needs an integer")
        return -v
    if isinstance(node, ENot):
        return not _truth(_eval(node.operand, env))
    if isinstance(node, EBin):
        return _binop(node, env)
    if isinstance(node, EBoolOp):
        if node.op == "and":
            result = True
            for part in node.parts:
                result = _truth(_eval(part, env))
                if not result:
                    return False
            return result
        for part in node.parts:
            if _truth(_eval(part, env)):
                return True
        return False
    if isinstance(node, ECompare):
        return compare_values(node.op, _eval(node.left, env), _eval(node.right, env))
    seq = _eval(node.seq, env)  # node is an EIn
    if not isinstance(seq, list):
        raise ScriptEvalError("'in' expects a list on the right-hand side")
    item = _eval(node.item, env)
    found = any(compare_values("==", item, member) for member in seq)
    return not found if node.negated else found


class _ListValue(list):
    """A list a script built; depth counts the lists on its longest path.

    Lists nest at most MAX_NESTING deep, so formatting and comparing them
    cannot exhaust the interpreter's stack.
    """

    __slots__ = ("depth",)

    def __init__(self, items: list):
        super().__init__(items)
        self.depth = 1 + max((x.depth for x in items if isinstance(x, _ListValue)),
                             default=0)
        if self.depth > MAX_NESTING:
            raise ScriptEvalError(f"lists nested more than {MAX_NESTING} levels deep")


@dataclass(frozen=True, slots=True)
class _InstanceScope:
    values: Mapping[str, object]


@dataclass(frozen=True, slots=True)
class _ClsScope:
    store: dict[str, object]


def _call(node: ECall, env: EvalEnv):
    args = [_eval(a, env) for a in node.args]
    if node.name == "valid_date":
        return _valid_date(args)
    if node.name == "len":
        if len(args) != 1 or not isinstance(args[0], (str, list)):
            raise ScriptEvalError("len expects one string or list argument")
        return len(args[0])
    if node.name == "match":
        if len(args) != 2 or not isinstance(args[0], str) or not isinstance(args[1], str):
            raise ScriptEvalError("match expects (text, pattern) strings")
        try:
            return re.fullmatch(args[1], args[0]) is not None
        except re.error as exc:
            raise ScriptEvalError(f"bad pattern in match: {exc}") from exc
    if node.name == "append_snapshot":
        if args:
            raise ScriptEvalError("append_snapshot takes no arguments")
        if env.on_snapshot is None:
            raise ScriptEvalError("append_snapshot is only available in after_init")
        env.on_snapshot()
        return None
    raise ScriptEvalError(f"unknown function {node.name!r}")


def _valid_date(args) -> bool:
    if len(args) != 3 or not all(_is_int(a) for a in args):
        raise ScriptEvalError("valid_date expects three integers (year, month, day)")
    y, m, d = args
    try:
        datetime.date(y, m, d)
    except ValueError:
        raise CheckFailure(f"no such calendar date: {y}-{m}-{d}") from None
    return True


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_term(v) -> bool:
    return isinstance(v, GROUND_TYPES)


def _truth(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ScriptEvalError(f"condition is {type(v).__name__}, not a boolean")


def _as_term(v) -> GroundTerm:
    if isinstance(v, CheckedInstance):
        return v.source
    if _is_term(v):
        return v
    if _is_int(v):
        return Number(v)
    if isinstance(v, str):
        return Str(v)
    raise ScriptEvalError(f"cannot order a value of type {type(v).__name__}")


def compare_values(op: str, left, right) -> bool:
    """left op right as scripts compare: terms in term order, ScriptEvalError if unordered."""
    uses_terms = any(isinstance(v, CheckedInstance) or _is_term(v) for v in (left, right))
    if uses_terms:
        c = compare(_as_term(left), _as_term(right))
    elif _is_int(left) and _is_int(right):
        c = (left > right) - (left < right)
    elif isinstance(left, str) and isinstance(right, str):
        c = (left > right) - (left < right)
    elif op in ("==", "!="):
        return (left == right) if op == "==" else (left != right)
    else:
        raise ScriptEvalError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}")
    return {
        "==": c == 0, "!=": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0,
    }[op]


def _binop(node: EBin, env: EvalEnv):
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if not _is_int(left) or not _is_int(right):
        raise ScriptEvalError(f"arithmetic '{node.op}' needs integer operands")
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0:  # node.op is // or %
        raise ScriptEvalError("division by zero")
    return left // right if node.op == "//" else left % right
