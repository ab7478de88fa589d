"""Loading YAML validation specifications.

A specification file is a YAML mapping.  The reserved key ``valasp`` holds
the global prelude script and the auxiliary rule program; every other
top-level key declares the shape of one predicate.  Inside a declaration,
mapping order fixes argument positions, so the loader insists on a
duplicate-free, order-preserving read.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

import yaml

from . import hooks
from .datalog import _path, _tarjan
from .diagnostics import Diagnostic
from .terms import (IDENT_RE, MAX_NESTING, Const, GroundTerm, Number, Str, integer_too_long,
                    parse_term, render)
from .terms import ParseError as TermParseError

__all__ = [
    "PrimitiveType",
    "Facets",
    "FieldDecl",
    "HavingComparison",
    "UserDefinition",
    "ValidationSpec",
    "SpecError",
    "load_spec",
    "parse_spec",
    "check_spec",
    "normalize_facets",
]

RESERVED_KEY = "valasp"

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

_PYTHON_HINT = (" (the 'python' key is a deprecated alias: rename it to 'script'"
                " and write the body in the validation script language)")

_HAVING_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(==|!=|<=|>=|<|>)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\Z")


class PrimitiveType(enum.Enum):
    INTEGER = "Integer"
    STRING = "String"
    ALPHA = "Alpha"
    ANY = "Any"


# The term class of each primitive type's values; Any takes every term.
TERM_CLASSES = {
    PrimitiveType.INTEGER: Number,
    PrimitiveType.STRING: Str,
    PrimitiveType.ALPHA: Const,
}

_FACETS_BY_TYPE = {
    PrimitiveType.INTEGER: {"enum", "min", "max", "count", "sum+", "sum-"},
    PrimitiveType.STRING: {"enum", "min", "max", "pattern", "count"},
    PrimitiveType.ALPHA: {"enum", "min", "max", "pattern", "count"},
    PrimitiveType.ANY: {"count"},
}
_USER_TYPE_FACETS = {"count"}


@dataclass(frozen=True, slots=True)
class Facets:
    enum_values: tuple[GroundTerm, ...] | None = None
    min: int | None = None
    max: int | None = None
    pattern: str | None = None
    count: tuple[int, int | None] | None = None
    sum_pos: tuple[int, int] | None = None
    sum_neg: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class FieldDecl:
    name: str
    type: "PrimitiveType | str"  # str names another user definition
    facets: Facets


@dataclass(frozen=True, slots=True)
class HavingComparison:
    lhs: str
    op: str
    rhs: str

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True, slots=True)
class UserDefinition:
    symbol: str
    fields: tuple[FieldDecl, ...]
    having: tuple[HavingComparison, ...] = ()
    before_grounding: "hooks.HookScript | None" = None
    after_init: "hooks.HookScript | None" = None
    after_grounding: "hooks.HookScript | None" = None

    @property
    def arity(self) -> int:
        return len(self.fields)

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True, slots=True)
class ValidationSpec:
    prelude: "hooks.HookScript | None" = None
    asp_program: str | None = None
    definitions: dict[str, UserDefinition] = field(default_factory=dict)


class SpecError(ValueError):
    """Raised by load_spec; carries every collected diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.message for d in diagnostics) or "invalid specification")


def _err(path: str, rule: str, message: str, symbol: str = "") -> SpecError:
    where = f"{path}: " if path else ""
    return SpecError([Diagnostic("spec-load", symbol, rule, f"{where}{message}")])


# ---------------------------------------------------------------------------
# YAML reading (order preserved by dict insertion; duplicates and keys that
# are not strings rejected)


class _DuplicateKey(yaml.YAMLError):
    def __init__(self, key, mark):
        self.key = key
        self.mark = mark
        super().__init__(f"duplicate key {key!r}")


class _StrictLoader(yaml.SafeLoader):
    pass


def _construct_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if not isinstance(key, str):  # every key is a name; str() would make .inf "inf"
            raise yaml.constructor.ConstructorError(
                None, None, "found a mapping key that is not a string", key_node.start_mark)
        if key in mapping:
            raise _DuplicateKey(key, key_node.start_mark)
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


def _construct_int(loader, node):
    try:
        return loader.construct_yaml_int(node)
    except ValueError:
        raise yaml.constructor.ConstructorError(
            None, None, integer_too_long(), node.start_mark) from None


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping)
_StrictLoader.add_constructor("tag:yaml.org,2002:int", _construct_int)


# ---------------------------------------------------------------------------
# Facets


def normalize_facets(raw: dict, declared_type: "PrimitiveType | str", *,
                     path: str = "") -> Facets:
    """Apply facet defaults and sugar; reject facets illegal for the type."""
    if isinstance(declared_type, PrimitiveType):
        legal = _FACETS_BY_TYPE[declared_type]
        type_name = declared_type.value
    else:
        legal = _USER_TYPE_FACETS
        type_name = declared_type
    for key in raw:
        if key not in {"enum", "min", "max", "pattern", "count", "sum+", "sum-"}:
            raise _err(f"{path}.{key}", "unknown-facet", f"unknown facet {key!r}")
        if key not in legal:
            raise _err(f"{path}.{key}", "unknown-facet",
                       f"facet {key!r} is not allowed on type {type_name}")

    min_ = _facet_int(raw.get("min"), f"{path}.min")
    max_ = _facet_int(raw.get("max"), f"{path}.max")
    if declared_type is PrimitiveType.INTEGER:
        min_ = INT32_MIN if min_ is None else min_
        max_ = INT32_MAX if max_ is None else max_

    pattern = raw.get("pattern")
    if pattern is not None:
        if not isinstance(pattern, str):
            raise _err(f"{path}.pattern", "facet-value", "pattern must be a string")
        try:
            re.compile(pattern)
        except re.error as exc:
            raise _err(f"{path}.pattern", "facet-value",
                       f"malformed pattern: {exc}") from exc

    enum_values = None
    if "enum" in raw:
        values = raw["enum"]
        if not isinstance(values, list):
            raise _err(f"{path}.enum", "facet-value", "enum must be a list")
        assert isinstance(declared_type, PrimitiveType)
        enum_values = tuple(
            _enum_term(v, declared_type, f"{path}.enum") for v in values)

    return Facets(
        enum_values=enum_values,
        min=min_,
        max=max_,
        pattern=pattern,
        count=_normalize_count(raw.get("count"), f"{path}.count"),
        sum_pos=_normalize_sum(raw.get("sum+"), f"{path}.sum+", positive=True),
        sum_neg=_normalize_sum(raw.get("sum-"), f"{path}.sum-", positive=False),
    )


def _facet_int(value, path: str) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, "facet-value", "expected an integer")
    return value


def _enum_term(value, declared_type: PrimitiveType, path: str) -> GroundTerm:
    """Interpret one enum entry; the field's declared type breaks YAML ties."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _err(path, "facet-value", f"enum value {value!r} is not a ground term")
    if isinstance(value, int):
        return Number(value)
    if declared_type is PrimitiveType.STRING:
        return Str(value)
    try:
        return parse_term(value)
    except TermParseError:
        # Kept as a string so check_spec reports the kind mismatch.
        return Str(value)


def _bounds(value: dict, path: str, facet: str, default: tuple) -> tuple:
    """A {min, max} mapping's bounds; a missing one is default's."""
    extra = set(value) - {"min", "max"}
    if extra:
        raise _err(path, "facet-value", f"unknown {facet} keys {sorted(extra)}")
    lo = _facet_int(value.get("min"), f"{path}.min")
    hi = _facet_int(value.get("max"), f"{path}.max")
    return (default[0] if lo is None else lo, default[1] if hi is None else hi)


def _normalize_count(value, path: str) -> tuple[int, int | None] | None:
    if value is None:
        return None
    if isinstance(value, bool):
        raise _err(path, "facet-value", "count must be an integer or {min,max}")
    if isinstance(value, int):
        return (value, value)
    if isinstance(value, dict):
        return _bounds(value, path, "count", (0, None))
    raise _err(path, "facet-value", "count must be an integer or {min,max}")


def _normalize_sum(value, path: str, *, positive: bool) -> tuple[int, int] | None:
    if value is None:
        return None
    default = (0, INT32_MAX) if positive else (INT32_MIN, 0)
    if value == "Integer":
        return default
    if isinstance(value, bool):
        raise _err(path, "facet-value", "expected Integer, an integer bound or {min,max}")
    if isinstance(value, int):
        # A bare bound tightens the side a sum can actually grow toward.
        return (0, value) if positive else (value, 0)
    if isinstance(value, dict):
        return _bounds(value, path, "sum", default)
    raise _err(path, "facet-value", "expected Integer, an integer bound or {min,max}")


# ---------------------------------------------------------------------------
# Structural parsing


def parse_spec(yaml_text: str) -> ValidationSpec:
    """Build a spec from YAML without semantic checking (see check_spec)."""
    try:
        doc = yaml.load(yaml_text, Loader=_StrictLoader)
    except _DuplicateKey as exc:
        raise SpecError([Diagnostic(
            "spec-load", "", "duplicate-field",
            f"duplicate key {exc.key!r} at line {exc.mark.line + 1}")]) from exc
    except yaml.YAMLError as exc:
        raise _err("", "facet-value", f"not valid YAML: {exc}") from exc
    except RecursionError:
        raise _err("", "facet-value", "not valid YAML: nested too deeply") from None

    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise _err("", "facet-value", "the specification must be a YAML mapping")

    prelude = None
    asp_program = None
    definitions: dict[str, UserDefinition] = {}

    for key, value in doc.items():
        if key == RESERVED_KEY:
            prelude, asp_program = _parse_global_block(value)
        else:
            definitions[key] = _parse_definition(key, value)

    return ValidationSpec(prelude=prelude, asp_program=asp_program,
                          definitions=definitions)


def _parse_global_block(value):
    if not isinstance(value, dict):
        raise _err(RESERVED_KEY, "facet-value", "the valasp block must be a mapping")
    unknown = set(value) - {"script", "python", "asp"}
    if unknown:
        raise _err(RESERVED_KEY, "facet-value",
                   f"unknown keys in the valasp block: {sorted(unknown)}")
    if "script" in value and "python" in value:
        raise _err(RESERVED_KEY, "facet-value", "give either script or python, not both")

    prelude = None
    if "script" in value or "python" in value:
        key = "script" if "script" in value else "python"
        text = value[key]
        if not isinstance(text, str):
            raise _err(f"{RESERVED_KEY}.{key}", "facet-value",
                       "the prelude must be a text block")
        prelude = _parse_hook(text, f"{RESERVED_KEY}.{key}",
                              hint=_PYTHON_HINT if key == "python" else "")

    asp_program = value.get("asp")
    if asp_program is not None and not isinstance(asp_program, str):
        raise _err(f"{RESERVED_KEY}.asp", "facet-value", "asp must be a text block")
    return prelude, asp_program


def _parse_hook(text: str, where: str, symbol: str = "",
                hint: str = "") -> "hooks.HookScript | None":
    """The script of a hook; None, no hook, if it has no statements."""
    try:
        script = hooks.parse_script(text)
    except hooks.ScriptSyntaxError as exc:
        raise _err(where, "script-syntax", f"{exc}{hint}", symbol=symbol) from exc
    return script if script.statements else None


def _parse_definition(symbol: str, value) -> UserDefinition:
    if not IDENT_RE.match(symbol):
        raise _err(symbol, "facet-value",
                   f"{symbol!r} is not a valid predicate name")
    if not isinstance(value, dict):
        raise _err(symbol, "facet-value", "a definition must be a mapping of fields")

    fields: list[FieldDecl] = []
    having: tuple[HavingComparison, ...] = ()
    hooks_block: dict[str, "hooks.HookScript | None"] = {
        "before_grounding": None, "after_init": None, "after_grounding": None}

    for key, entry in value.items():
        if key == RESERVED_KEY:
            if not isinstance(entry, dict):
                raise _err(f"{symbol}.{RESERVED_KEY}", "reserved-name",
                           f"{RESERVED_KEY!r} is reserved and cannot be a field name",
                           symbol=symbol)
            having, hooks_block = _parse_symbol_block(symbol, entry)
            continue
        fields.append(_parse_field(symbol, key, entry))

    if not fields:
        raise _err(symbol, "facet-value", "a definition needs at least one field",
                   symbol=symbol)

    return UserDefinition(
        symbol=symbol,
        fields=tuple(fields),
        having=having,
        before_grounding=hooks_block["before_grounding"],
        after_init=hooks_block["after_init"],
        after_grounding=hooks_block["after_grounding"],
    )


def _parse_symbol_block(symbol: str, block: dict):
    unknown = set(block) - {"having", "before_grounding", "after_init", "after_grounding"}
    if unknown:
        raise _err(f"{symbol}.{RESERVED_KEY}", "facet-value",
                   f"unknown keys: {sorted(unknown)}", symbol=symbol)

    items = block.get("having")
    if items is not None and not isinstance(items, list):
        raise _err(f"{symbol}.{RESERVED_KEY}.having", "facet-value", "having must be a list",
                   symbol=symbol)
    having: list[HavingComparison] = []
    for item in items or []:
        if not isinstance(item, str):
            raise _err(f"{symbol}.{RESERVED_KEY}.having", "facet-value",
                       f"{item!r} is not a comparison", symbol=symbol)
        m = _HAVING_RE.match(item)
        if not m:
            raise _err(f"{symbol}.{RESERVED_KEY}.having", "facet-value",
                       f"{item!r} is not of the form 'field OP field'", symbol=symbol)
        having.append(HavingComparison(m.group(1), m.group(2), m.group(3)))

    parsed: dict[str, "hooks.HookScript | None"] = {}
    for key in ("before_grounding", "after_init", "after_grounding"):
        text = block.get(key)
        where = f"{symbol}.{RESERVED_KEY}.{key}"
        if text is not None and not isinstance(text, str):
            raise _err(where, "facet-value", "hook bodies must be text blocks", symbol=symbol)
        parsed[key] = None if text is None else _parse_hook(text, where, symbol)
    return tuple(having), parsed


_PRIMITIVES = {t.value: t for t in PrimitiveType}


def _parse_field(symbol: str, name: str, entry) -> FieldDecl:
    path = f"{symbol}.{name}"
    if not IDENT_RE.match(name):
        raise _err(path, "facet-value", f"{name!r} is not a valid field name",
                   symbol=symbol)

    if isinstance(entry, str):
        entry = {"type": entry}
    if not isinstance(entry, dict):
        raise _err(path, "facet-value",
                   "a field is declared as 'name: Type' or a mapping with a type key",
                   symbol=symbol)
    if "type" not in entry:
        raise _err(path, "facet-value", "missing type", symbol=symbol)

    type_name = entry["type"]
    if not isinstance(type_name, str):
        raise _err(f"{path}.type", "facet-value", "type must be a name", symbol=symbol)
    if type_name in _PRIMITIVES:
        declared: "PrimitiveType | str" = _PRIMITIVES[type_name]
    elif IDENT_RE.match(type_name):
        declared = type_name
    else:
        raise _err(f"{path}.type", "unknown-type",
                   f"{type_name!r} is neither a primitive type nor a symbol name",
                   symbol=symbol)

    raw_facets = {k: v for k, v in entry.items() if k != "type"}
    facets = normalize_facets(raw_facets, declared, path=path)
    return FieldDecl(name=name, type=declared, facets=facets)


# ---------------------------------------------------------------------------
# Semantic checking


def check_spec(spec: ValidationSpec) -> list[Diagnostic]:
    """Return every semantic problem; an empty list means the spec is usable."""
    diags: list[Diagnostic] = []

    for symbol, definition in spec.definitions.items():
        names = definition.field_names()
        for f in definition.fields:
            if isinstance(f.type, str) and f.type not in spec.definitions:
                diags.append(Diagnostic(
                    "spec-load", symbol, "unknown-type",
                    f"{symbol}.{f.name}: unknown type reference {f.type!r}"))
            diags.extend(_check_enum_kinds(symbol, f))
            diags.extend(_check_facet_bounds(symbol, f))
        for cmp in definition.having:
            for side in (cmp.lhs, cmp.rhs):
                if side not in names:
                    diags.append(Diagnostic(
                        "spec-load", symbol, "having-field",
                        f"{symbol}: having {cmp} names unknown field {side!r}"))

    diags.extend(_check_type_cycles(spec))
    return diags


def _check_enum_kinds(symbol: str, f: FieldDecl) -> list[Diagnostic]:
    expected = TERM_CLASSES.get(f.type)
    if f.facets.enum_values is None or expected is None:
        return []
    out = []
    for value in f.facets.enum_values:
        if not isinstance(value, expected):
            out.append(Diagnostic(
                "spec-load", symbol, "enum-type",
                f"{symbol}.{f.name}: enum value {render(value)} does not"
                f" match type {f.type.value}"))
    return out


def _check_facet_bounds(symbol: str, f: FieldDecl) -> list[Diagnostic]:
    out = []
    fx = f.facets
    where = f"{symbol}.{f.name}"
    if fx.min is not None and fx.max is not None and fx.min > fx.max:
        out.append(Diagnostic("spec-load", symbol, "facet-bounds",
                              f"{where}: min {fx.min} exceeds max {fx.max}"))
    if fx.count is not None:
        lo, hi = fx.count
        if lo < 0 or (hi is not None and hi < 0):
            out.append(Diagnostic("spec-load", symbol, "facet-bounds",
                                  f"{where}: count bounds must be non-negative"))
        elif hi is not None and lo > hi:
            out.append(Diagnostic("spec-load", symbol, "facet-bounds",
                                  f"{where}: count min {lo} exceeds max {hi}"))
    for label, bounds in (("sum+", fx.sum_pos), ("sum-", fx.sum_neg)):
        if bounds is not None and bounds[0] > bounds[1]:
            out.append(Diagnostic("spec-load", symbol, "facet-bounds",
                                  f"{where}: {label} min {bounds[0]} exceeds"
                                  f" max {bounds[1]}"))
    return out


def _check_type_cycles(spec: ValidationSpec) -> list[Diagnostic]:
    """Report each cycle of user types, then each chain of too many of them.

    A cycle is shown once per component of the reference graph, from its
    least member, as stratify shows a rule cycle.  A chain of more than
    MAX_NESTING is reported at every definition that no other one references.
    """
    graph = {
        symbol: [f.type for f in definition.fields
                 if isinstance(f.type, str) and f.type in spec.definitions]
        for symbol, definition in spec.definitions.items()
    }
    depth: dict[str, int] = {}
    diags: list[Diagnostic] = []
    for scc in _tarjan(graph):  # each component after those it references
        for node in scc:
            depth[node] = 1 + max((depth.get(s, 0) for s in graph[node]), default=0)
        start = min(scc)
        if len(scc) > 1 or start in graph[start]:
            cycle = [start] + _path(graph, next(s for s in graph[start] if s in scc), start)
            diags.append(Diagnostic(
                "spec-load", start, "type-cycle",
                f"cyclic type reference: {' -> '.join(cycle)}"))
    referenced = {succ for succs in graph.values() for succ in succs}
    for symbol in graph:
        if symbol not in referenced and depth[symbol] > MAX_NESTING:
            diags.append(Diagnostic(
                "spec-load", symbol, "type-depth",
                f"user types nested more than {MAX_NESTING} levels deep"))
    return diags


def load_spec(yaml_text: str) -> ValidationSpec:
    """Parse and fully check a specification; raise SpecError on any defect."""
    spec = parse_spec(yaml_text)
    diagnostics = check_spec(spec)
    if diagnostics:
        raise SpecError(diagnostics)
    return spec
