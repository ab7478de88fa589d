"""Shared fixtures, random generators and independent oracles.

The oracles here deliberately avoid the library's evaluation code paths:
the fixpoint oracle works on its own rule representation, connectivity is
breadth-first search, and partial-order checking is brute-force
quantification.  Tests compare library output against these.
"""

from __future__ import annotations

import random
from pathlib import Path

from aspcheck.schema import ValidationSpec, load_spec
from aspcheck.terms import Const, Func, Number, Str, Tuple

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> ValidationSpec:
    return load_spec((FIXTURES / name).read_text(encoding="utf-8"))


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Random ground terms (fixed-count sampling; hypothesis covers the rest)


def random_term(rng: random.Random, depth: int = 3):
    choices = ["number", "const", "str"]
    if depth > 0:
        choices += ["func", "tuple"]
    kind = rng.choice(choices)
    if kind == "number":
        return Number(rng.randint(-10**6, 10**6))
    if kind == "const":
        return Const(rng.choice(["a", "b", "abc", "a1", "zz_z", "q"]))
    if kind == "str":
        return Str(rng.choice(["", "a", "Acme ASP", 'quo"te', "back\\slash", "x y"]))
    if kind == "func":
        name = rng.choice(["f", "g", "date", "h2"])
        args = tuple(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return Func(name, args)
    args = tuple(random_term(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return Tuple(args)


def compare_terms(a, b) -> int:
    """-1, 0 or 1 by the ASP term order, written out case by case.

    Numbers < constants < strings < tuples < functions; numbers compare by
    value, constants and strings by text, tuples by length and then their
    items, functions by arity, then name, then arguments.
    """
    kinds = [Number, Const, Str, Tuple, Func]
    ka, kb = kinds.index(type(a)), kinds.index(type(b))
    if ka != kb:
        return -1 if ka < kb else 1
    if isinstance(a, Number):
        pair = (a.value, b.value)
    elif isinstance(a, Const):
        pair = (a.name, b.name)
    elif isinstance(a, Str):
        pair = (a.value, b.value)
    elif len(a.args) != len(b.args):
        pair = (len(a.args), len(b.args))
    elif isinstance(a, Func) and a.name != b.name:
        pair = (a.name, b.name)
    else:
        for x, y in zip(a.args, b.args):
            c = compare_terms(x, y)
            if c:
                return c
        return 0
    return (pair[0] > pair[1]) - (pair[0] < pair[1])


# ---------------------------------------------------------------------------
# Random stratified programs with an independent naive-fixpoint oracle
#
# A generated program is a list of layers; layer 0 holds ground facts, and
# every rule in layer k uses positive atoms from layers <= k and negated
# atoms from layers strictly below.  That shape is stratified by
# construction, and the oracle can evaluate it layer by layer without ever
# computing strata itself.


class GenRule:
    __slots__ = ("head", "pos", "neg", "cmp")

    def __init__(self, head, pos, neg, cmp=()):
        self.head = head  # (pred, args); args are var names or int constants
        self.pos = pos  # list of (pred, args)
        self.neg = neg  # list of (pred, args), all vars bound by pos or cmp
        # (op, left, right), each side a var name or an int; an "=" with a
        # var that is not bound before it binds that var.
        self.cmp = cmp


class GenProgram:
    __slots__ = ("facts", "rules")

    def __init__(self, facts, rules):
        self.facts = facts  # set of (pred, args-with-int-constants)
        self.rules = rules  # list of (layer, GenRule)


_VARS = ["X", "Y", "Z", "W"]


def generate_program(rng: random.Random, *, max_rules: int = 8,
                     domain: int = 6, allow_negation: bool = True,
                     join_shapes: bool = False, comparisons: bool = False) -> GenProgram:
    """A random layered program.

    With join_shapes, body atoms also take integer constants, and about
    half of the rules join a predicate with itself.  With comparisons,
    rules also hold up to three comparisons: `<`, `!=`, and `=` that binds
    a new variable.  Off, the random draws (and so the programs for a given
    seed) are those of the plain shape.
    """
    edb = [("e0", rng.choice([1, 2])), ("e1", rng.choice([1, 2]))]
    idb = [(f"p{i}", rng.choice([1, 2])) for i in range(rng.randint(1, 3))]
    layer_of = {name: 0 for name, _ in edb}
    for name, _ in idb:
        layer_of[name] = rng.randint(1, 3)

    facts = set()
    for name, arity in edb:
        for _ in range(rng.randint(0, 6)):
            facts.add((name, tuple(rng.randint(1, domain) for _ in range(arity))))

    arity_of = dict(edb + idb)
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head_pred = rng.choice([name for name, _ in idb])
        k = layer_of[head_pred]
        same_or_lower = [p for p in arity_of if layer_of[p] <= k]
        strictly_lower = [p for p in arity_of if layer_of[p] < k]

        pos = []
        bound = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(same_or_lower)
            args = tuple(rng.choice(_VARS[: rng.randint(2, 4)])
                         for _ in range(arity_of[pred]))
            if join_shapes:
                args = _with_constants(rng, args, domain)
            pos.append((pred, args))
            bound.extend(a for a in args if isinstance(a, str))
        if join_shapes and rng.random() < 0.5:
            pred = rng.choice(pos)[0]
            args = _with_constants(rng, tuple(rng.choice(_VARS)
                                              for _ in range(arity_of[pred])), domain)
            pos.insert(rng.randint(0, len(pos)), (pred, args))
            bound.extend(a for a in args if isinstance(a, str))
        if not bound:
            continue
        cmp = _comparisons(rng, bound, domain) if comparisons else ()

        neg = []
        if allow_negation and strictly_lower and rng.random() < 0.5:
            pred = rng.choice(strictly_lower)
            args = tuple(rng.choice(bound) for _ in range(arity_of[pred]))
            neg.append((pred, args))

        head_args = tuple(
            rng.choice(bound) if rng.random() < 0.8 else rng.randint(1, domain)
            for _ in range(arity_of[head_pred]))
        rules.append((k, GenRule((head_pred, head_args), pos, neg, cmp)))
    return GenProgram(facts, rules)


def _comparisons(rng: random.Random, bound: list, domain: int) -> list:
    """Up to three comparisons over bound; a binding "=" extends bound."""
    out = []
    for i in range(rng.randint(0, 3)):
        op = rng.choice(["<", "!=", "="])
        left = rng.choice(bound)
        right = rng.choice(bound) if rng.random() < 0.6 else rng.randint(1, domain)
        if op == "=" and rng.random() < 0.8:
            fresh = f"V{i}"
            left, right = (fresh, left) if rng.random() < 0.5 else (left, fresh)
            bound.append(fresh)
        out.append((op, left, right))
    return out


def _with_constants(rng: random.Random, args: tuple, domain: int) -> tuple:
    return tuple(rng.randint(1, domain) if rng.random() < 0.25 else a for a in args)


def render_program(program: GenProgram) -> str:
    """The generated program as rule text for the library's parser."""
    def atom(item):
        pred, args = item
        if not args:
            return pred
        shown = ",".join(str(a) for a in args)
        return f"{pred}({shown})"

    lines = [atom(f) + "." for f in sorted(program.facts)]
    for _, rule in program.rules:
        # Comparisons come first, so the planner must move them after the
        # atoms that bind their variables.
        body = [f"{left} {op} {right}" for op, left, right in rule.cmp]
        body += [atom(p) for p in rule.pos] + [f"not {atom(n)}" for n in rule.neg]
        lines.append(f"{atom(rule.head)} :- {', '.join(body)}.")
    return "\n".join(lines)


def naive_fixpoint(program: GenProgram) -> set[tuple]:
    """Layer-by-layer naive evaluation; recomputes every rule until stable."""
    database: set[tuple] = set(program.facts)
    max_layer = max((k for k, _ in program.rules), default=0)
    for layer in range(1, max_layer + 1):
        layer_rules = [r for k, r in program.rules if k == layer]
        changed = True
        while changed:
            changed = False
            for rule in layer_rules:
                for binding in _oracle_match(rule.pos, 0, {}, database):
                    binding = _oracle_compare(rule.cmp, binding)
                    if binding is None:
                        continue
                    if any((n[0], _oracle_ground(n[1], binding)) in database
                           for n in rule.neg):
                        continue
                    derived = (rule.head[0], _oracle_ground(rule.head[1], binding))
                    if derived not in database:
                        database.add(derived)
                        changed = True
    return database


def _oracle_compare(cmp, binding):
    """The binding extended by each binding "=", or None if a comparison fails."""
    binding = dict(binding)
    for op, left, right in cmp:
        if op == "=" and isinstance(left, str) and left not in binding:
            binding[left] = _oracle_value(right, binding)
        elif op == "=" and isinstance(right, str) and right not in binding:
            binding[right] = _oracle_value(left, binding)
        else:
            a, b = _oracle_value(left, binding), _oracle_value(right, binding)
            if not (a < b if op == "<" else a != b if op == "!=" else a == b):
                return None
    return binding


def _oracle_value(item, binding):
    return binding[item] if isinstance(item, str) else item


def _oracle_ground(args, binding):
    return tuple(binding[a] if isinstance(a, str) else a for a in args)


def _oracle_match(pos, i, binding, database):
    if i == len(pos):
        yield binding
        return
    pred, args = pos[i]
    for entry_pred, entry_args in list(database):
        if entry_pred != pred or len(entry_args) != len(args):
            continue
        new_binding = dict(binding)
        ok = True
        for pattern, value in zip(args, entry_args):
            if isinstance(pattern, str):
                if pattern in new_binding and new_binding[pattern] != value:
                    ok = False
                    break
                new_binding[pattern] = value
            elif pattern != value:
                ok = False
                break
        if ok:
            yield from _oracle_match(pos, i + 1, new_binding, database)


def model_as_tuples(facts) -> set[tuple]:
    """Library facts (integer arguments) as plain (pred, ints) tuples."""
    out = set()
    for f in facts:
        out.add((f.predicate, tuple(a.value for a in f.args)))
    return out


# ---------------------------------------------------------------------------
# Graph and order-relation oracles


def bfs_connected(nodes: set[int], edges: set[tuple[int, int]]) -> bool:
    """Everything reachable from the minimum node along directed edges?"""
    if not nodes:
        return True
    start = min(nodes)
    seen = {start}
    queue = [start]
    while queue:
        current = queue.pop()
        for a, b in edges:
            if a == current and b not in seen:
                seen.add(b)
                queue.append(b)
    return seen == nodes


def reachable_pairs(edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """(a, b) for every b reached from a along one or more directed edges."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    pairs = set()
    for start in succ:
        seen: set[int] = set()
        queue = list(succ[start])
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(succ.get(current, ()))
        pairs.update((start, b) for b in seen)
    return pairs


def is_poset(pairs: set[tuple]) -> bool:
    """Reflexive, symmetric and transitive over the elements that occur."""
    elements = {x for pair in pairs for x in pair}
    if not all((x, x) in pairs for x in elements):
        return False
    if not all((y, x) in pairs for (x, y) in pairs):
        return False
    return all((x, z) in pairs
               for (x, y) in pairs for (y2, z) in pairs if y == y2)


def proleptic_gregorian_valid(year: int, month: int, day: int) -> bool:
    """Hand-rolled calendar oracle, independent of the library's check."""
    if not (1 <= year <= 9999 and 1 <= month <= 12):
        return False
    lengths = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if month == 2 and leap:
        return 1 <= day <= 29
    return 1 <= day <= lengths[month - 1]
