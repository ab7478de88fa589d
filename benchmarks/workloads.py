"""Seeded workload generators and the oracle that judges aspcheck's output.

Nothing here imports aspcheck: every expectation is computed directly from
the generated data, so a defect in aspcheck cannot hide in its own oracle.

Each generator returns a ``Workload``: the specification text, the data
text, the extra command-line flags, and the expected result.  An expected
result is either a verdict text (stdout of ``--format text``) or a multiset
of ``(phase, symbol, rule, instance)`` diagnostics (``--format jsonl``),
plus the exit code.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

INT32_MAX = 2**31 - 1

# The paper's headline specification (the 32-bit sum guard).
INCOME_SPEC = """\
income:
    company: String
    amount:
        type: Integer
        min: 0
        sum+: Integer
"""

# The paper's knight-tour specification: __in_range atoms are derived by
# non-recursive rules, checked per instance, snapshotted by after_init and
# bound-checked once per snapshot by after_grounding.
KNIGHT_SPEC = """\
valasp:
    asp: |+
        __in_range(X1, givenmove(X1,Y1,X2,Y2)) :- givenmove(X1,Y1,X2,Y2).
        __in_range(Y1, givenmove(X1,Y1,X2,Y2)) :- givenmove(X1,Y1,X2,Y2).
        __in_range(X2, givenmove(X1,Y1,X2,Y2)) :- givenmove(X1,Y1,X2,Y2).
        __in_range(Y2, givenmove(X1,Y1,X2,Y2)) :- givenmove(X1,Y1,X2,Y2).

        __in_range(X1, move(X1,Y1,X2,Y2)) :- move(X1,Y1,X2,Y2).
        __in_range(Y1, move(X1,Y1,X2,Y2)) :- move(X1,Y1,X2,Y2).
        __in_range(X2, move(X1,Y1,X2,Y2)) :- move(X1,Y1,X2,Y2).
        __in_range(Y2, move(X1,Y1,X2,Y2)) :- move(X1,Y1,X2,Y2).

size:
    value:
        type: Integer
        min: 6
        max: 100
        count: 1
    valasp:
        after_init: |+
            if self.value % 2 != 0: fail('Size must be an even number')
            cls.board_size = self.value

__in_range:
    x:
        type: Integer
        min: 1
    source: Any
    valasp:
        after_init: |+
            append_snapshot()
        after_grounding: |+
            if self.x > cls.board_size:
                fail('Value out of bound in {self.source}: {self.x}')
"""

CLOSURE_SPEC = """\
valasp:
    asp: |+
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- path(X,Y), edge(Y,Z).

path:
    source:
        type: Integer
        min: 0
        count: {count}
    target:
        type: Integer
        min: 0
"""

KNIGHT_SHAPES = ((1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2), (2, -1), (-1, -2), (-2, -1))


@dataclass
class Workload:
    spec: str
    data: str
    flags: list[str]
    exit_code: int
    # Exactly one of the two is set: the text-format stdout, or the jsonl
    # diagnostics as a multiset of (phase, symbol, rule, instance).
    stdout: str | None = None
    diagnostics: list[tuple[str, str, str, str | None]] | None = None
    notes: dict = field(default_factory=dict)

    def expectation(self) -> dict:
        return {"exit_code": self.exit_code, "stdout": self.stdout,
                "diagnostics": self.diagnostics}


def income(rng: random.Random, n: int = 100_000) -> Workload:
    """n distinct income facts with amounts in [0, 1000): valid by construction."""
    order = list(range(n))
    rng.shuffle(order)
    amounts = {i: rng.randrange(1000) for i in order}
    total = sum(amounts.values())
    if total > INT32_MAX:  # cannot happen below 2 million facts
        raise ValueError("income workload would overflow its own sum+ facet")
    data = "".join(f'income("company{i}",{amounts[i]}).\n' for i in order)
    return Workload(INCOME_SPEC, data, [], 0, stdout="valid\n",
                    notes={"facts": n, "sum": total})


def closure(rng: random.Random, n_edges: int = 200, count_delta: int = 0) -> Workload:
    """A seeded permutation of n_edges+1 node ids laid out as an edge chain.

    The spec's count facet on path/2 carries the oracle's closure size; the
    CLI's own verdict checks it.  count_delta != 0 plants a wrong count
    (used only by the harness self-test).
    """
    nodes = list(range(n_edges + 1))
    rng.shuffle(nodes)
    edges = list(zip(nodes, nodes[1:]))
    succ = dict(edges)
    pairs = 0
    for start in nodes:  # walk each chain suffix: independent of n(n+1)/2
        node = succ.get(start)
        while node is not None:
            pairs += 1
            node = succ.get(node)
    if pairs != n_edges * (n_edges + 1) // 2:
        raise AssertionError("closure oracle disagrees with n(n+1)/2")
    rng.shuffle(edges)
    data = "".join(f"edge({a},{b}).\n" for a, b in edges)
    spec = CLOSURE_SPEC.format(count=pairs + count_delta)
    return Workload(spec, data, [], 0, stdout="valid\n",
                    notes={"edges": n_edges, "paths": pairs})


def _knight_move(rng: random.Random, bad: str | None, size: int) -> tuple[int, int, int, int]:
    dx, dy = rng.choice(KNIGHT_SHAPES)
    deltas = [dx, dy]
    start = [0, 0]
    for axis, d in enumerate(deltas):
        start[axis] = rng.randint(max(1, 1 - d), min(size, size - d))
    if bad is not None:
        axis = rng.randrange(2)
        d = deltas[axis]
        if bad == "zero":  # the target coordinate lands exactly on 0
            if d > 0:
                d = deltas[axis] = -d
            start[axis] = -d
        else:  # the target coordinate lands just past the board
            if d < 0:
                d = deltas[axis] = -d
            start[axis] = rng.randint(size + 1 - d, size)
    x1, y1 = start
    x2, y2 = x1 + deltas[0], y1 + deltas[1]
    if rng.random() < 0.5:  # reverse, so bad coordinates appear at either end
        x1, y1, x2, y2 = x2, y2, x1, y1
    return x1, y1, x2, y2


def knight(rng: random.Random, n_moves: int = 10_000, size: int = 100,
           bad_rate: float = 0.02) -> Workload:
    """Distinct knight moves on a size x size board, about bad_rate of them off it.

    Expected diagnostics, one per distinct coordinate value of a move: a
    value below 1 fails the ``min: 1`` facet (instance/min), a value above
    the board fails the after_grounding hook (after/hook-fail).
    """
    moves: set[tuple[int, int, int, int]] = set()
    n_bad = max(1, round(n_moves * bad_rate))
    while len(moves) < n_bad:
        moves.add(_knight_move(rng, rng.choice(("zero", "over")), size))
    while len(moves) < n_moves:
        moves.add(_knight_move(rng, None, size))
    ordered = sorted(moves)
    rng.shuffle(ordered)

    diagnostics = []
    in_range = 0
    for move in ordered:
        source = "move({},{},{},{})".format(*move)
        for value in set(move):
            in_range += 1
            instance = f"__in_range({value},{source})"
            if value < 1:
                diagnostics.append(("instance", "__in_range", "min", instance))
            elif value > size:
                diagnostics.append(("after", "__in_range", "hook-fail", instance))
    lines = [f"size({size}).\n"]
    lines.extend("move({},{},{},{}).\n".format(*m) for m in ordered)
    return Workload(KNIGHT_SPEC, "".join(lines),
                    ["--all-errors", "--format", "jsonl"], 1,
                    diagnostics=sorted(diagnostics, key=repr),
                    notes={"moves": n_moves, "in_range_atoms": in_range,
                           "diagnostics": len(diagnostics)})


# name -> (generator, full-size kwargs, miniature kwargs for the self-test)
WORKLOADS = {
    "income-100k": (income, {"n": 100_000}, {"n": 1000}),
    "closure-200": (closure, {"n_edges": 200}, {"n_edges": 20}),
    "knight-errors": (knight, {"n_moves": 10_000}, {"n_moves": 400}),
}


def workload_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def generate(name: str, seed: int, *, mini: bool = False) -> Workload:
    generator, full, small = WORKLOADS[name]
    return generator(workload_rng(name, seed), **(small if mini else full))


def tampered(name: str, seed: int) -> Workload:
    """A miniature of the workload whose expectation is deliberately wrong.

    closure: the oracle's count is off by one; knight: one expected
    diagnostic is dropped; income: the expected verdict is flipped.
    """
    if name == "closure-200":
        return closure(workload_rng(name, seed), count_delta=1, **WORKLOADS[name][2])
    wl = generate(name, seed, mini=True)
    if name == "knight-errors":
        wl.diagnostics = wl.diagnostics[1:]
    else:
        wl.exit_code, wl.stdout = 1, "invalid\n"
    return wl


def check(expected: Workload, exit_code: int | None, stdout: str) -> str | None:
    """None when the output matches the oracle, else a one-line reason."""
    if exit_code != expected.exit_code:
        return f"exit code {exit_code}, expected {expected.exit_code}"
    if expected.stdout is not None:
        if stdout != expected.stdout:
            return f"stdout {stdout[:80]!r}, expected {expected.stdout[:80]!r}"
        return None
    got: Counter = Counter()
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            return f"not a jsonl record: {line[:80]!r}"
        got[(record["phase"], record["symbol"], record["rule"], record["instance"])] += 1
    want = Counter(expected.diagnostics)
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        return f"diagnostics differ: {missing} expected but missing, {extra} unexpected"
    return None
