"""Constraint-validator emission and the external grounder bridge.

Validation normally happens in-process, but a full program (choice rules,
disjunction, anything beyond the stratified fragment) can be grounded by an
external tool instead; the resulting atoms are fed back for engine-side
checking.  For users who integrate with a solver that supports interpreted
terms directly, render_validator_program writes the constraint validators
together with the auxiliary rules as a plain .lp program.
"""

from __future__ import annotations

import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .schema import ValidationSpec
from .terms import Fact, ParseError, parse_facts

__all__ = [
    "ConstraintValidator",
    "GrounderBridgeConfig",
    "BridgeError",
    "emit_constraint_validators",
    "render_validator_program",
    "ground_with_external",
]

VALIDATE_PREFIX = "valasp_validate_"


@dataclass(frozen=True, slots=True)
class ConstraintValidator:
    kind: str  # forward (arity 1) | implicit (arity >= 2)
    symbol: str
    arity: int
    text: str


@dataclass(frozen=True, slots=True)
class GrounderBridgeConfig:
    """How to invoke the external grounder.

    The program is piped to standard input unless an argument contains the
    placeholder ``{file}``, in which case it is written to a temporary file
    whose path is substituted.  The tool must print ground text on stdout.
    """

    command: tuple[str, ...]
    timeout: float = 60.0


class BridgeError(RuntimeError):
    pass


def class_style_name(symbol: str) -> str:
    """Capitalize the first lowercase letter (the validator class name)."""
    for i, ch in enumerate(symbol):
        if ch.islower():
            return symbol[:i] + ch.upper() + symbol[i + 1 :]
    return symbol


def emit_constraint_validators(spec: ValidationSpec) -> list[ConstraintValidator]:
    """One constraint per definition routing instances through validation."""
    out = []
    for symbol, definition in spec.definitions.items():
        n = definition.arity
        if n == 1:
            text = f":- {symbol}(X1), @{VALIDATE_PREFIX}{symbol}(X1) != 1."
            kind = "forward"
        else:
            xs = ",".join(f"X{i}" for i in range(1, n + 1))
            text = (f":- {symbol}({xs}),"
                    f" @{VALIDATE_PREFIX}{symbol}({symbol}({xs})) != 1.")
            kind = "implicit"
        out.append(ConstraintValidator(kind=kind, symbol=symbol, arity=n, text=text))
    return out


def render_validator_program(spec: ValidationSpec) -> str:
    """The exportable program: constraint validators plus auxiliary rules."""
    lines: list[str] = []
    for validator in emit_constraint_validators(spec):
        lines.append(f"% {validator.symbol}/{validator.arity}:"
                     f" {validator.kind} validator {class_style_name(validator.symbol)}")
        lines.append(validator.text)
    if spec.asp_program:
        if lines:
            lines.append("")
        lines.append("% auxiliary rules")
        lines.append(spec.asp_program.rstrip("\n"))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Bridge


def ground_with_external(program_text: str, config: GrounderBridgeConfig) -> set[Fact]:
    """Ground a program with the configured tool and collect its atoms.

    Accepted output lines are facts and fully-ground rule heads; directives,
    non-ground rules and anything else the dialect prints are ignored.
    """
    command: Sequence[str] = config.command
    if not command:
        raise BridgeError("empty grounder command")

    tmp = None
    stdin_text: str | None = program_text
    if any("{file}" in arg for arg in command):
        tmp = tempfile.NamedTemporaryFile("w", suffix=".lp", delete=False)
        tmp.write(program_text)
        tmp.close()
        command = [arg.replace("{file}", tmp.name) for arg in command]
        stdin_text = None

    try:
        proc = subprocess.run(
            list(command),
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=config.timeout,
        )
    except FileNotFoundError as exc:
        raise BridgeError(f"grounder not found: {command[0]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BridgeError(
            f"grounder timed out after {config.timeout} seconds") from exc
    finally:
        if tmp is not None:
            Path(tmp.name).unlink(missing_ok=True)

    if proc.returncode != 0:
        stderr = proc.stderr.strip()
        raise BridgeError(
            f"grounder exited with status {proc.returncode}"
            + (f": {stderr}" if stderr else ""))

    return _parse_ground_output(proc.stdout)


def _parse_ground_output(stdout: str) -> set[Fact]:
    atoms: set[Fact] = set()
    for line in stdout.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        try:
            atoms.update(parse_facts(line))
            continue
        except ParseError:
            pass
        if ":-" in line:
            head = line.split(":-", 1)[0].strip()
            if head:
                try:
                    atoms.update(parse_facts(head.rstrip(".") + "."))
                except ParseError:
                    pass
        # anything else (directives, choice lines, ...) is ignored
    return atoms
