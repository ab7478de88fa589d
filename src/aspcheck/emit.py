"""The external grounder bridge.

Validation normally happens in-process, but a full program (choice rules,
disjunction, anything beyond the stratified fragment) can be grounded by an
external tool instead; the resulting atoms are fed back for engine-side
checking.
"""

from __future__ import annotations

import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .datalog import _ProgramParser
from .terms import GROUND_TYPES, Fact, ParseError, parse_facts

__all__ = ["GrounderBridgeConfig", "BridgeError", "ground_with_external"]


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
    for line in stdout.split("\n"):  # not splitlines: a string may hold U+2028
        try:
            atoms.update(parse_facts(line))
        except ParseError:
            # A rule gives its head if that is ground; its body is never read.
            try:
                parser = _ProgramParser(line)
                head = parser.head_atom()
            except ParseError:  # directives, choice lines, constraints, ...
                continue
            if parser.cur.text == ":-" and all(isinstance(a, GROUND_TYPES) for a in head.args):
                atoms.add(Fact(head.pred, head.args))
    return atoms
