"""Validation diagnostics and reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Diagnostic", "RunStats", "ValidationReport", "render_report"]

#: Diagnostic.rule values that mean the specification (or its execution
#: environment) is broken, as opposed to the data being invalid.
SPEC_QUALITY_RULES = frozenset({
    "reserved-name", "unknown-facet", "facet-value", "unknown-type", "type-cycle",
    "type-depth", "duplicate-field", "having-field", "script-syntax", "enum-type",
    "facet-bounds", "eval-error", "resource-limit", "asp-syntax", "bridge-error",
})


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One validation failure.

    phase: spec-load | before | instance | after
    rule:  machine-readable violation kind (wrong-arity, wrong-kind, enum,
           min, max, pattern, having, hook-fail, count, sum-pos, sum-neg,
           plus the spec-quality kinds in SPEC_QUALITY_RULES)
    """

    phase: str
    symbol: str
    rule: str
    message: str
    instance: str | None = None
    arity: int | None = None

    def render(self) -> str:
        head = self.symbol if self.arity is None else f"{self.symbol}/{self.arity}"
        line = f"{head}: {self.rule}: {self.message}"
        if self.instance is not None:
            line += f" [{self.instance}]"
        return line

    def to_record(self) -> dict:
        return {
            "phase": self.phase,
            "symbol": self.symbol,
            "arity": self.arity,
            "rule": self.rule,
            "message": self.message,
            "instance": self.instance,
        }


@dataclass(slots=True)
class RunStats:
    instances_checked: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0


@dataclass(slots=True)
class ValidationReport:
    verdict: str  # valid | invalid | spec-error
    diagnostics: list[Diagnostic]
    stats: RunStats = field(default_factory=RunStats)

    @classmethod
    def from_diagnostics(cls, diagnostics: list[Diagnostic],
                         stats: RunStats | None = None) -> "ValidationReport":
        if not diagnostics:
            verdict = "valid"
        elif any(d.rule in SPEC_QUALITY_RULES or d.phase == "spec-load"
                 for d in diagnostics):
            verdict = "spec-error"
        else:
            verdict = "invalid"
        return cls(verdict, diagnostics, stats or RunStats())


def render_report(report: ValidationReport, fmt: str = "text") -> str:
    """Render a report deterministically (wall time is never included)."""
    if fmt == "text":
        lines = [d.render() for d in report.diagnostics]
        lines.append(report.verdict)
        return "\n".join(lines)
    if fmt == "jsonl":
        return "\n".join(json.dumps(d.to_record(), sort_keys=True)
                         for d in report.diagnostics)
    raise ValueError(f"unknown report format {fmt!r}")
