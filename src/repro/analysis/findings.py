"""Findings: the common currency of every analysis pass.

The purity checker, the law-falsification harness, and the repo lint all
report :class:`Finding` records; a :class:`AnalysisReport` aggregates them
and decides the exit status.  Severities:

* ``error`` — a contract violation; the CLI exits nonzero.
* ``warning`` — suspicious but not provably wrong.
* ``info`` — notes (unanalyzable sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Finding:
    """One analysis result, pointing at a rule and a location.

    ``rule`` is dotted and stable (e.g. ``purity.nondeterminism.time``,
    ``laws.associativity``, ``lint.span-hygiene``) so fixtures can assert
    that a specific rule fired and allowlists can target one rule.
    """

    rule: str
    message: str
    where: str
    line: int | None = None
    severity: str = ERROR

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def location(self) -> str:
        return f"{self.where}:{self.line}" if self.line is not None else self.where

    def render(self) -> str:
        return f"[{self.severity}] {self.rule} at {self.location()}: {self.message}"

    def sort_key(self) -> tuple:
        """Stable output order: location first, then rule, then message."""
        return (self.where, self.line if self.line is not None else -1,
                self.rule, self.message)


def finalize(findings: list[Finding]) -> list[Finding]:
    """Deterministic output: stable-sorted by (file, line, rule, message)
    and deduplicated.

    Every consumer-facing surface (CLI render, CI logs) goes through
    here so two runs over the same tree produce byte-equal reports.
    """
    seen: set[Finding] = set()
    unique: list[Finding] = []
    for finding in findings:
        if finding not in seen:
            seen.add(finding)
            unique.append(finding)
    return sorted(unique, key=Finding.sort_key)


@dataclass
class AnalysisReport:
    """An ordered collection of findings plus pass/fail semantics."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors()

    def finalized(self) -> list[Finding]:
        """The findings in deterministic output order, deduplicated."""
        return finalize(self.findings)

    def render(self, *, verbose: bool = False) -> str:
        """A human-readable summary; non-errors only shown when verbose.

        Rendering is deterministic: findings are deduplicated and sorted
        by location/rule, and the summary line counts the deduplicated
        set, so byte-equal trees render byte-equal reports.
        """
        final = self.finalized()
        errors = [f for f in final if f.severity == ERROR]
        shown = final if verbose else errors
        lines = [finding.render() for finding in shown]
        lines.append(
            f"{len(final)} finding(s), {len(errors)} error(s): "
            + ("FAIL" if errors else "OK")
        )
        return "\n".join(lines)
