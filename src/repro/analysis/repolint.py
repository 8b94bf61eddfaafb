"""Repo-internal lint rules: telemetry span hygiene and layering.

Four invariants are mechanical enough to lint:

``lint.span-hygiene``
    Every ``*.charge(...)`` call must be lexically inside a ``with
    ...span(...)`` block, so charged work is always attributed to an open
    span.  Helpers that deliberately charge into *their caller's* span
    (e.g. :func:`repro.core.partition.combine_partitions`, which runs
    under the tree's task span) declare so with a trailing marker comment
    ``# analysis: charge-in-caller-span`` on their ``def`` line — the
    contract is then documented at the definition site instead of being
    implicit.

``lint.bare-telemetry``
    ``Telemetry()`` constructed with no label creates an anonymous span
    tree that cannot be told apart in traces; only designated entry-point
    modules (the WorkMeter fallback and the telemetry package itself) may
    do that.  Everything else must pass a label or accept an injected
    backbone.

``lint.layering``
    ``repro.core`` is the substrate every layer builds on: trees, memo
    tables, plans, the task-graph IR.  It must never import the layers
    above it (``repro.slider``, ``repro.cluster``) — an upward import
    would let engine details leak back into the substrate and recreate
    the god-module this package split apart.

``lint.module-size``
    No source module may exceed :data:`MAX_MODULE_LINES` lines.  Modules
    that grow past the cap get split by concern (as ``slider/system.py``
    and ``cluster/executor.py`` were), not waived.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import ERROR, Finding

#: Marker comment allowing a function to charge into its caller's span.
CALLER_SPAN_MARKER = "analysis: charge-in-caller-span"

#: Module paths (relative to the package root) allowed to build Telemetry()
#: without a label.
BARE_TELEMETRY_ENTRY_POINTS = (
    "metrics.py",
    "telemetry/",
)

#: Functions implementing the charge verb itself are exempt from the rule.
_CHARGE_IMPLEMENTATIONS = {"charge"}

#: Hard cap on source-module length, in physical lines.
MAX_MODULE_LINES = 500

#: Layering: modules whose path starts with a key may not import any
#: module whose dotted name starts with one of the listed prefixes.
#: ``repro.recovery`` sits at the very top of the stack (it reaches into
#: every layer to capture/restore state), so no substrate layer may
#: import it — a downward dependency on the recovery subsystem would be
#: a cycle by construction.
LAYERING_RULES = {
    "core/": ("repro.slider", "repro.cluster", "repro.recovery"),
    "common/": ("repro.recovery",),
    "mapreduce/": ("repro.recovery",),
    "cluster/": ("repro.recovery",),
    "telemetry/": ("repro.recovery",),
}


def _is_span_context(item: ast.withitem) -> bool:
    """True when a with-item opens a telemetry span.

    Matches any call whose callee name contains ``span`` —
    ``telemetry.span(...)``, ``self._level_span(...)``, ``phase_span(...)``.
    """
    for node in ast.walk(item.context_expr):
        if isinstance(node, ast.Call):
            callee = node.func
            name = None
            if isinstance(callee, ast.Attribute):
                name = callee.attr
            elif isinstance(callee, ast.Name):
                name = callee.id
            if name is not None and "span" in name:
                return True
    return False


class _ModuleLinter(ast.NodeVisitor):
    def __init__(self, path: Path, relative: str, source_lines: list[str]) -> None:
        self.path = path
        self.relative = relative
        self.source_lines = source_lines
        self.findings: list[Finding] = []
        self._span_depth = 0
        self._function_stack: list[ast.AST] = []

    # -- helpers ---------------------------------------------------------

    def _line(self, number: int) -> str:
        if 1 <= number <= len(self.source_lines):
            return self.source_lines[number - 1]
        return ""

    def _function_is_marked(self) -> bool:
        for fn in reversed(self._function_stack):
            if CALLER_SPAN_MARKER in self._line(fn.lineno):
                return True
        return False

    def _function_is_charge_impl(self) -> bool:
        return bool(
            self._function_stack
            and getattr(self._function_stack[-1], "name", None)
            in _CHARGE_IMPLEMENTATIONS
        )

    # -- structure tracking ---------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_trusted_decorators(node)
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_trusted_decorators(self, node: ast.FunctionDef) -> None:
        """``lint.trusted-reason``: every @trusted mark must carry a
        non-empty reason, statically — the audit trail for the escape
        hatch lives at the decoration site."""
        for decorator in node.decorator_list:
            callee = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = None
            if isinstance(callee, ast.Attribute):
                name = callee.attr
            elif isinstance(callee, ast.Name):
                name = callee.id
            if name != "trusted":
                continue
            problem = None
            if not isinstance(decorator, ast.Call):
                problem = "@trusted used without arguments"
            else:
                args = list(decorator.args)
                reason = next(
                    (kw.value for kw in decorator.keywords if kw.arg == "reason"),
                    args[0] if args else None,
                )
                if reason is None:
                    problem = "@trusted(...) is missing its reason"
                elif isinstance(reason, ast.Constant) and (
                    not isinstance(reason.value, str)
                    or not reason.value.strip()
                ):
                    problem = "@trusted reason must be a non-empty string"
            if problem is not None:
                self.findings.append(
                    Finding(
                        rule="lint.trusted-reason",
                        message=(
                            f"{problem} — state what was audited and why "
                            "the checker may stand down"
                        ),
                        where=self.relative,
                        line=decorator.lineno,
                        severity=ERROR,
                    )
                )

    def visit_With(self, node: ast.With) -> None:
        opens_span = any(_is_span_context(item) for item in node.items)
        if opens_span:
            self._span_depth += 1
        self.generic_visit(node)
        if opens_span:
            self._span_depth -= 1

    # -- rules -----------------------------------------------------------

    def _forbidden_prefixes(self) -> tuple[str, ...]:
        for layer, prefixes in LAYERING_RULES.items():
            if self.relative.startswith(layer):
                return prefixes
        return ()

    def _check_layering(self, node: ast.AST, module: str | None) -> None:
        if not module:
            return
        for prefix in self._forbidden_prefixes():
            if module == prefix or module.startswith(prefix + "."):
                layer = self.relative.split("/", 1)[0]
                self.findings.append(
                    Finding(
                        rule="lint.layering",
                        message=(
                            f"repro.{layer} must not import {module}: the "
                            "substrate cannot depend on the layers above "
                            "it — invert the dependency (inject a callback "
                            "or move the shared piece down)"
                        ),
                        where=self.relative,
                        line=node.lineno,
                        severity=ERROR,
                    )
                )
                return

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_layering(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_layering(node, self._resolve_import(node))
        self.generic_visit(node)

    def _resolve_import(self, node: ast.ImportFrom) -> str | None:
        """The absolute dotted module an ImportFrom targets; ``from ..x
        import y`` is resolved against this file's package path."""
        if node.level == 0:
            return node.module
        parts = ["repro"] + self.relative.split("/")
        parts.pop()  # the module file itself; its package remains
        base = parts[: len(parts) - (node.level - 1)]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else None

    def visit_Call(self, node: ast.Call) -> None:
        self._check_charge(node)
        self._check_bare_telemetry(node)
        self.generic_visit(node)

    def _check_charge(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "charge"
        ):
            return
        if self._span_depth > 0:
            return
        if self._function_is_charge_impl() or self._function_is_marked():
            return
        if CALLER_SPAN_MARKER in self._line(node.lineno):
            return
        self.findings.append(
            Finding(
                rule="lint.span-hygiene",
                message=(
                    "charge() outside any span: wrap the call in a "
                    "telemetry span, or mark the enclosing def with "
                    f"'# {CALLER_SPAN_MARKER}' if it charges into its "
                    "caller's span"
                ),
                where=self.relative,
                line=node.lineno,
                severity=ERROR,
            )
        )

    def _check_bare_telemetry(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "Telemetry"):
            return
        if node.args or node.keywords:
            return
        if any(
            self.relative.startswith(prefix)
            for prefix in BARE_TELEMETRY_ENTRY_POINTS
        ):
            return
        self.findings.append(
            Finding(
                rule="lint.bare-telemetry",
                message=(
                    "bare Telemetry() outside an entry point: pass a label "
                    "(Telemetry(label=...)) or accept an injected backbone"
                ),
                where=self.relative,
                line=node.lineno,
                severity=ERROR,
            )
        )


def lint_file(path: Path, package_root: Path) -> list[Finding]:
    """Lint one source file; ``package_root`` anchors relative names."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                rule="lint.syntax",
                message=f"could not parse: {exc}",
                where=str(path),
                line=exc.lineno,
                severity=ERROR,
            )
        ]
    try:
        relative = str(path.relative_to(package_root))
    except ValueError:
        relative = str(path)
    lines = source.splitlines()
    linter = _ModuleLinter(path, relative, lines)
    linter.visit(tree)
    findings = linter.findings
    if len(lines) > MAX_MODULE_LINES:
        findings.append(
            Finding(
                rule="lint.module-size",
                message=(
                    f"module is {len(lines)} lines (cap {MAX_MODULE_LINES})"
                    " — split it by concern instead of growing it"
                ),
                where=relative,
                line=len(lines),
                severity=ERROR,
            )
        )
    return findings


def lint_package(package_root: Path) -> list[Finding]:
    """Lint every ``.py`` file under ``package_root`` (the repro package)."""
    findings: list[Finding] = []
    for path in sorted(package_root.rglob("*.py")):
        findings.extend(lint_file(path, package_root))
    return findings
