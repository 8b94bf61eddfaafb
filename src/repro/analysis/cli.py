"""``python -m repro.analysis`` — the contract-checker CLI.

Modes:

* ``--self`` — check the repo itself: repo-internal lint rules over
  ``src/repro``, then purity + algebraic laws + effect inference over
  the shipped corpus (micro-benchmarks, case studies, query aggregates),
  the stale-trust audit, and the parallel-safety certification of all
  five tree variants (race detection + shared-state audit).  This is the
  blocking CI gate.
* ``MODULE ...`` — import each named module and check every job,
  combiner, and aggregation found in it — the entry point for user
  workloads before handing them to a long-lived Slider.

Output is deterministic (findings deduplicated, sorted by location and
rule); ``--sarif PATH`` additionally exports a SARIF 2.1.0 log and
``--certificates DIR`` writes one machine-readable parallel-safety
certificate per variant.  Exit status is nonzero when any error-severity
finding is recorded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from repro.analysis.effects import effect_findings
from repro.analysis.findings import AnalysisReport
from repro.analysis.repolint import lint_package
from repro.analysis.targets import (
    CheckTarget,
    check_target,
    module_targets,
    registry_targets,
)

#: Resources the shipped job plane may legitimately touch: memo tables
#: (the executor's job) and telemetry (commutative counters/charges).
_ALLOWED_EFFECTS = frozenset({"memo", "telemetry"})


def _check_targets(
    targets: list[CheckTarget],
    report: AnalysisReport,
    *,
    run_purity: bool,
    run_laws: bool,
    run_effects: bool,
    max_examples: int,
) -> None:
    for target in targets:
        check_target(
            target,
            report,
            check_purity=run_purity,
            check_laws=run_laws,
            max_examples=max_examples,
        )
        if run_effects:
            report.extend(
                effect_findings(target.functions, allowed=_ALLOWED_EFFECTS)
            )


def _certify(
    report: AnalysisReport,
    out_dir: str | None,
    *,
    run_races: bool = True,
    run_shared: bool = True,
) -> None:
    """Run the per-variant parallel-safety certification; optionally write
    the machine-readable certificates to ``out_dir``."""
    from repro.analysis.shared import certificate_findings, certify_all

    certificates = certify_all(run_races=run_races, run_shared=run_shared)
    report.extend(certificate_findings(certificates))
    for cert in certificates:
        print(
            f"certificate: {cert.variant}/{cert.mode} -> {cert.verdict} "
            f"({cert.runs} runs, {cert.steps_analyzed} steps, "
            f"{cert.values_audited} values, "
            f"{cert.benign_races} benign memo race(s))"
        )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for cert in certificates:
            path = out / f"{cert.variant}.json"
            path.write_text(
                json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )


def _audit_trust(report: AnalysisReport) -> None:
    """Audit every @trusted mark in the shipped corpus; print the table."""
    from repro.analysis.trustaudit import audit_trusted, render_table

    functions = [
        (f"{target.name}:{role}", fn)
        for target in registry_targets()
        for role, fn in target.functions
    ]
    entries, findings = audit_trusted(functions)
    report.extend(findings)
    print(render_table(entries))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static purity/determinism checks and algebraic-law "
        "falsification for Slider jobs.",
    )
    parser.add_argument(
        "modules",
        nargs="*",
        help="importable module names to scan for jobs/combiners/aggregates",
    )
    parser.add_argument(
        "--self",
        dest="check_self",
        action="store_true",
        help="check the repo: lint rules plus the shipped app corpus",
    )
    parser.add_argument(
        "--max-examples",
        type=int,
        default=60,
        help="hypothesis examples per law (default: 60)",
    )
    parser.add_argument(
        "--no-laws", action="store_true", help="skip law falsification"
    )
    parser.add_argument(
        "--no-purity", action="store_true", help="skip the purity checker"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip repo lint rules (--self)"
    )
    parser.add_argument(
        "--no-effects",
        action="store_true",
        help="skip effect inference over job functions",
    )
    parser.add_argument(
        "--no-races",
        action="store_true",
        help="skip plan-level race detection (part of certification)",
    )
    parser.add_argument(
        "--no-shared",
        action="store_true",
        help="skip shared-state certification of the tree variants (--self)",
    )
    parser.add_argument(
        "--certificates",
        metavar="DIR",
        default=None,
        help="write per-variant parallel-safety certificates as JSON",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="export the findings as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also print non-errors"
    )
    args = parser.parse_args(argv)

    if not args.check_self and not args.modules:
        parser.error("nothing to check: pass --self and/or module names")

    report = AnalysisReport()
    run_purity = not args.no_purity
    run_laws = not args.no_laws
    run_effects = not args.no_effects

    if args.check_self:
        if not args.no_lint:
            import repro

            package_root = Path(repro.__file__).resolve().parent
            report.extend(lint_package(package_root))
        _check_targets(
            registry_targets(),
            report,
            run_purity=run_purity,
            run_laws=run_laws,
            run_effects=run_effects,
            max_examples=args.max_examples,
        )
        _audit_trust(report)
        if not (args.no_shared and args.no_races):
            _certify(
                report,
                args.certificates,
                run_races=not args.no_races,
                run_shared=not args.no_shared,
            )

    for module_name in args.modules:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            print(f"error: cannot import {module_name!r}: {exc}", file=sys.stderr)
            return 2
        targets = module_targets(module)
        if not targets:
            print(f"warning: no checkable objects found in {module_name!r}")
        _check_targets(
            targets,
            report,
            run_purity=run_purity,
            run_laws=run_laws,
            run_effects=run_effects,
            max_examples=args.max_examples,
        )

    if args.sarif is not None:
        from repro.analysis.sarif import write_sarif

        write_sarif(report.finalized(), args.sarif)
    print(report.render(verbose=args.verbose))
    return 0 if report.ok else 1
