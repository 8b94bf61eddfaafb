"""``python -m repro.analysis`` — the contract-checker CLI.

Modes:

* ``--self`` — check the repo itself: repo-internal lint rules over
  ``src/repro``, then purity + algebraic laws over the shipped corpus
  (micro-benchmarks, case studies, query aggregates), then the
  parallel-safety certification of all five tree variants (job-plane
  purity + race detection + shared-state audit).
  Every check runs on every invocation: this is the blocking CI gate,
  and there is no switch that turns part of it off.
* ``MODULE ...`` — import each named module and check every job,
  combiner, and aggregation found in it for purity and its declared
  laws — the entry point for user workloads before handing them to a
  long-lived Slider.

Output is deterministic (findings deduplicated, sorted by location and
rule); ``--certificates DIR`` writes one machine-readable parallel-safety
certificate per variant.  Exit status is nonzero when any error-severity
finding is recorded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from repro.analysis.findings import AnalysisReport
from repro.analysis.repolint import lint_package
from repro.analysis.targets import (
    CheckTarget,
    check_target,
    module_targets,
    registry_targets,
)


def _check_targets(
    targets: list[CheckTarget], report: AnalysisReport, max_examples: int
) -> None:
    for target in targets:
        check_target(target, report, max_examples=max_examples)


def _certify(report: AnalysisReport, out_dir: str | None) -> None:
    """Run the per-variant parallel-safety certification; optionally write
    the machine-readable certificates to ``out_dir``."""
    from repro.analysis.shared import certificate_findings, certify_all

    certificates = certify_all()
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
        help="check the repo: lint rules, the shipped app corpus and the "
        "parallel-safety certificates",
    )
    parser.add_argument(
        "--max-examples",
        type=int,
        default=60,
        help="hypothesis examples per law (default: 60)",
    )
    parser.add_argument(
        "--certificates",
        metavar="DIR",
        default=None,
        help="write per-variant parallel-safety certificates as JSON",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also print non-errors"
    )
    args = parser.parse_args(argv)

    if not args.check_self and not args.modules:
        parser.error("nothing to check: pass --self and/or module names")
    if args.max_examples < 1:
        parser.error(f"--max-examples must be at least 1, got {args.max_examples}")

    report = AnalysisReport()

    if args.check_self:
        import repro

        report.extend(lint_package(Path(repro.__file__).resolve().parent))
        _check_targets(registry_targets(), report, args.max_examples)
        _certify(report, args.certificates)

    for module_name in args.modules:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            print(f"error: cannot import {module_name!r}: {exc}", file=sys.stderr)
            return 2
        targets = module_targets(module)
        if not targets:
            print(f"warning: no checkable objects found in {module_name!r}")
        _check_targets(targets, report, args.max_examples)

    print(report.render(verbose=args.verbose))
    return 0 if report.ok else 1
