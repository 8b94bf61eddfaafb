"""Analysis-pass runtime budget: ``--self`` must stay cheap enough to gate.

``python -m repro.analysis --self`` is a *blocking* CI job, so its
wall-clock is part of the contract: a parallel-safety pass nobody can
afford to run is a pass nobody runs.  This bench times the gate three
ways and records the numbers in ``BENCH_analysis.json`` at the repo root:

* *full self pass* — lint + purity + laws + trust audit +
  per-variant certification (purity + races + shared-state), certificates and
  SARIF written to a scratch dir: exactly what CI runs;
* *lint only* — the AST half with every dynamic pass gated off, the
  floor the full pass builds on;
* *certification only* — the five tree-variant certificates alone, the
  expensive new half of the gate.

The full pass must finish inside ``BUDGET_SECONDS`` — a generous CI
envelope (shared runners, cold caches); on a quiet machine the pass is
an order of magnitude faster.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

from repro.analysis.cli import main
from repro.bench.format import format_table

_REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_analysis.json"

#: Hard ceiling for the full --self pass (seconds).  Blocking-gate budget,
#: sized for shared CI runners; local runs should come in far under.
BUDGET_SECONDS = 120.0

_LINT_ONLY = [
    "--self", "--no-laws", "--no-purity", "--no-races", "--no-shared",
]
_CERTIFY_ONLY = ["--self", "--no-lint", "--no-purity", "--no-laws"]


def _timed_self(argv: list[str]) -> float:
    """Run the CLI in-process, require exit 0, return wall-clock seconds."""
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    elapsed = time.perf_counter() - started
    assert code == 0, sink.getvalue()
    return elapsed


def test_analysis_budget(benchmark, tmp_path):
    cert_dir = tmp_path / "certs"
    sarif_path = tmp_path / "findings.sarif"
    full_argv = [
        "--self",
        "--certificates", str(cert_dir),
        "--sarif", str(sarif_path),
    ]

    full_s = _timed_self(full_argv)
    lint_s = _timed_self(_LINT_ONLY)
    certify_s = _timed_self(_CERTIFY_ONLY)

    # The artifacts CI uploads must actually have been produced.
    assert sorted(p.name for p in cert_dir.glob("*.json")) == [
        "coalescing.json", "folding.json", "randomized.json",
        "rotating.json", "strawman.json",
    ]
    assert sarif_path.exists()

    print()
    print(
        format_table(
            f"Analysis --self wall-clock (budget {BUDGET_SECONDS:.0f}s)",
            ["full s", "lint-only s", "certification-only s"],
            [[full_s, lint_s, certify_s]],
        )
    )

    _REPORT_PATH.write_text(
        json.dumps(
            {
                "budget_seconds": BUDGET_SECONDS,
                "self_full_seconds": full_s,
                "self_lint_only_seconds": lint_s,
                "self_certification_only_seconds": certify_s,
                "within_budget": full_s < BUDGET_SECONDS,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    assert full_s < BUDGET_SECONDS, (
        f"--self took {full_s:.1f}s, over the {BUDGET_SECONDS:.0f}s "
        "blocking-gate budget"
    )

    benchmark.pedantic(lambda: _timed_self(_LINT_ONLY), rounds=1, iterations=1)
