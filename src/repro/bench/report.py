"""Regenerate the full experimental report from the benchmark suite.

Runs the paper benches in ``benchmarks/`` (the ``test_fig*``,
``test_table*`` and ``test_ablation*`` files, each of which prints the
rows or series of one paper table/figure) as plain pytest and collects the
printed tables into a single text report::

    python -m repro.bench.report -o report.txt

The benchmarks also *assert* the paper's qualitative shapes, so a report
that completes is simultaneously a successful reproduction check.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

#: The files that regenerate a paper table or figure.  ``test_parallel.py``
#: (a wall-clock sweep) and ``e2e/`` are not paper benches.
PAPER_BENCH_GLOBS = ("test_fig*.py", "test_table*.py", "test_ablation*.py")

#: Lines that are pytest noise rather than experiment output.
_NOISE_RE = re.compile(
    r"^(=+ |platform |rootdir|plugins|collecting|collected|\.|test_|PASSED"
    r"|warnings summary)"
)

#: ``format_table`` writes a rule of ``=`` under every title.
_TITLE_RULE_RE = re.compile(r"^=+$")


def extract_tables(raw_output: str) -> str:
    """Pull the printed experiment tables out of raw pytest output."""
    lines = raw_output.splitlines()
    kept: list[str] = []
    inside_table = False
    for line, next_line in zip(lines, lines[1:] + [""]):
        if line.strip() and _TITLE_RULE_RE.match(next_line):
            inside_table = True
            if kept and kept[-1] != "":
                kept.append("")
        elif inside_table and (not line.strip() or _NOISE_RE.match(line)):
            inside_table = False
            continue
        if inside_table:
            kept.append(line.rstrip())
    return "\n".join(kept) + "\n"


def pytest_command(
    benchmark_dir: str, extra_args: list[str] | None = None
) -> list[str]:
    """The pytest command line that runs the paper benches in ``benchmark_dir``."""
    root = Path(benchmark_dir)
    files = sorted(str(path) for glob in PAPER_BENCH_GLOBS for path in root.glob(glob))
    if not files:
        raise RuntimeError(f"no paper benches in {root}: {PAPER_BENCH_GLOBS}")
    return [sys.executable, "-m", "pytest", *files, "-q", "-s"] + (extra_args or [])


def run_benchmarks(benchmark_dir: str, extra_args: list[str] | None = None) -> str:
    """Execute the paper benches, returning their raw stdout.

    Raises ``RuntimeError`` if any benchmark (i.e. any shape assertion)
    fails.
    """
    command = pytest_command(benchmark_dir, extra_args)
    completed = subprocess.run(command, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            "benchmark suite failed — the reproduction shapes did not hold:\n"
            + completed.stdout[-4000:]
        )
    return completed.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate every paper table/figure from the benchmarks."
    )
    parser.add_argument(
        "-o",
        "--output",
        default="-",
        help="file to write the report to ('-' for stdout)",
    )
    parser.add_argument(
        "--benchmarks",
        default="benchmarks",
        help="path to the benchmark directory",
    )
    parser.add_argument(
        "-k",
        default=None,
        help="only run benchmarks matching this pytest -k expression",
    )
    args = parser.parse_args(argv)

    extra = ["-k", args.k] if args.k else None
    raw = run_benchmarks(args.benchmarks, extra)
    report = extract_tables(raw)
    header = (
        "Slider reproduction — experimental report\n"
        "==========================================\n"
        "Each section regenerates one table or figure of the paper's\n"
        "evaluation; see EXPERIMENTS.md for paper-vs-measured commentary.\n\n"
    )
    if args.output == "-":
        sys.stdout.write(header + report)
    else:
        Path(args.output).write_text(header + report)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
