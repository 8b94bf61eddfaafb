"""Tests for the report generator's table extraction and bench selection."""

from pathlib import Path

import pytest

from repro.bench.format import format_table
from repro.bench.report import extract_tables, pytest_command, run_benchmarks

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

FAKE_OUTPUT = """\
===== test session starts =====
collected 3 items

Figure 7 (work) — Append-only (A): speedup vs recompute
=======================================================
change%  5      25
-------  -----  ----
kmeans   21.24  5.57
.
Table 1 — normalized run-time
=============================
app     normalized run-time
------  -------------------
kmeans  0.80
.
{ablation}
.
===== 3 passed in 1.0s =====
""".format(
    # Built by format_table: the extractor keys on the rule of ``=`` it
    # writes under a title, whatever the title's first word.
    ablation=format_table(
        "Ablation — rebuild factor", ["variant", "work"], [["none", 3.0]]
    )
)


def test_extract_tables_keeps_experiment_rows():
    report = extract_tables(FAKE_OUTPUT)
    assert "Figure 7 (work)" in report
    assert "kmeans   21.24" in report
    assert "Table 1" in report
    assert "kmeans  0.80" in report
    assert "Ablation — rebuild factor" in report
    assert "none     3.00" in report


def test_extract_tables_drops_pytest_noise():
    report = extract_tables(FAKE_OUTPUT)
    assert "collected" not in report
    assert "passed" not in report
    assert "\n.\n" not in report


def test_extract_tables_separates_sections():
    report = extract_tables(FAKE_OUTPUT)
    sections = [s for s in report.split("\n\n") if s.strip()]
    assert len(sections) == 3


def test_report_runs_only_the_paper_benches():
    command = pytest_command(str(BENCHMARKS))
    files = [Path(arg) for arg in command if arg.endswith(".py")]
    names = {path.name for path in files}
    assert "test_fig07_speedup_vs_scratch.py" in names
    assert "test_table1_scheduler.py" in names
    assert "test_ablation_tree_choice.py" in names
    assert "test_parallel.py" not in names
    # Files only, all of them directly under benchmarks/: neither the
    # directory (which would recurse into e2e/) nor anything inside e2e/.
    assert all(path.parent == BENCHMARKS for path in files)
    assert str(BENCHMARKS) not in command
    assert str(BENCHMARKS / "e2e") not in command


def test_run_benchmarks_raises_on_failure(tmp_path):
    bad = tmp_path / "test_fig99_fail.py"
    bad.write_text("def test_shape():\n    assert False, 'shape did not hold'\n")
    with pytest.raises(RuntimeError):
        run_benchmarks(str(tmp_path))


def test_run_benchmarks_refuses_a_directory_without_paper_benches(tmp_path):
    (tmp_path / "test_other.py").write_text("def test_ok():\n    pass\n")
    with pytest.raises(RuntimeError):
        run_benchmarks(str(tmp_path))
