"""Deterministic findings output."""

from __future__ import annotations

from repro.analysis.findings import AnalysisReport, Finding, finalize


def _finding(rule="r.a", where="b.py", line=1, message="m", severity="error"):
    return Finding(
        rule=rule, message=message, where=where, line=line, severity=severity
    )


def test_finalize_sorts_by_location_then_rule():
    scrambled = [
        _finding(where="z.py", line=9),
        _finding(where="a.py", line=5, rule="r.b"),
        _finding(where="a.py", line=5, rule="r.a"),
        _finding(where="a.py", line=2),
    ]
    ordered = finalize(scrambled)
    assert [(f.where, f.line, f.rule) for f in ordered] == [
        ("a.py", 2, "r.a"),
        ("a.py", 5, "r.a"),
        ("a.py", 5, "r.b"),
        ("z.py", 9, "r.a"),
    ]


def test_finalize_deduplicates():
    finding = _finding()
    assert finalize([finding, finding, finding]) == [finding]


def test_report_render_is_deterministic():
    first = AnalysisReport()
    second = AnalysisReport()
    a, b = _finding(where="x.py"), _finding(where="y.py")
    first.extend([a, b, a])
    second.extend([b, a])
    assert first.render(verbose=True) == second.render(verbose=True)
    assert "2 finding(s)" in first.render()
