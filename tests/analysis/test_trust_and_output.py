"""The trusted-reason lint rule, the stale-trust audit, deterministic
findings output, and the SARIF exporter."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import trusted
from repro.analysis.findings import AnalysisReport, Finding, finalize
from repro.analysis.repolint import lint_file
from repro.analysis.sarif import to_sarif, write_sarif
from repro.analysis.trustaudit import audit_trusted, render_table


def lint_source(tmp_path: Path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_file(path, tmp_path)


def rules_of(findings):
    return [f.rule for f in findings]


# -- lint.trusted-reason -----------------------------------------------------


def test_bare_trusted_decorator_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        @trusted
        def helper():
            return 1
        """,
    )
    assert rules_of(findings) == ["lint.trusted-reason"]


def test_trusted_without_reason_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        @trusted()
        def helper():
            return 1
        """,
    )
    assert rules_of(findings) == ["lint.trusted-reason"]


def test_trusted_empty_reason_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        @trusted(reason="  ")
        def helper():
            return 1
        """,
    )
    assert rules_of(findings) == ["lint.trusted-reason"]


def test_trusted_with_reason_is_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.analysis import trusted

        @trusted(reason="reads a seeded RngStream")
        def helper():
            return 1
        """,
    )
    assert findings == []


def test_qualified_trusted_is_checked(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import repro.analysis as analysis

        @analysis.trusted
        def helper():
            return 1
        """,
    )
    assert rules_of(findings) == ["lint.trusted-reason"]


def test_other_decorators_ignored(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        @property
        def helper(self):
            return 1
        """,
    )
    assert findings == []


# -- stale-trust audit -------------------------------------------------------

_SEEN: set = set()


@trusted(reason="debug print kept on purpose in this fixture")
def _active_mark(record):
    print(record)  # the mark suppresses a real I/O finding
    return record


@trusted(reason="was impure before the 2026 refactor")
def _stale_mark(record):
    return record * 2  # now pure: the mark suppresses nothing


@trusted(reason="dedup set kept on purpose in this fixture")
def _global_add_mark(record):
    _SEEN.add(record)  # the mark suppresses a module-global mutation
    return record


def _unmarked(record):
    return record


def test_active_mark_reported_with_suppressed_rules():
    entries, findings = audit_trusted([("map", _active_mark)])
    assert len(entries) == 1
    assert entries[0].status == "active"
    assert entries[0].suppressed
    assert findings == []


def test_mark_over_global_mutation_is_active():
    entries, findings = audit_trusted([("map", _global_add_mark)])
    assert entries[0].status == "active"
    assert entries[0].suppressed == ("purity.impurity.global-mutation",)
    assert findings == []


def test_stale_mark_yields_warning():
    entries, findings = audit_trusted([("map", _stale_mark)])
    assert entries[0].status == "stale"
    assert rules_of(findings) == ["lint.stale-trusted"]
    assert findings[0].severity == "warning"


def test_unmarked_functions_skipped():
    entries, findings = audit_trusted([("map", _unmarked)])
    assert entries == [] and findings == []


def test_audit_table_renders_reasons():
    entries, _ = audit_trusted(
        [("map", _active_mark), ("reduce", _stale_mark)]
    )
    table = render_table(entries)
    assert "trusted marks (2):" in table
    assert "[active]" in table and "[stale]" in table
    assert "2026 refactor" in table
    assert render_table([]) == "trusted marks: none"


# -- deterministic findings output -------------------------------------------


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


# -- SARIF export ------------------------------------------------------------


def test_sarif_shape():
    log = to_sarif(
        [
            _finding(where="src/repro/x.py", line=7),
            _finding(
                where="job:wordcount", line=None, severity="info", rule="r.i"
            ),
        ]
    )
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analysis"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {"r.a", "r.i"}
    results = run["results"]
    assert len(results) == 2
    by_rule = {r["ruleId"]: r for r in results}
    physical = by_rule["r.a"]["locations"][0]["physicalLocation"]
    assert physical["artifactLocation"]["uri"] == "src/repro/x.py"
    assert physical["region"]["startLine"] == 7
    logical = by_rule["r.i"]["locations"][0]["logicalLocations"]
    assert logical == [{"fullyQualifiedName": "job:wordcount"}]
    assert by_rule["r.i"]["level"] == "note"


def test_sarif_file_roundtrip_and_stability(tmp_path):
    findings = [_finding(), _finding(where="a.py", line=3)]
    first, second = tmp_path / "a.sarif", tmp_path / "b.sarif"
    write_sarif(findings, first)
    write_sarif(list(reversed(findings)), second)
    assert first.read_text() == second.read_text()  # order-insensitive
    parsed = json.loads(first.read_text())
    assert parsed["runs"][0]["results"]
