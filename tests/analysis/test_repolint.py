"""The repo-internal lint rules fire on violating sources and respect the
documented escape hatches."""

from __future__ import annotations

import textwrap
from pathlib import Path

import repro
from repro.analysis import lint_file, lint_package


def lint_source(tmp_path: Path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path, tmp_path)


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


def test_charge_outside_span_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def work(meter):
            meter.charge("map", 1.0)
        """,
    )
    assert rules_of(findings) == ["lint.span-hygiene"]
    assert findings[0].line == 3


def test_charge_inside_span_is_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def work(meter, telemetry):
            with telemetry.span("map"):
                meter.charge("map", 1.0)
        """,
    )
    assert findings == []


def test_charge_inside_level_mark_is_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def sweep(self, telemetry):
            with self._level_mark("fold", 1):
                telemetry.charge("contraction", 1.0)
        """,
    )
    assert findings == []


def test_def_line_marker_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def helper(meter):  # analysis: charge-in-caller-span
            meter.charge("map", 1.0)
        """,
    )
    assert findings == []


def test_call_line_marker_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def helper(meter):
            meter.charge("map", 1.0)  # analysis: charge-in-caller-span
        """,
    )
    assert findings == []


def test_marker_on_outer_def_covers_nested_function(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def helper(meter):  # analysis: charge-in-caller-span
            def inner():
                meter.charge("map", 1.0)
            return inner
        """,
    )
    assert findings == []


def test_charge_method_implementation_is_exempt(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Meter:
            def charge(self, phase, amount):
                self.backbone.charge(phase, amount)
        """,
    )
    assert findings == []


def test_span_block_does_not_leak_past_its_body(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def work(meter, telemetry):
            with telemetry.span("map"):
                pass
            meter.charge("map", 1.0)
        """,
    )
    assert rules_of(findings) == ["lint.span-hygiene"]


def test_bare_telemetry_fires_outside_entry_points(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.telemetry import Telemetry

        def build():
            return Telemetry()
        """,
        name="cluster/thing.py",
    )
    assert "lint.bare-telemetry" in rules_of(findings)


def test_labeled_telemetry_is_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.telemetry import Telemetry

        def build():
            return Telemetry(label="bench")
        """,
        name="cluster/thing.py",
    )
    assert findings == []


def test_entry_point_may_build_bare_telemetry(tmp_path):
    """Only the telemetry package itself: a standalone executor's and a
    batch run's own recorders carry labels."""
    source = """
        from repro.telemetry import Telemetry

        def fallback():
            return Telemetry()
        """
    assert lint_source(tmp_path, source, name="telemetry/core.py") == []
    findings = lint_source(tmp_path, source, name="metrics.py")
    assert rules_of(findings) == ["lint.bare-telemetry"]


def test_core_importing_slider_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.slider.system import Slider
        """,
        name="core/plan.py",
    )
    assert rules_of(findings) == ["lint.layering"]
    assert "repro.slider" in findings[0].message


def test_core_importing_cluster_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import repro.cluster.executor
        """,
        name="core/execute.py",
    )
    assert rules_of(findings) == ["lint.layering"]


def test_core_relative_import_upward_fires(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from ..slider import system
        """,
        name="core/tree.py",
    )
    assert rules_of(findings) == ["lint.layering"]


def test_relative_import_above_the_package_is_not_judged(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from ... import anything
        """,
        name="core/tree.py",
    )
    assert findings == []


def test_core_importing_common_is_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.common.hashing import stable_hash
        from .memo import MemoTable
        """,
        name="core/plan.py",
    )
    assert findings == []


def test_substrate_importing_recovery_fires(tmp_path):
    # repro.recovery is the top of the stack: no lower layer may pull it in.
    for module in ("core/memo.py", "cluster/cache.py", "mapreduce/shuffle.py"):
        findings = lint_source(
            tmp_path,
            """
            from repro.recovery.checkpoint import write_checkpoint
            """,
            name=module,
        )
        assert rules_of(findings) == ["lint.layering"], module
        assert "repro.recovery" in findings[0].message


def test_slider_importing_recovery_is_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.recovery.checkpoint import write_checkpoint
        """,
        name="slider/system.py",
    )
    assert findings == []


def test_slider_may_import_core_and_cluster(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.core.plan import Plan
        from repro.cluster.executor import execute_two_waves
        """,
        name="slider/execution.py",
    )
    assert findings == []


def test_oversized_module_fires(tmp_path):
    source = "\n".join(f"x{i} = {i}" for i in range(501))
    findings = lint_source(tmp_path, source, name="core/big.py")
    assert rules_of(findings) == ["lint.module-size"]
    assert "501 lines" in findings[0].message


def test_module_at_cap_is_clean(tmp_path):
    source = "\n".join(f"x{i} = {i}" for i in range(500))
    findings = lint_source(tmp_path, source, name="core/fits.py")
    assert findings == []


def test_syntax_error_reported_not_raised(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert rules_of(findings) == ["lint.syntax"]


def test_a_file_outside_the_package_root_is_named_by_its_path(tmp_path):
    path = tmp_path / "loose.py"
    path.write_text("def work(meter):\n    meter.charge('map', 1.0)\n")
    (finding,) = lint_file(path, tmp_path / "elsewhere")
    assert finding.where == str(path)


def test_repo_package_is_lint_clean():
    package_root = Path(repro.__file__).resolve().parent
    findings = lint_package(package_root)
    assert findings == [], [f.render() for f in findings]
