"""``python -m repro.analysis`` exit codes and module scanning."""

from __future__ import annotations

import sys
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.targets import module_targets


@pytest.fixture
def user_module(tmp_path, monkeypatch):
    """Create an importable throwaway module and return a writer for it."""
    monkeypatch.syspath_prepend(str(tmp_path))
    created = []

    def write(name: str, source: str):
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(source))
        created.append(name)
        return name

    yield write
    for name in created:
        sys.modules.pop(name, None)


CLEAN_MODULE = """
    from repro.mapreduce import JobSpec, SumCombiner

    def _map(record):
        yield (record % 4, 1)

    def wordcount_job():
        return JobSpec(name="wc", map_fn=_map, combiner=SumCombiner())
"""

DIRTY_MODULE = """
    import random

    from repro.mapreduce import JobSpec, SumCombiner

    def _map(record):
        yield (record, random.random())

    def sampling_job():
        return JobSpec(name="sampler", map_fn=_map, combiner=SumCombiner())
"""

MISLABELED_MODULE = """
    from repro.mapreduce import JobSpec, SumCombiner

    class BadMean(SumCombiner):
        def merge(self, key, values):
            return sum(values) / len(values)

    def _map(record):
        yield (0, float(record))

    def mean_job():
        return JobSpec(name="bad-mean", map_fn=_map, combiner=BadMean())
"""


def test_clean_module_exits_zero(user_module, capsys):
    name = user_module("clean_fixture_mod", CLEAN_MODULE)
    assert main([name]) == 0
    assert "OK" in capsys.readouterr().out


def test_purity_violation_exits_nonzero(user_module, capsys):
    name = user_module("dirty_fixture_mod", DIRTY_MODULE)
    assert main([name]) == 1
    out = capsys.readouterr().out
    assert "purity.nondeterminism.random" in out
    assert "FAIL" in out


def test_law_violation_exits_nonzero(user_module, capsys):
    name = user_module("mislabeled_fixture_mod", MISLABELED_MODULE)
    assert main([name, "--no-purity"]) == 1
    assert "laws.associativity" in capsys.readouterr().out


def test_rule_gating_flags(user_module):
    name = user_module("dirty_gated_mod", DIRTY_MODULE)
    # the only violation is a purity one; skipping purity makes it pass
    assert main([name, "--no-purity"]) == 0


def test_unimportable_module_exits_two(capsys):
    assert main(["no_such_module_xyz"]) == 2
    assert "cannot import" in capsys.readouterr().err


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


LINT_ONLY = [
    "--self", "--no-laws", "--no-purity", "--no-races", "--no-shared",
]


def test_self_lint_only_passes(capsys):
    # the full --self corpus runs in CI; here just the (fast) lint half
    assert main(LINT_ONLY) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "certificate:" not in out  # both passes gated off: no certs


def test_self_certification_flags(capsys, tmp_path):
    cert_dir = tmp_path / "certs"
    args = [
        "--self", "--no-laws", "--no-purity", "--no-lint",
        "--certificates", str(cert_dir),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("parallel-safe") == 5
    assert sorted(p.name for p in cert_dir.glob("*.json")) == [
        "coalescing.json", "folding.json", "randomized.json",
        "rotating.json", "strawman.json",
    ]


def test_sarif_flag_writes_log(capsys, tmp_path):
    import json

    path = tmp_path / "findings.sarif"
    assert main(LINT_ONLY + ["--sarif", str(path)]) == 0
    capsys.readouterr()
    log = json.loads(path.read_text())
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["tool"]["driver"]["name"] == "repro-analysis"


def test_trust_audit_table_printed(capsys):
    assert main(LINT_ONLY) == 0
    assert "trusted marks" in capsys.readouterr().out


def test_module_scan_finds_job_factories(user_module):
    import importlib

    name = user_module("scan_fixture_mod", CLEAN_MODULE)
    module = importlib.import_module(name)
    targets = module_targets(module)
    assert [t.name for t in targets] == ["wordcount_job()"]
    roles = [role for role, _fn in targets[0].functions]
    assert "map" in roles and "combiner.merge" in roles
