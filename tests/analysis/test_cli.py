"""``python -m repro.analysis`` exit codes and module scanning."""

from __future__ import annotations

import contextlib
import io
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
    from repro.mapreduce import MapReduceJob, SumCombiner

    def _map(record):
        yield (record % 4, 1)

    def wordcount_job():
        return MapReduceJob(name="wc", map_fn=_map, combiner=SumCombiner())
"""

DIRTY_MODULE = """
    import random

    from repro.mapreduce import MapReduceJob, SumCombiner

    def _map(record):
        yield (record, random.random())

    def sampling_job():
        return MapReduceJob(name="sampler", map_fn=_map, combiner=SumCombiner())
"""

MISLABELED_MODULE = """
    from repro.mapreduce import MapReduceJob, SumCombiner

    class BadMean(SumCombiner):
        def merge(self, key, values):
            return sum(values) / len(values)

    def _map(record):
        yield (0, float(record))

    def mean_job():
        return MapReduceJob(name="bad-mean", map_fn=_map, combiner=BadMean())
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
    assert main([name]) == 1
    out = capsys.readouterr().out
    assert "laws.associativity" in out
    assert "purity." not in out  # its functions are pure: the laws caught it


def test_rule_gating_flags(user_module):
    # There are none: no switch skips a check, and no SARIF log is written.
    name = user_module("dirty_gated_mod", DIRTY_MODULE)
    for flag in (
        "--no-purity", "--no-laws", "--no-lint", "--no-races", "--no-shared",
        "--sarif=findings.sarif",
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([name, flag])
        assert excinfo.value.code == 2, flag


def test_module_without_targets_warns(user_module, capsys):
    name = user_module("empty_fixture_mod", "ANSWER = 42\n")
    assert main([name]) == 0
    assert "no checkable objects found" in capsys.readouterr().out


def test_module_scan_skips_aliases_and_factories_needing_arguments(user_module):
    name = user_module(
        "aliased_fixture_mod",
        """
        from repro.mapreduce import MapReduceJob, SumCombiner

        def _map(record):
            yield (record % 4, 1)

        JOB = MapReduceJob(name="wc", map_fn=_map, combiner=SumCombiner())
        SAME_JOB = JOB

        def sized_job(width):
            return MapReduceJob(name="sized", map_fn=_map, combiner=SumCombiner())
        """,
    )
    targets = module_targets(__import__(name))
    assert [target.name for target in targets] == ["job:wc"]


def test_unimportable_module_exits_two(capsys):
    assert main(["no_such_module_xyz"]) == 2
    assert "cannot import" in capsys.readouterr().err


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_max_examples_must_be_a_positive_count(user_module, count):
    name = user_module("clean_counted_mod", CLEAN_MODULE)
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--max-examples", count])
    assert excinfo.value.code == 2


@pytest.fixture(scope="module")
def self_run(tmp_path_factory):
    """One ``--self`` run, exactly as CI runs it: (exit code, what it
    printed, the certificate directory it wrote)."""
    cert_dir = tmp_path_factory.mktemp("certs")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(["--self", "--certificates", str(cert_dir)])
    return code, printed.getvalue(), cert_dir


def test_self_runs_every_check_and_passes(self_run):
    code, out, _ = self_run
    assert code == 0, out
    assert out.rstrip().endswith("0 error(s): OK")


def test_self_certification_flags(self_run):
    _, out, cert_dir = self_run
    assert out.count("parallel-safe") == 5
    assert sorted(p.name for p in cert_dir.glob("*.json")) == [
        "coalescing.json", "folding.json", "randomized.json",
        "rotating.json", "strawman.json",
    ]


def test_module_scan_finds_job_factories(user_module):
    import importlib

    name = user_module("scan_fixture_mod", CLEAN_MODULE)
    module = importlib.import_module(name)
    targets = module_targets(module)
    assert [t.name for t in targets] == ["wordcount_job()"]
    roles = [role for role, _fn in targets[0].functions]
    assert "map" in roles and "combiner.merge" in roles


AGGREGATES_MODULE = """
    from repro.mapreduce import SumCombiner
    from repro.query.aggregates import Count, Mean

    count = Count()
    mean = Mean(0)
    comb = SumCombiner()
"""


def test_module_scan_finds_imported_aggregations(user_module):
    import importlib

    name = user_module("aggregates_fixture_mod", AGGREGATES_MODULE)
    module = importlib.import_module(name)
    assert [t.name for t in module_targets(module)] == [
        "combiner:comb", "aggregate:count", "aggregate:mean",
    ]
