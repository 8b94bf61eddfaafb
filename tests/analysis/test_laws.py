"""The law harness falsifies mislabeled combiner algebras with concrete
hypothesis counterexamples, and passes every shipped combiner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import check_combiner_laws
from repro.mapreduce.combiners import (
    Combiner,
    ListConcatCombiner,
    MeanCombiner,
    MinCombiner,
    SumCombiner,
    TopKCombiner,
    VectorSumCombiner,
)


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


class BadMeanCombiner(SumCombiner):
    """Mean-of-means, deliberately mislabeled as associative.

    merge([a, b]) averages, so merge(merge(a,b),c) weights c at 1/2 while
    merge(a,merge(b,c)) weights a at 1/2 — associativity fails on almost
    any triple with distinct values.  (The honest encoding is
    MeanCombiner's (count, total) pairs.)
    """

    def merge(self, key, values):
        return sum(values) / len(values)


class ExactVectorSum(VectorSumCombiner):
    """Float vector sums, deliberately mislabeled as exact: a tree
    brackets a window's leaves differently from a batch run."""

    exact = True


class ExactMean(MeanCombiner):
    """The same mislabel over one float (quick to shrink)."""

    exact = True


class NotCommutativeConcat(ListConcatCombiner):
    """Concatenation deliberately mislabeled as commutative."""

    commutative = True


class UnstableFingerprint(SumCombiner):
    """Fingerprint depends on object identity — unhashable by design."""

    def fingerprint(self, value):
        return object()


class NegativeSize(SumCombiner):
    """value_size violates non-negativity."""

    def value_size(self, value) -> float:
        return -1.0


class ComplexFingerprint(SumCombiner):
    """Deterministic, but a complex number has no stable encoding."""

    def fingerprint(self, value):
        return complex(value)


class NanCost(SumCombiner):
    """merge_cost violates finiteness."""

    def merge_cost(self, key, values) -> float:
        return float("nan")


class CrashingMerge(SumCombiner):
    """Merge raises — the harness must report, not propagate."""

    def merge(self, key, values):
        raise RuntimeError("boom")


class UnknownDomain(Combiner):
    """No registered leaf strategy and no law_leaves(): warn, don't guess."""

    def merge(self, key, values):
        return values[0]


def test_nonassociative_combiner_is_falsified_with_counterexample():
    findings = check_combiner_laws(BadMeanCombiner())
    associativity = [f for f in findings if f.rule == "laws.associativity"]
    assert associativity, rules_of(findings)
    # The finding carries the concrete hypothesis counterexample.
    message = associativity[0].message
    assert "merge(merge(a,b),c) != merge(a,merge(b,c))" in message
    assert "a=" in message and "b=" in message and "c=" in message
    assert associativity[0].severity == "error"


@pytest.mark.parametrize(
    "mislabeled",
    # Shrinking a three-float counterexample takes eight seconds.
    [ExactMean(), pytest.param(ExactVectorSum(), marks=pytest.mark.soak)],
    ids=lambda c: type(c).__name__,
)
def test_float_sums_declared_exact_are_falsified(mislabeled):
    findings = check_combiner_laws(mislabeled)
    assert rules_of(findings) == {"laws.exactness"}
    assert "declared exact, but one merge of" in findings[0].message
    # The honest declaration passes, and so does the integer half of a
    # sum: the declaration is checked over the domain it covers.
    assert check_combiner_laws(VectorSumCombiner(), max_examples=25) == []
    assert SumCombiner().exact and not VectorSumCombiner().exact


def test_noncommutative_combiner_is_falsified():
    findings = check_combiner_laws(NotCommutativeConcat())
    assert "laws.commutativity" in rules_of(findings)
    message = next(
        f.message for f in findings if f.rule == "laws.commutativity"
    )
    assert "merge(a,b) != merge(b,a)" in message


def test_unstable_fingerprint_is_caught():
    findings = check_combiner_laws(UnstableFingerprint())
    assert "laws.merge-consistency" in rules_of(findings)


def test_negative_value_size_is_caught():
    findings = check_combiner_laws(NegativeSize())
    assert "laws.cost-sanity" in rules_of(findings)


def test_unhashable_fingerprint_is_caught():
    findings = check_combiner_laws(ComplexFingerprint(), max_examples=5)
    assert "laws.merge-consistency" in rules_of(findings)
    assert any("not stably hashable" in f.message for f in findings)


def test_non_finite_merge_cost_is_caught():
    findings = check_combiner_laws(NanCost(), max_examples=5)
    assert "laws.cost-sanity" in rules_of(findings)
    assert any("merge_cost must be finite" in f.message for f in findings)


def test_crashing_merge_reports_instead_of_raising():
    findings = check_combiner_laws(CrashingMerge())
    assert findings, "a crashing merge must surface as findings"
    assert any("crash" in f.message for f in findings)


def test_unknown_domain_warns_once():
    findings = check_combiner_laws(UnknownDomain())
    assert rules_of(findings) == {"laws.no-strategy"}
    assert all(f.severity == "warning" for f in findings)


@pytest.mark.parametrize(
    "combiner",
    [SumCombiner(), MinCombiner(), MeanCombiner(), TopKCombiner(3),
     ListConcatCombiner()],
    ids=lambda c: type(c).__name__,
)
def test_shipped_combiners_pass(combiner):
    findings = check_combiner_laws(combiner, max_examples=25)
    assert findings == [], [f.render() for f in findings]


def test_falsification_is_deterministic():
    # derandomized hypothesis: the same counterexample every run.
    first = check_combiner_laws(BadMeanCombiner())
    second = check_combiner_laws(BadMeanCombiner())
    assert [f.message for f in first] == [f.message for f in second]


#: Run in a fresh interpreter: import the module named on the command line
#: (if any) from the directory named after it, then print the findings on a
#: float mean mislabeled exact.
_LAWS_AFTER_IMPORT = """
import importlib, sys
if len(sys.argv) > 1:
    sys.path.insert(0, sys.argv[2])
    importlib.import_module(sys.argv[1])
from repro.analysis import check_combiner_laws
from repro.mapreduce.combiners import MeanCombiner

class ExactMean(MeanCombiner):
    exact = True

print(repr([(f.rule, f.message) for f in check_combiner_laws(ExactMean())]))
"""


def _findings_after_import(*module_and_dir: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _LAWS_AFTER_IMPORT, *module_and_dir],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_verdict_does_not_depend_on_the_modules_loaded(tmp_path):
    """Hypothesis mixes the literals of every loaded non-test module into
    what it draws, so its search meets other examples when another
    module is imported; the verdict on a combiner must not move with
    them.  These eight literals, imported, once hid the counterexample
    to ``ExactMean`` from all 60 examples."""
    (tmp_path / "literals.py").write_text(
        "LITERALS = (1e-06, 0.11, 0.31, 0.32, 0.4, 0.9, 92.0, 115.0)\n"
    )
    plain = _findings_after_import()
    assert "laws.exactness" in plain
    assert _findings_after_import("literals", str(tmp_path)) == plain
