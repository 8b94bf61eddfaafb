"""The law harness falsifies mislabeled combiner algebras with concrete
hypothesis counterexamples, and passes every shipped combiner."""

from __future__ import annotations

import pytest

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
