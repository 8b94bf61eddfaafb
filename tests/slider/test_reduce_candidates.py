"""Reduce from the keys a slide's leaves carry: equal to the scan, by
construction where the combiner is ``exact`` and by declaration where not.

The oracle's ``rescan`` arm holds the equality on every case and rule;
here are the slides it does not draw on purpose, the restored engine's
first advance, and what ``Combiner.exact`` now decides.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.approx import same_value
from repro.common.errors import CombinerContractError
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import Split
from repro.slider.planning import RunPlanner
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import ARMS, CASES, Fleet, count_job

#: A split is a few of four words, so that slides keep re-adding a key with
#: the value it had (``("a",)`` out, ``("a",)`` in), dropping a key's last
#: carrier, and finding a key only in the leaf that leaves.
words = st.lists(st.sampled_from("abcd"), max_size=3).map(tuple)
slides = st.lists(
    st.tuples(st.lists(words, max_size=2), st.integers(0, 2), st.booleans()),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("variant", ["folding", "randomized", "strawman"])
@settings(max_examples=40, deadline=None)
@given(first=st.lists(words, min_size=1, max_size=4), moves=slides)
def test_generated_slides_reduce_as_a_scan_would(variant, first, moves):
    job = count_job()
    config = SliderConfig(tree=variant, execution_backend="inprocess", workers=1)
    engine = Slider(job, WindowMode.VARIABLE, config)
    scanning = Slider(job, WindowMode.VARIABLE, config)
    ARMS["rescan"].adopt(scanning)
    serial = iter(range(10**6))

    def split(record: tuple) -> Split:
        return Split.from_records(list(record), label=f"s{next(serial)}")

    try:
        window = [split(record) for record in first]
        for each in (engine, scanning):
            each.initial_run(window)
        for records, remove, repeat in moves:
            added = [split(record) for record in records]
            if repeat and window:
                added.insert(0, window[-1])  # the newest split, twice
            remove = min(remove, len(window))
            window = window[remove:] + added
            got, want = engine.advance(added, remove), scanning.advance(added, remove)
            assert got.outputs == want.outputs
            assert got.outputs == BatchRuntime(job).run(window).outputs
            assert got.changed_keys == want.changed_keys
            assert got.removed_keys == want.removed_keys
            assert got.report.breakdown == want.report.breakdown
            assert engine.reduce_memo == scanning.reduce_memo
            assert engine.reduce_outputs == got.outputs == engine.current_outputs()
        assert not any(
            name.startswith("reduce.scan") for name in engine.telemetry.counters
        )
    finally:
        engine.close()
        scanning.close()


def test_a_result_a_caller_kept_does_not_move_under_it():
    engine = Slider(count_job(), WindowMode.VARIABLE)
    first = engine.initial_run([Split.from_records(["a", "b"], label="s0")])
    kept = dict(first.outputs)
    second = engine.advance([Split.from_records(["a", "c"], label="s1")], 1)
    second.outputs["a"] += 100  # nor does the engine's move under a caller's edit
    assert first.outputs == kept == {"a": 1, "b": 1}
    assert engine.reduce_outputs == {"a": 1, "c": 1}
    engine.close()


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[2]}")
def test_a_restored_engine_reduces_from_candidates_at_once(case, monkeypatch):
    """The output dict is derived state: rebuilt from the restored reduce
    memo, so neither a restore nor a move onto another engine costs a scan
    — and the fleet holds each result to the live engine's, field for field."""
    given_candidates = []
    reduce_all = RunPlanner.reduce_all

    def spy(self, roots, candidates=None):
        given_candidates.append(candidates is not None)
        return reduce_all(self, roots, candidates)

    monkeypatch.setattr(RunPlanner, "reduce_all", spy)
    with Fleet(case, arms=("reference", "restored", "process")) as fleet:
        assert given_candidates == [False] * 3  # an initial run has no memo
        del given_candidates[:]
        fleet.advance()  # the restored arm: checkpointed and restored first
        fleet.move()
        fleet.advance(2, 1)
        fleet.kill("process")
        fleet.advance()
        fleet.check()
    assert given_candidates == [True] * 9


# -- what ``exact`` decides -----------------------------------------------------


class FloatSum(SumCombiner):
    """Sums the floats its job's Map emits and does not say ``exact =
    False``: it over-claims (``SumCombiner`` is exact over integers)."""

    def law_leaves(self):
        return st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class HonestFloatSum(FloatSum):
    exact = False


def _float_job(combiner) -> MapReduceJob:
    return MapReduceJob(
        name="float-sums",
        map_fn=lambda record: [(record[0], record[1])],
        combiner=combiner,
        num_reducers=2,
    )


def _float_split(i: int) -> Split:
    return Split.from_records(
        [(f"k{j % 5}", 0.1 * (i + 1) + 1e-3 * j) for j in range(8)], label=f"f{i}"
    )


def test_a_float_sum_that_claims_exact_is_flagged_and_an_honest_one_scans():
    with pytest.raises(CombinerContractError, match="declared exact"):
        _float_job(FloatSum()).validate(check_laws=True, max_examples=200)
    job = _float_job(HonestFloatSum())
    assert job.validate(check_laws=True).ok
    engine = Slider(job, WindowMode.VARIABLE, SliderConfig(tree="randomized"))
    engine.initial_run([_float_split(i) for i in range(9)])
    for i in range(9, 15):
        result = engine.advance([_float_split(i)], 1)
        expected = BatchRuntime(job).run(list(engine.window)).outputs
        assert same_value(result.outputs, expected, exact=False)
        assert engine.verify_outputs(result.outputs) == len(expected)
    assert engine.telemetry.counters["reduce.scan.inexact"] == 6
    engine.close()
