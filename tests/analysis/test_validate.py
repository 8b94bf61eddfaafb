"""JobSpec.validate() and negative-path contract rejection across the
tree constructors — errors carry the repo error type and name the job."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.targets import job_target
from repro.apps.registry import APP_REGISTRY
from repro.common.errors import CombinerContractError, ReproError
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.mapreduce import JobSpec, ListConcatCombiner, SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode


class NonAssociative(SumCombiner):
    associative = False


class BadMeanCombiner(SumCombiner):
    """Mislabeled: claims associativity but averages."""

    def merge(self, key, values):
        return sum(values) / len(values)


def _map(record):
    yield (0, 1)


def make_job(combiner, name="fixture-job"):
    return JobSpec(name=name, map_fn=_map, combiner=combiner)


# -- JobSpec surface --------------------------------------------------------


def test_jobspec_is_the_mapreducejob():
    assert JobSpec is MapReduceJob


def test_constructor_rejects_nonassociative_naming_the_job():
    with pytest.raises(CombinerContractError, match="'no-assoc'"):
        make_job(NonAssociative(), name="no-assoc")


def test_contract_error_is_a_valueerror():
    # callers written against the original plain-ValueError signature
    with pytest.raises(ValueError):
        make_job(NonAssociative())
    with pytest.raises(ReproError):
        make_job(NonAssociative())


def test_validate_passes_clean_job():
    report = make_job(SumCombiner()).validate(
        check_laws=True, check_purity=True
    )
    assert report.ok


def test_validate_analyses_a_split_at_a_time_map_too():
    def impure_split(records):
        return [[(random.random(), 1)] for _ in records]

    job = dataclasses.replace(make_job(SumCombiner()), map_split_fn=impure_split)
    with pytest.raises(CombinerContractError, match="random"):
        job.validate(check_purity=True)
    kmeans = APP_REGISTRY["kmeans"].make_job()
    assert ("map_split", kmeans.map_split_fn) in job_target(kmeans).functions


def test_validate_falsifies_mislabeled_combiner_naming_the_job():
    job = make_job(BadMeanCombiner(), name="mean-of-means")
    with pytest.raises(CombinerContractError, match="'mean-of-means'") as excinfo:
        job.validate(check_laws=True)
    assert "associative" in str(excinfo.value)


def test_validate_is_lazy_by_default():
    # without opt-in flags validate is a cheap no-op pass
    report = make_job(SumCombiner()).validate()
    assert report.ok and not report.findings


# -- every tree constructor rejects a non-associative combiner --------------


TREE_CONSTRUCTORS = [
    FoldingTree,
    RandomizedFoldingTree,
    RotatingTree,
    CoalescingTree,
    StrawmanTree,
]


@pytest.mark.parametrize(
    "tree_cls", TREE_CONSTRUCTORS, ids=lambda cls: cls.__name__
)
def test_tree_rejects_nonassociative(tree_cls):
    with pytest.raises(CombinerContractError, match="associative"):
        tree_cls(NonAssociative())


def test_rotating_tree_rejects_noncommutative():
    # ListConcatCombiner is associative but declares commutative = False
    with pytest.raises(CombinerContractError, match="commutative"):
        RotatingTree(ListConcatCombiner())


def test_noncommutative_is_fine_for_order_preserving_trees():
    FoldingTree(ListConcatCombiner())
    CoalescingTree(ListConcatCombiner())
    StrawmanTree(ListConcatCombiner())


# -- the engine names the offending job -------------------------------------


def test_slider_fixed_mode_names_job_on_contract_violation():
    job = make_job(ListConcatCombiner(), name="concat-window")
    with pytest.raises(CombinerContractError) as excinfo:
        Slider(job, WindowMode.FIXED)  # FIXED -> rotating tree
    message = str(excinfo.value)
    assert "'concat-window'" in message
    assert "rotating" in message


def test_slider_explicit_variant_names_job():
    job = make_job(ListConcatCombiner(), name="concat-window")
    config = SliderConfig(mode=WindowMode.VARIABLE, tree="rotating")
    with pytest.raises(CombinerContractError, match="'concat-window'"):
        Slider(job, WindowMode.VARIABLE, config=config)


def test_slider_accepts_noncommutative_in_variable_mode():
    job = make_job(ListConcatCombiner(), name="concat-window")
    Slider(job, WindowMode.VARIABLE)  # folding tree: order-preserving
