"""The combine kernel prices a unit combiner by counts, bit for bit.

``combine_charged`` calls a combiner that keeps ``Combiner``'s pricing
(``value_size`` and ``merge_cost`` overridden nowhere) only to merge: a
merge is charged ``float(len(values))``, a copy-through ``0.1``.  These
tests hold its entries, uid and charged float to a reference that calls
the cost hooks on every key, as every combine did before, over combiners
that override nothing, one hook, a hook on the instance, and the shipped
ones; and they count that a steady histogram advance calls neither hook.
Two inputs of such a combiner take one of two pair ways: the pair path
at ``_PAIR_PATH_MIN_KEYS`` keys or more between them, the small-pair
loop below; both are held to the same reference on both sides of that
gate, and the pair path is counted to make its per-key calls at merged
keys only.
"""

from __future__ import annotations

import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APP_REGISTRY
from repro.core.partition import (
    _PAIR_PATH_MIN_KEYS,
    Partition,
    _fingerprint_entries,
    _merge_pair,
    combine_charged,
)
from repro.mapreduce.combiners import (
    Combiner,
    CountCombiner,
    KSmallestCombiner,
    ListConcatCombiner,
    MaxCombiner,
    MeanCombiner,
    MinCombiner,
    SetUnionCombiner,
    SumCombiner,
    TopKCombiner,
    VectorSumCombiner,
)
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import count_digests, profile_calls


def _reference(partitions, combiner, cost_factor, overhead):
    """The combine as it was: both cost hooks called on every key, and
    the result fingerprinted afresh."""
    non_empty = [p for p in partitions if p]
    if len(non_empty) < 2:
        return (non_empty[0] if non_empty else Partition.empty()), 0.0
    gathered: dict = {}
    for partition in non_empty:
        for key, value in partition.entries.items():
            gathered.setdefault(key, []).append(value)
    entries, cost = {}, 0.0
    for key, values in gathered.items():
        if len(values) == 1:
            entries[key] = values[0]
            cost += combiner.value_size(values[0]) * 0.1
        else:
            entries[key] = combiner.merge(key, values)
            cost += combiner.merge_cost(key, values)
    uid = _fingerprint_entries(entries)
    return Partition(entries, uid=uid), cost * cost_factor + overhead


class _Sized(SumCombiner):
    """Overrides ``value_size`` only."""

    def value_size(self, value) -> float:
        return 0.75 + (value % 5) * 0.3


class _Costed(SumCombiner):
    """Overrides ``merge_cost`` only."""

    def merge_cost(self, key, values) -> float:
        return 0.3 * len(values) + 0.7


def _with_instance_hook(name: str, hook) -> SumCombiner:
    combiner = SumCombiner()
    setattr(combiner, name, hook)
    return combiner


_ints = st.integers(-50, 50)
_pairs = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from("abc")), max_size=3
).map(lambda items: tuple(sorted(items, key=lambda e: (-e[0], e[1:]))))

#: name -> (combiner, value strategy, priced by count?)
COMBINERS = {
    "overrides-nothing": (SumCombiner(), _ints, True),
    "count": (CountCombiner(), _ints, True),
    "min": (MinCombiner(), _ints, True),
    "max": (MaxCombiner(), _ints, True),
    "mean": (MeanCombiner(), st.tuples(st.integers(1, 4), _ints), True),
    "value-size-only": (_Sized(), _ints, False),
    "merge-cost-only": (_Costed(), _ints, False),
    "instance-merge-cost": (
        _with_instance_hook("merge_cost", lambda key, values: 0.25 * len(values)),
        _ints,
        False,
    ),
    "instance-value-size": (
        _with_instance_hook("value_size", lambda value: 1.5),
        _ints,
        False,
    ),
    "top-k": (TopKCombiner(3), _pairs, False),
    "k-smallest": (KSmallestCombiner(2), _pairs, False),
    "set-union": (
        SetUnionCombiner(),
        st.frozensets(st.integers(0, 9), max_size=4),
        False,
    ),
    "list-concat": (ListConcatCombiner(), _pairs, False),
    "vector-sum": (
        VectorSumCombiner(),
        st.tuples(
            st.integers(1, 5),
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3
            ).map(tuple),
        ),
        False,
    ),
}


@st.composite
def combines(draw):
    name = draw(st.sampled_from(sorted(COMBINERS)))
    combiner, values, _ = COMBINERS[name]
    arity = draw(st.integers(1, 4))
    keys = [f"k{i}" for i in range(draw(st.integers(0, 30)))]
    partitions = []
    for _ in range(arity):
        held = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
        partitions.append(Partition({key: draw(values) for key in held}))
    cost_factor = draw(st.sampled_from([1.0, 0.37, 2.5]))
    overhead = draw(st.sampled_from([0.0, 1.25]))
    return name, partitions, cost_factor, overhead


@settings(max_examples=300, deadline=None)
@given(case=combines())
def test_the_kernel_is_the_per_key_reference_to_the_bit(case):
    name, partitions, cost_factor, overhead = case
    combiner = COMBINERS[name][0]
    result, charged = combine_charged(
        partitions, combiner, cost_factor=cost_factor, invocation_overhead=overhead
    )
    expected, expected_charge = _reference(
        partitions, combiner, cost_factor, overhead
    )
    assert result.entries == expected.entries
    assert list(result.entries) == list(expected.entries)  # gather order
    assert result.uid == expected.uid
    assert charged.hex() == expected_charge.hex()
    for partition in partitions:
        weight = sum(combiner.value_size(v) for v in partition.entries.values())
        assert partition.record_weight(combiner) == weight


def test_only_combiners_that_override_no_hook_are_priced_by_count():
    from repro.core.partition import _priced_by_count

    for name, (combiner, _, by_count) in COMBINERS.items():
        assert _priced_by_count(combiner) is by_count, name
    assert _priced_by_count(APP_REGISTRY["hct"].make_job().combiner)
    assert not _priced_by_count(APP_REGISTRY["kmeans"].make_job().combiner)


def _hct_engine() -> tuple[Slider, list]:
    spec = APP_REGISTRY["hct"]
    mode = WindowMode.VARIABLE
    engine = Slider(
        spec.make_job(), mode, config=SliderConfig(mode=mode, tree="folding")
    )
    splits = spec.make_splits(60, 17, 0)
    engine.initial_run(splits[:16])
    return engine, splits[16:]


def test_a_steady_histogram_advance_prices_by_count_and_hashes_no_length(
    monkeypatch, length_terms
):
    """The hct job's ``SumCombiner`` overrides neither cost hook: its
    merges are charged from counts and nothing calls ``merge_cost`` or
    ``value_size``.  A folding tree reads no uid, so an advance makes no
    fingerprint: no length term and no entry digest."""
    engine, incoming = _hct_engine()
    try:
        for split in incoming[:24]:  # warm-up
            engine.advance([split], 1)
        steady = iter(incoming[24:])
        for hook in (Combiner.merge_cost, Combiner.value_size):
            _, _, calls = profile_calls(
                lambda: engine.advance([next(steady)], 1), hook.__code__
            )
            assert calls == 0, hook.__qualname__
        assert not length_terms  # none made since the cache was emptied
        digests, _ = count_digests(monkeypatch)
        for split in steady:
            engine.advance([split], 1)
        assert digests == []
        engine.verify_outputs()
    finally:
        engine.close()


class _Recording(SumCombiner):
    """Keeps ``Combiner``'s pricing and records every ``merge`` call."""

    def __init__(self) -> None:
        self.calls: list = []

    def merge(self, key, values):
        self.calls.append((key, list(values)))
        return super().merge(key, values)


#: name -> (combiner class, value drawn from a ``random.Random``)
PAIR_COMBINERS = {
    "sum": (SumCombiner, lambda rng: rng.randint(-50, 50)),
    "count": (CountCombiner, lambda rng: rng.randint(1, 9)),
    "mean": (MeanCombiner, lambda rng: (rng.randint(1, 4), rng.uniform(-9, 9))),
    "min": (MinCombiner, lambda rng: rng.randint(-50, 50)),
    "recording": (_Recording, lambda rng: rng.randint(-50, 50)),
}


@st.composite
def pair_combines(draw):
    """Two inputs of a count-priced combiner, 0-300 keys a side, with the
    shared keys laid out as ``layout`` says: anywhere, at the first and
    last of the first input's places, all of them, or none."""
    name = draw(st.sampled_from(sorted(PAIR_COMBINERS)))
    value = PAIR_COMBINERS[name][1]
    size = st.one_of(st.integers(0, 300), st.integers(20, 44))  # near the gate
    n_first, n_new = draw(size), draw(size)
    layout = draw(st.sampled_from(["random", "ends", "all", "disjoint"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    first_keys = [f"a{i}" for i in range(n_first)]
    if layout == "random":
        share = draw(st.floats(0.0, 1.0))
        shared = [key for key in first_keys if rng.random() < share]
    elif layout == "ends":
        shared = sorted({*first_keys[:1], *first_keys[-1:]})
    elif layout == "all":
        shared = list(first_keys)
    else:
        shared = []
    second_keys = shared + [f"b{i}" for i in range(n_new)]
    rng.shuffle(second_keys)
    partitions = [
        Partition({key: value(rng) for key in first_keys}),
        Partition({key: value(rng) for key in second_keys}),
    ]
    cost_factor = draw(st.sampled_from([1.0, 0.37, 2.5]))
    overhead = draw(st.sampled_from([0.0, 1.25]))
    return name, partitions, cost_factor, overhead


@settings(max_examples=200, deadline=None)
@given(case=pair_combines())
def test_the_pair_path_is_the_per_key_reference_to_the_bit(case):
    """Either pair way -- the pair path or the small-pair loop -- gives
    the reference's entries, gather order, value types, uid, charge and
    ``merge`` calls, and the gate picks which one runs.  A single
    non-empty input takes neither and gathers nothing either: it passes
    through."""
    name, partitions, cost_factor, overhead = case
    kind = PAIR_COMBINERS[name][0]
    combiner, reference = kind(), kind()
    (result, charged), _, pair_calls = profile_calls(
        lambda: combine_charged(
            partitions,
            combiner,
            cost_factor=cost_factor,
            invocation_overhead=overhead,
        ),
        _merge_pair.__code__,
    )
    expected, expected_charge = _reference(
        partitions, reference, cost_factor, overhead
    )
    assert result.entries == expected.entries
    assert list(result.entries) == list(expected.entries)  # gather order
    assert [type(v) for v in result.entries.values()] == [
        type(v) for v in expected.entries.values()
    ]
    assert result.uid == expected.uid
    assert charged.hex() == expected_charge.hex()
    if name == "recording":
        assert combiner.calls == reference.calls
    gathers = _gathered_keys(
        lambda: combine_charged(
            partitions,
            kind(),
            cost_factor=cost_factor,
            invocation_overhead=overhead,
        )
    )
    first, second = partitions
    pair = bool(first) and bool(second)
    wide = len(first) + len(second) >= _PAIR_PATH_MIN_KEYS
    # Two non-empty inputs take exactly one pair way, by the gate: the
    # pair path, or below it the small-pair loop, which gathers no key.
    assert pair_calls == int(pair and wide)
    assert gathers == 0


def _gathered_keys(thunk) -> int:
    """Keys ``thunk``'s combines gathered: the general loop's
    ``dict.setdefault`` calls, one a key it meets; neither pair way
    makes one."""
    calls = 0

    def on_event(frame, event, arg) -> None:
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", "") == "setdefault":
            calls += 1

    sys.setprofile(on_event)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


def _pair_with_copies(copied: int, merged: int = 16) -> list[Partition]:
    """Two partitions sharing ``merged`` keys, with ``copied`` keys held
    by one of them only, half on each side."""
    shared = [f"s{i}" for i in range(merged)]
    first = {f"a{i}": i for i in range(copied // 2)}
    first.update((key, 1) for key in shared)
    second = {key: 2 for key in shared}
    second.update((f"b{i}", i) for i in range(copied - copied // 2))
    return [Partition(first), Partition(second)]


def test_a_pair_combine_makes_its_calls_per_merged_key_not_per_key():
    """Interpreter events of a two-input ``SumCombiner`` combine, as a
    count: the same for 16 merged keys among 1 000 copied ones as among
    20 000.  (The gather loop made a ``setdefault`` and an ``append`` a
    key.)"""
    counts = []
    for copied in (1_000, 20_000):
        partitions = _pair_with_copies(copied)
        combine = lambda: combine_charged(partitions, SumCombiner())  # noqa: E731
        expected, _ = _reference(partitions, SumCombiner(), 1.0, 0.0)
        result, _ = combine()  # warm: every length term is cached after it
        assert result == expected
        _, events, _ = profile_calls(combine)
        counts.append(events)
    assert counts[0] == counts[1]
