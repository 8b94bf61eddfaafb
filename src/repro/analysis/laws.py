"""Property-based falsification of declared combiner algebra.

A :class:`~repro.mapreduce.combiners.Combiner` *declares* ``associative``
(required by every contraction tree) and ``commutative`` (additionally
required by rotating trees, whose bucket rotation reorders leaves).  The
trees believe the declaration; this harness **verifies** it, using
hypothesis to hunt for counterexamples over the combiner's reachable value
domain:

* **associativity** — ``merge(merge(a, b), c) == merge(a, merge(b, c))``;
* **commutativity** (when claimed) — ``merge(a, b) == merge(b, a)``;
* **merge/fingerprint consistency** — repeated merges of the same inputs
  produce identical, stably-hashable fingerprints (the memo table's
  content ids depend on this);
* **cost sanity** — ``value_size``/``merge_cost`` are non-negative and
  finite;
* **exactness** (when claimed) — a combiner declaring ``exact`` merges
  any re-bracketing (and, when commutative, any permutation) of the same
  leaves to an ``==`` value, over the leaf domain the declaration covers.

Values are generated as the *merge closure* of leaf values: a combiner's
laws only need to hold on values the data plane can actually produce (a
leaf emitted by Map, or a merge of such values), so each combiner supplies
a **leaf strategy** — via the registry here for the built-in combiners, or
a ``law_leaves()`` method for app-defined ones — and the harness derives
arbitrary combined values from it.

Floating-point note: float addition is not bitwise associative, so the
algebraic laws compare with a tolerance scaled by the magnitude of the
operands (:mod:`repro.common.approx`).  A mislabeled algebra
(mean-of-means, subtraction, concatenation claimed commutative) produces
operand-scale discrepancies that the tolerance never absorbs.  The
exactness law is the one that compares with ``==``: it is what licenses
``Slider.verify_outputs`` to.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.findings import ERROR, Finding
from repro.common.approx import approx_equal, magnitude
from repro.common.hashing import stable_hash
from repro.mapreduce.combiners import (
    Combiner,
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

#: The key passed to merge calls during law checks (combiners must not
#: behave differently per key in a way that breaks the algebra anyway).
LAW_KEY = "__law__"


class _LawFalsified(AssertionError):
    """Raised inside a hypothesis body; carries the counterexample text."""


# ---------------------------------------------------------------------------
# leaf strategies

LeafFactory = Callable[[Combiner], st.SearchStrategy]

#: combiner class -> (leaf factory, factory of the leaves ``exact`` covers,
#: witness leaves)
_LEAF_REGISTRY: dict[type, tuple[LeafFactory, LeafFactory, tuple]] = {}


def register_leaf_strategy(
    combiner_type: type,
    factory: LeafFactory,
    exact_leaves: LeafFactory | None = None,
    witnesses: tuple = (),
) -> None:
    """Register the leaf-value strategy for a combiner class.

    ``exact_leaves`` narrows the domain over which the class's ``exact``
    declaration is claimed (and checked); by default it is every leaf.
    ``witnesses``, three leaves of that domain whose merge re-bracketed
    differs unless the merge is exact, are tried before the search, so a
    verdict never rests on what the search happens to draw.
    App combiners can instead define a ``law_leaves()`` method returning a
    hypothesis strategy (and ``law_exact_leaves()`` to narrow it); the
    methods win over the registry.
    """
    _LEAF_REGISTRY[combiner_type] = (factory, exact_leaves or factory, witnesses)


def _numbers() -> st.SearchStrategy:
    return st.integers(-10_000, 10_000) | st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )


def _entry() -> st.SearchStrategy:
    """A (score, item) entry with a total order and exact comparisons."""
    return st.tuples(st.integers(-100, 100), st.integers(0, 100))


# Integer addition is exact; the float half re-associates.
register_leaf_strategy(
    SumCombiner, lambda c: _numbers(), lambda c: st.integers(-10_000, 10_000)
)
register_leaf_strategy(MinCombiner, lambda c: _numbers())
register_leaf_strategy(MaxCombiner, lambda c: _numbers())
# 0.1 + (0.2 + 0.7) != 1.0, the one merge's sum, whether that sum is a
# plain left fold or a compensated one (``sum`` from CPython 3.12).
_FLOAT_WITNESSES = (0.1, 0.2, 0.7)
register_leaf_strategy(
    MeanCombiner,
    lambda c: st.tuples(
        st.just(1),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
    witnesses=tuple((1, x) for x in _FLOAT_WITNESSES),
)
register_leaf_strategy(TopKCombiner, lambda c: st.tuples(_entry()))
register_leaf_strategy(KSmallestCombiner, lambda c: st.tuples(_entry()))
register_leaf_strategy(
    ListConcatCombiner,
    lambda c: st.lists(st.integers(-100, 100), max_size=4).map(tuple),
)
register_leaf_strategy(
    VectorSumCombiner,
    lambda c: st.tuples(
        st.just(1),
        st.tuples(
            *(
                st.floats(
                    min_value=-1e3,
                    max_value=1e3,
                    allow_nan=False,
                    allow_infinity=False,
                )
                for _ in range(3)
            )
        ),
    ),
    witnesses=tuple((1, (x, x, x)) for x in _FLOAT_WITNESSES),
)


register_leaf_strategy(
    SetUnionCombiner, lambda c: st.frozensets(st.integers(0, 100), max_size=5)
)


def _registered(combiner: Combiner) -> tuple | None:
    """The registry entry nearest ``combiner``'s class in its MRO, if any."""
    entries = map(_LEAF_REGISTRY.get, type(combiner).__mro__)
    return next((entry for entry in entries if entry is not None), None)


def leaf_strategy_for(
    combiner: Combiner, exact: bool = False
) -> st.SearchStrategy | None:
    """The leaf-value strategy for ``combiner``, or None when unknown;
    with ``exact``, the leaves its ``exact`` declaration covers."""
    law_leaves = getattr(combiner, "law_leaves", None)
    if callable(law_leaves):
        if exact:
            law_leaves = getattr(combiner, "law_exact_leaves", law_leaves)
        return law_leaves()
    entry = _registered(combiner)
    return None if entry is None else entry[exact](combiner)


def value_strategy_for(combiner: Combiner) -> st.SearchStrategy | None:
    """Arbitrary *combined* values: the merge closure of leaf values."""
    leaves = leaf_strategy_for(combiner)
    if leaves is None:
        return None

    def close(leaf_list: list) -> Any:
        if len(leaf_list) == 1:
            return leaf_list[0]
        return combiner.merge(LAW_KEY, leaf_list)

    return st.lists(leaves, min_size=1, max_size=3).map(close)


class _Bracket(list):
    """An inner node of a re-bracketing (leaves may be lists themselves)."""


def rearranged_strategy_for(combiner: Combiner) -> st.SearchStrategy:
    """``(leaves, the same leaves re-bracketed)`` over the domain the
    combiner's ``exact`` declaration covers; permuted as well when it is
    commutative."""
    leaves = leaf_strategy_for(combiner, exact=True)

    @st.composite
    def rearranged(draw: Any) -> tuple[list, Any]:
        flat = draw(st.lists(leaves, min_size=2, max_size=6))
        order = draw(st.permutations(flat)) if combiner.commutative else flat

        def bracket(items: list) -> Any:
            if len(items) == 1:
                return items[0]
            cut = draw(st.integers(1, len(items) - 1))
            return _Bracket([bracket(items[:cut]), bracket(items[cut:])])

        return flat, bracket(list(order))

    return rearranged()


def _exactness_witnesses(combiner: Combiner) -> list[tuple]:
    """Exactness-check arguments from registered witnesses ``a, b, c``: their
    one merge against ``merge(a, merge(b, c))``; none under ``law_leaves()``."""
    entry = _registered(combiner)
    if entry is None or not entry[2] or hasattr(combiner, "law_leaves"):
        return []
    a, b, c = entry[2]
    return [(([a, b, c], _Bracket([a, _Bracket([b, c])])),)]


# ---------------------------------------------------------------------------
# the laws


def _merge(combiner: Combiner, *values: Any) -> Any:
    return combiner.merge(LAW_KEY, list(values))


def _fingerprints_match(combiner: Combiner, x: Any, y: Any, scale: float) -> bool:
    return approx_equal(
        combiner.fingerprint(x), combiner.fingerprint(y), scale=scale
    )


def _check_law(
    name: str,
    where: str,
    strategies: tuple[st.SearchStrategy, ...],
    body: Callable[..., None],
    max_examples: int,
    witnesses: Sequence[tuple] = (),
) -> Finding | None:
    """Run one law on ``witnesses`` (the arguments of a check each), then
    under hypothesis; a Finding means it was falsified."""

    configure = settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.filter_too_much,
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )

    # hypothesis rejects varargs test functions: draw the values as one tuple.
    @configure
    @given(st.tuples(*strategies))
    def run(values: tuple) -> None:
        body(*values)

    try:
        for witness in witnesses:
            body(*witness)
        run()
    except _LawFalsified as counterexample:
        return Finding(
            rule=f"laws.{name}",
            message=str(counterexample),
            where=where,
            severity=ERROR,
        )
    except Exception as crash:  # merge itself blew up on a legal value
        return Finding(
            rule=f"laws.{name}",
            message=f"law check crashed: {type(crash).__name__}: {crash}",
            where=where,
            severity=ERROR,
        )
    return None


def check_combiner_laws(
    combiner: Combiner,
    *,
    where: str | None = None,
    max_examples: int = 60,
) -> list[Finding]:
    """Property-test every law ``combiner`` declares; return violations.

    An unknown value domain (no registry entry, no ``law_leaves`` method)
    yields a single warning finding rather than silently passing.
    """
    label = where or f"{type(combiner).__module__}.{type(combiner).__qualname__}"
    values = value_strategy_for(combiner)
    if values is None:
        return [
            Finding(
                rule="laws.no-strategy",
                message=(
                    "no value strategy known — register one with "
                    "repro.analysis.laws.register_leaf_strategy or define "
                    "law_leaves() on the combiner"
                ),
                where=label,
                severity="warning",
            )
        ]

    findings: list[Finding] = []

    def associativity(a: Any, b: Any, c: Any) -> None:
        scale = max(magnitude(a), magnitude(b), magnitude(c))
        left = _merge(combiner, _merge(combiner, a, b), c)
        right = _merge(combiner, a, _merge(combiner, b, c))
        if not _fingerprints_match(combiner, left, right, scale):
            raise _LawFalsified(
                f"declared associative, but merge(merge(a,b),c) != "
                f"merge(a,merge(b,c)) for a={a!r}, b={b!r}, c={c!r}: "
                f"{left!r} != {right!r}"
            )

    def commutativity(a: Any, b: Any) -> None:
        scale = max(magnitude(a), magnitude(b))
        left = _merge(combiner, a, b)
        right = _merge(combiner, b, a)
        if not _fingerprints_match(combiner, left, right, scale):
            raise _LawFalsified(
                f"declared commutative, but merge(a,b) != merge(b,a) for "
                f"a={a!r}, b={b!r}: {left!r} != {right!r}"
            )

    def consistency(a: Any, b: Any) -> None:
        scale = max(magnitude(a), magnitude(b))
        first = _merge(combiner, a, b)
        second = _merge(combiner, a, b)
        if not _fingerprints_match(combiner, first, second, scale):
            raise _LawFalsified(
                f"merge is not deterministic: two merges of a={a!r}, "
                f"b={b!r} fingerprint differently: "
                f"{combiner.fingerprint(first)!r} != "
                f"{combiner.fingerprint(second)!r}"
            )
        try:
            stable_hash(combiner.fingerprint(first))
        except TypeError as exc:
            raise _LawFalsified(
                f"fingerprint of merged value is not stably hashable "
                f"for a={a!r}, b={b!r}: {exc}"
            ) from None

    def cost_sanity(a: Any, b: Any) -> None:
        merged = _merge(combiner, a, b)
        for value in (a, b, merged):
            size = combiner.value_size(value)
            if not (size >= 0.0) or math.isinf(size) or math.isnan(size):
                raise _LawFalsified(
                    f"value_size must be finite and non-negative, got "
                    f"{size!r} for value {value!r}"
                )
        cost = combiner.merge_cost(LAW_KEY, [a, b])
        if not (cost >= 0.0) or math.isinf(cost) or math.isnan(cost):
            raise _LawFalsified(
                f"merge_cost must be finite and non-negative, got {cost!r} "
                f"for values {a!r}, {b!r}"
            )

    def fold(node: Any) -> Any:
        if type(node) is _Bracket:
            return _merge(combiner, *map(fold, node))
        return node

    def exactness(rearranged: tuple[list, Any]) -> None:
        flat, tree = rearranged
        whole, nested = _merge(combiner, *flat), fold(tree)
        if whole != nested:
            raise _LawFalsified(
                f"declared exact, but one merge of {flat!r} != the merge "
                f"re-bracketed as {tree!r}: {whole!r} != {nested!r}"
            )

    if combiner.associative:
        finding = _check_law(
            "associativity", label, (values, values, values), associativity,
            max_examples,
        )
        if finding:
            findings.append(finding)
    if combiner.commutative:
        finding = _check_law(
            "commutativity", label, (values, values), commutativity, max_examples
        )
        if finding:
            findings.append(finding)
    finding = _check_law(
        "merge-consistency", label, (values, values), consistency, max_examples
    )
    if finding:
        findings.append(finding)
    finding = _check_law(
        "cost-sanity", label, (values, values), cost_sanity, max_examples
    )
    if finding:
        findings.append(finding)
    if combiner.exact:
        finding = _check_law(
            "exactness", label, (rearranged_strategy_for(combiner),), exactness,
            max_examples, _exactness_witnesses(combiner),
        )
        if finding:
            findings.append(finding)
    return findings
