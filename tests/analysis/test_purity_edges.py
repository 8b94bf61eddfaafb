"""Purity-checker edge cases: lambdas in default arguments, comprehension
scoping, walrus assignments, and decorated helpers.

Each case pins down behavior the main suite's one-rule-per-fixture layout
does not exercise: constructs where scoping or source extraction could
plausibly confuse the AST walker into a false positive or a miss."""

from __future__ import annotations

import functools
import math
import os
import random
import sys

import pytest

from repro.analysis import analyze_callable
from repro.common.hashing import stable_hash


def rules_of(findings):
    return sorted({f.rule for f in findings})


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


# -- lambdas in default arguments -------------------------------------------


def _default_lambda_clean(record, key=lambda r: r % 4):
    return [(key(record), 1)]


def _default_lambda_dirty(record, jitter=lambda: random.random()):
    return [(record, jitter())]


def test_clean_lambda_default_is_clean():
    assert errors_of(analyze_callable(_default_lambda_clean)) == []


def test_dirty_lambda_default_is_flagged():
    findings = analyze_callable(_default_lambda_dirty)
    assert any("random" in rule for rule in rules_of(findings))


def test_lambda_value_analyzes_standalone():
    # the lambda expression itself, extracted by line+argcount
    fn = _default_lambda_dirty.__defaults__[0]
    findings = analyze_callable(fn)
    assert any("random" in rule for rule in rules_of(findings))


# -- comprehension scoping ---------------------------------------------------


def _comprehension_shadows_param(records):
    # the comprehension target shadows nothing and leaks nothing (py3
    # scoping); must not be mistaken for a global read or arg mutation
    return [record * 2 for record in records]


def _nested_comprehension(records):
    return {
        key: [value + 1 for value in values]
        for key, values in records
    }


def _comprehension_over_global(records):
    return [r for r in records if r in _LOOKUP]


_LOOKUP = {1, 2, 3}  # module-level; reads are fine, iteration order is not


def _comprehension_orders_set(records):
    return sorted({r for r in records})  # sorting a set comp: deterministic


def test_comprehension_targets_are_local():
    assert errors_of(analyze_callable(_comprehension_shadows_param)) == []


def test_nested_comprehension_is_clean():
    assert errors_of(analyze_callable(_nested_comprehension)) == []


def test_comprehension_membership_against_global_is_clean():
    assert errors_of(analyze_callable(_comprehension_over_global)) == []


def test_sorted_set_comprehension_is_clean():
    # sorting canonicalizes the set's order; must not fire set-order rule
    findings = analyze_callable(_comprehension_orders_set)
    assert errors_of(findings) == []


# -- walrus assignments ------------------------------------------------------


def _walrus_local(records):
    out = []
    for r in records:
        if (doubled := r * 2) > 4:
            out.append(doubled)
    return out


def _walrus_in_comprehension(records):
    return [y for r in records if (y := r + 1) > 0]


def _walrus_feeding_random(records):
    return [(r, x) for r in records if (x := random.random()) > 0.5]


def test_walrus_target_is_local():
    assert errors_of(analyze_callable(_walrus_local)) == []


def test_walrus_in_comprehension_is_local():
    assert errors_of(analyze_callable(_walrus_in_comprehension)) == []


def test_walrus_value_still_checked():
    findings = analyze_callable(_walrus_feeding_random)
    assert any("random" in rule for rule in rules_of(findings))


# -- decorated helpers -------------------------------------------------------


def _passthrough(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@_passthrough
def _decorated_clean(record):
    return record + 1


@_passthrough
def _decorated_dirty(record):
    return record + random.random()


def _calls_decorated_helper(record):
    return _decorated_dirty(record)


def test_decorated_clean_helper_is_clean():
    assert errors_of(analyze_callable(_decorated_clean)) == []


def test_decorated_dirty_helper_is_flagged():
    # source extraction must see through functools.wraps
    findings = analyze_callable(_decorated_dirty)
    assert any("random" in rule for rule in rules_of(findings))


def test_dirty_decorated_helper_propagates_to_caller():
    findings = analyze_callable(_calls_decorated_helper)
    assert any("random" in rule for rule in rules_of(findings))


def test_partial_of_decorated_function_unwraps():
    bound = functools.partial(_decorated_dirty, 3)
    findings = analyze_callable(bound)
    assert any("random" in rule for rule in rules_of(findings))


# -- functions the walker cannot read ----------------------------------------


def _renamed(record):
    return record


_renamed.__name__ = "not_in_its_source"


def _empty_cell():
    """A closure whose cell is never filled: ``later`` is bound after the
    return, so ``inspect.getclosurevars`` raises on the empty cell."""

    def uses_later(record):
        return later(record)

    return uses_later
    later = None


def test_unreadable_functions_are_reported_not_guessed():
    no_module = eval("lambda record: record", {})
    # A lambda whose module has no lambda on its first line.
    misplaced = eval("lambda record: record", {"__name__": __name__})
    for fn, message in [
        (no_module, "source unavailable"),
        (misplaced, "could not locate"),
        (_renamed, "could not locate"),
    ]:
        (finding,) = analyze_callable(fn)
        assert finding.rule == "purity.unanalyzable"
        assert finding.severity == "info"
        assert message in finding.message


def test_an_empty_closure_cell_still_analyzes():
    assert analyze_callable(_empty_cell()) == []


# -- rules the one-rule-per-fixture suite does not reach ---------------------


def _star_args(*rows, **options):
    rows[0].append(options)


def _deletes_from_argument(record):
    del record[0]


def _pops_without_argument(items):
    return items.pop()


def _reads_a_memo(state, key):
    return state.memo_table.lookup(key)


def _imports_inside(record):
    import json
    from math import floor

    return json.dumps(floor(record))


def _unknown_module_attribute(record):
    return math.no_such_function(record)


def _os_name_helper_is_pure(record):
    return os.fspath(str(record))


def _os_call_is_io(record):
    return os.getcwd() + str(record)


def _sys_exit_is_io(record):
    sys.exit(record)


def _hashing_helper_is_trusted(record):
    return stable_hash(record)


@pytest.mark.parametrize(
    "fn,rules",
    [
        (_star_args, ["purity.impurity.arg-mutation"]),
        (_deletes_from_argument, ["purity.impurity.arg-mutation"]),
        (_pops_without_argument, ["purity.nondeterminism.iteration-order"]),
        (_reads_a_memo, ["purity.impurity.memo-access"]),
        (_imports_inside, []),
        (_unknown_module_attribute, []),
        (_os_name_helper_is_pure, []),
        (_os_call_is_io, ["purity.impurity.io"]),
        (_sys_exit_is_io, ["purity.impurity.io"]),
        (_hashing_helper_is_trusted, []),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_rule_edges(fn, rules):
    assert rules_of(analyze_callable(fn)) == rules
