"""Each purity/determinism rule fires on its intentional-violation fixture,
and stays silent on the clean corpus."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_callable, analyze_functions
from repro.apps.registry import APP_REGISTRY

from tests.analysis import purity_fixtures as fx


def rules_of(fn) -> set[str]:
    return {finding.rule for finding in analyze_callable(fn)}


VIOLATIONS = [
    (fx.unseeded_random, "purity.nondeterminism.random"),
    (fx.unseeded_numpy_random, "purity.nondeterminism.random"),
    (fx.reads_clock, "purity.nondeterminism.time"),
    (fx.reads_wallclock_datetime, "purity.nondeterminism.time"),
    (fx.draws_entropy, "purity.nondeterminism.entropy"),
    (fx.draws_secrets, "purity.nondeterminism.entropy"),
    (fx.fresh_uuid, "purity.nondeterminism.entropy"),
    (fx.uses_builtin_hash, "purity.nondeterminism.hash"),
    (fx.uses_id, "purity.nondeterminism.id"),
    (fx.iterates_set, "purity.nondeterminism.iteration-order"),
    (fx.pops_dict_item, "purity.nondeterminism.iteration-order"),
    (fx.writes_global, "purity.impurity.global-write"),
    (fx.mutates_argument, "purity.impurity.arg-mutation"),
    (fx.assigns_into_argument, "purity.impurity.arg-mutation"),
    (fx.does_console_io, "purity.impurity.io"),
    (fx.opens_file, "purity.impurity.io"),
    (fx.shells_out, "purity.impurity.io"),
    (fx.closure_nonlocal_write, "purity.impurity.global-write"),
    (fx.violation_in_helper, "purity.nondeterminism.random"),
    (fx.mutates_global, "purity.impurity.global-mutation"),
    (fx.reads_memo, "purity.impurity.memo-access"),
]

CLEAN = [
    fx.clean_map,
    fx.clean_seeded_rng,
    fx.clean_stable_hash,
    fx.clean_sorted_set,
    fx.clean_local_mutation,
    fx.clean_seeded_numpy,
    fx.clean_local_dict,
    fx.clean_reads_mutable_global,
    # The shipped split-at-a-time kernel, helper and scalar fallback included.
    APP_REGISTRY["kmeans"].make_job().map_split_fn,
]


@pytest.mark.parametrize(
    "fn,rule", VIOLATIONS, ids=[fn.__name__ for fn, _ in VIOLATIONS]
)
def test_rule_fires(fn, rule):
    assert rule in rules_of(fn), (
        f"{fn.__name__} should trigger {rule}, got {rules_of(fn)}"
    )


@pytest.mark.parametrize("fn", CLEAN, ids=[fn.__name__ for fn in CLEAN])
def test_clean_functions_stay_clean(fn):
    findings = analyze_callable(fn)
    assert findings == [], [f.render() for f in findings]


def test_findings_carry_location():
    findings = analyze_callable(fx.unseeded_random)
    assert findings
    finding = findings[0]
    assert finding.where.endswith("unseeded_random")
    assert "purity_fixtures" in finding.location()
    assert finding.line > 0


def test_analyze_functions_batches_roles():
    report_findings = analyze_functions(
        [("map", fx.unseeded_random), ("reduce", fx.clean_map)]
    )
    assert all("unseeded_random" in f.where for f in report_findings)


def test_builtin_callables_are_skipped():
    # C-level callables have no AST; the checker must not crash or flag.
    assert analyze_callable(len) == []
    assert analyze_callable(max) == []
