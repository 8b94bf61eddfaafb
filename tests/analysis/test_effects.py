"""Side effects a job function may not have, as the purity walk sees them:
each write draws an error from ``analyze_callable`` on its own line, and
reads and locals draw none."""

from __future__ import annotations

import inspect

from repro.analysis import analyze_callable, analyze_functions
from repro.analysis.findings import ERROR

_COUNTER = {"n": 0}
_LIMIT = 10
_CACHE: dict = {}


def _writes_global(record):
    _COUNTER["n"] += 1
    return record


def _reads_mutable_global(record):
    return record if _COUNTER["n"] else None


def _reads_immutable_global(record):
    return record % _LIMIT


def _mutates_argument(values):
    values.append(0)
    return values


def _calls_helper(record):
    return _writes_global(record)


def _pure(record):
    total = sum(range(record))
    return total * 2


def _global_stmt():
    global _LIMIT
    _LIMIT = 11


def _touches_memo(memo, key):
    found = memo.lookup(key)
    if found is None:
        memo.store(key, 1)
    return found


def _reads_global_cache(key):
    return _CACHE.get(key)


def _does_io(record):
    print(record)
    return record


def errors_of(findings):
    return sorted((f.rule, f.line) for f in findings if f.severity == ERROR)


def line_of(fn, text):
    """The file line of ``fn``'s first source line containing ``text``."""
    lines, start = inspect.getsourcelines(fn)
    return next(start + i for i, line in enumerate(lines) if text in line)


def test_pure_function_is_effect_free():
    assert analyze_callable(_pure) == []


def test_global_write_detected():
    assert errors_of(analyze_callable(_writes_global)) == [
        ("purity.impurity.global-mutation", line_of(_writes_global, "+= 1")),
    ]


def test_global_statement_detected():
    assert errors_of(analyze_callable(_global_stmt)) == [
        ("purity.impurity.global-write", line_of(_global_stmt, "global _LIMIT")),
    ]


def test_immutable_global_read_is_effect_free():
    assert analyze_callable(_reads_immutable_global) == []


def test_argument_mutation_detected():
    assert errors_of(analyze_callable(_mutates_argument)) == [
        ("purity.impurity.arg-mutation", line_of(_mutates_argument, ".append")),
    ]


def test_helper_effects_propagate():
    findings = analyze_callable(_calls_helper)
    assert errors_of(findings) == [
        ("purity.impurity.global-mutation", line_of(_writes_global, "+= 1")),
    ]
    assert "helper of _calls_helper" in findings[0].where


def test_memo_access_detected():
    assert errors_of(analyze_callable(_touches_memo)) == [
        ("purity.impurity.memo-access", line_of(_touches_memo, ".lookup")),
        ("purity.impurity.memo-access", line_of(_touches_memo, ".store")),
    ]


def test_findings_flag_shared_writes():
    findings = analyze_functions([("map", _writes_global)])
    assert [f.rule for f in findings] == ["purity.impurity.global-mutation"]
    assert findings[0].where.endswith("_writes_global [map]")


def test_findings_flag_io():
    # one finding per call: print is I/O, reported once
    assert errors_of(analyze_functions([("map", _does_io)])) == [
        ("purity.impurity.io", line_of(_does_io, "print(")),
    ]


def test_findings_flag_memo_access():
    # a module-level cache is a memo table too; no receiver is exempt
    assert errors_of(analyze_functions([("map", _reads_global_cache)])) == [
        ("purity.impurity.memo-access", line_of(_reads_global_cache, ".get")),
    ]


def test_findings_clean_on_pure_function():
    # reading a mutable global is not a write
    assert analyze_functions([("map", _pure), ("map", _reads_mutable_global)]) == []


def test_shipped_corpus_is_effect_clean():
    from repro.analysis.targets import registry_targets

    for target in registry_targets():
        errors = errors_of(analyze_functions(target.functions))
        assert errors == [], f"{target.name}: {errors}"
