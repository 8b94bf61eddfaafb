"""The unexecuted-line gate (tests/unexecuted.py) on a small fixture module."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tests.unexecuted import (
    Entry,
    LineTracer,
    body_lines,
    is_full_run,
    parse_allow_list,
    problems,
    verdict,
)

SAMPLE = '''\
import functools

DOUBLED = [n * 2 for n in range(3)]


def used(x):
    if x > 0:
        return x + 1
    return -x


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x * 2


def never():
    value = 1
    return value


square = lambda x: x * x


class Shape:
    SIDES = [s for s in range(4)]

    def area(self):
        return sum(
            side for side in self.SIDES
        )

    def unused(self):
        return 2
'''


def line_of(text: str) -> int:
    return next(n for n, line in enumerate(SAMPLE.splitlines(), 1) if text in line)


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    spec = importlib.util.spec_from_file_location("unexecuted_sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def traced(root: Path, thunk) -> LineTracer:
    tracer = LineTracer(root)
    tracer.start()
    try:
        thunk()
    finally:
        assert tracer.stop()
    return tracer


def test_body_lines_are_function_bodies_only(sample):
    path, _ = sample
    assert body_lines(path) == {
        line_of("if x > 0"),
        line_of("return x + 1"),
        line_of("return -x"),
        line_of("return x * 2"),
        line_of("value = 1"),
        line_of("return value"),
        line_of("square = lambda"),
        line_of("return sum("),
        line_of("side for side"),
        line_of("return 2"),
    }
    # Left out: every def and decorator line, the module-level and
    # class-level comprehensions, and the class and module bodies.


def test_the_tracer_records_what_ran_and_nothing_else(sample):
    path, module = sample

    def run():
        module.used(1)
        module.decorated(3)
        module.Shape().area()
        module.square(2)

    tracer = traced(path.parent, run)
    assert tracer.unexecuted() == {
        "sample.py": {
            line_of("return -x"),
            line_of("value = 1"),
            line_of("return value"),
            line_of("return 2"),
        }
    }


def test_a_code_object_stops_being_traced_once_every_line_ran(sample):
    path, module = sample
    tracer = traced(path.parent, lambda: (module.used(1), module.square(2)))
    # `square` ran its one line; `used` still has `return -x` to see.
    assert tracer._local[id(module.square.__code__)] is None
    assert tracer._local[id(module.used.__code__)] is not None


def test_a_file_edited_after_it_ran_is_refused_by_name(sample):
    """The lines that ran are the old text's, so a file edited before the
    run is judged is named and nothing in it is judged, rather than
    reported as ranges shifted by the edit; left alone, it is judged."""
    path, module = sample
    tracer = traced(path.parent, lambda: module.used(1))
    unexecuted = tracer.unexecuted()
    assert tracer.moved() == []
    assert verdict(tracer, unexecuted, []) == problems(
        unexecuted, {"sample.py": body_lines(path)}, []
    )
    path.write_text("# a line that shifts every other\n" + SAMPLE)
    stamp = path.stat().st_mtime_ns + 10**9  # past any clock granularity
    os.utime(path, ns=(stamp, stamp))
    assert tracer.moved() == ["sample.py"]
    entries = [Entry("sample.py", 1, 2, "why")]
    assert verdict(tracer, tracer.unexecuted(), entries) == [
        "sample.py: changed on disk while the run was in progress; its "
        "lines are not judged, run again"
    ]


def test_a_replaced_tracer_is_reported(tmp_path):
    tracer = LineTracer(tmp_path)
    tracer.start()
    try:
        sys.settrace(None)
    finally:
        assert not tracer.stop()


def test_allow_list_entries_parse():
    text = (
        "# a comment line\n"
        "\n"
        "core/parallel.py:120-188  item 2: the worker side runs in forks\n"
        "bench/report.py:97   the command-line main  # trailing comment\n"
    )
    assert parse_allow_list(text) == [
        Entry("core/parallel.py", 120, 188, "item 2: the worker side runs in forks"),
        Entry("bench/report.py", 97, 97, "the command-line main"),
    ]


@pytest.mark.parametrize(
    "line",
    [
        "core/parallel.py:120-188",  # no reason
        "core/parallel.py 120-188  reason",  # no colon
        "core/parallel.py:12-x  reason",  # not a number
        "core/parallel.py:188-120  reason",  # backwards
        "core/parallel:1-2  reason",  # not a module path
    ],
)
def test_a_malformed_allow_list_line_is_an_error(line):
    with pytest.raises(ValueError, match="allow-list line 2"):
        parse_allow_list("# header\n" + line + "\n")


BODY = {"m.py": {3, 4, 5, 8, 9}}


def test_a_list_that_matches_has_no_problems():
    entries = [Entry("m.py", 4, 5, "why"), Entry("m.py", 9, 9, "why")]
    assert problems({"m.py": {4, 5, 9}}, BODY, entries) == []


def test_an_unlisted_unexecuted_line_fails():
    found = problems({"m.py": {4, 5, 9}}, BODY, [Entry("m.py", 4, 5, "why")])
    assert found == ["m.py:9-9  never ran and is not listed"]


def test_unlisted_lines_are_reported_as_ranges_broken_by_lines_that_ran():
    found = problems({"m.py": {3, 4, 9}}, BODY, [])
    assert found == [
        "m.py:3-4  never ran and is not listed",
        "m.py:9-9  never ran and is not listed",
    ]


def test_a_listed_line_that_ran_fails():
    found = problems({"m.py": {4}}, BODY, [Entry("m.py", 4, 5, "why")])
    assert found == ["m.py:4-5: listed, but line(s) [5] ran; narrow or drop the entry"]


def test_an_entry_covering_no_unexecuted_line_fails():
    found = problems({}, BODY, [Entry("m.py", 6, 7, "why")])
    assert found == ["m.py:6-7: covers no unexecuted body line; drop the entry"]


def fake_run(args_source=None, keyword="", markexpr="not soak", failed=0, **extra):
    option = SimpleNamespace(
        keyword=keyword,
        deselect=extra.get("deselect"),
        markexpr=markexpr,
        lf=extra.get("lf", False),
        stepwise=False,
        collectonly=extra.get("collectonly", False),
    )
    config = SimpleNamespace(
        args_source=args_source or pytest.Config.ArgsSource.TESTPATHS,
        option=option,
    )
    status = pytest.ExitCode.TESTS_FAILED if failed else pytest.ExitCode.OK
    return config, SimpleNamespace(testsfailed=failed, exitstatus=status)


def test_only_a_full_passing_run_is_judged():
    assert is_full_run(*fake_run())
    assert not is_full_run(*fake_run(args_source=pytest.Config.ArgsSource.ARGS))
    assert not is_full_run(*fake_run(keyword="parser"))
    assert not is_full_run(*fake_run(markexpr="soak"))
    assert not is_full_run(*fake_run(deselect=["tests/test_metrics.py"]))
    assert not is_full_run(*fake_run(lf=True))
    assert not is_full_run(*fake_run(collectonly=True))
    assert not is_full_run(*fake_run(failed=1))


def test_the_plugin_does_not_judge_a_selected_run():
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "tests.unexecuted", "-q",
            "-p", "no:cacheprovider",
            "tests/test_unexecuted.py::test_allow_list_entries_parse",
        ],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "unexecuted lines: not judged" in done.stdout
