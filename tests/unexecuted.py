"""Which function-body lines under ``src/repro`` a full tier-1 run never
executes, checked against ``tests/unexecuted_allow.txt``.

An opt-in pytest plugin, standard library only::

    PYTHONPATH=src python -m pytest -p tests.unexecuted

It traces with ``sys.settrace`` (and ``threading.settrace`` for threads
started later) from before the first conftest is imported.  The lines it
counts are those of function bodies -- functions, methods, lambdas, and
comprehensions inside them -- as the interpreter's own line tables give
them; a ``def`` line, a decorator, a class body and a module's top level
are not counted.  A code object stops being traced once every one of its
body lines has run.  A forked child is traced into a copy of the record
that dies with it, so what only workers run stays unexecuted.

Only a full run on Python 3.11 is judged: no paths, ``-k``,
``--deselect``, last-failed or step-wise selection, the suite's own
``-m`` expression, and no test failed.  A judged run fails on an
unexecuted line that no allow-list entry covers, on an entry covering a
line that ran, and on an entry covering no unexecuted line.  So the list
can only shrink.  Lines are judged against the source on disk, so a file
whose modification time moved after its first code object was traced is
refused by name, and nothing in it is judged: the lines that ran are the
old text's.

An allow-list line is ``path:first-last  reason`` (or ``path:line
reason``), the path relative to ``src/repro``; ``#`` starts a comment.
"""

from __future__ import annotations

import inspect
import os
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import CodeType

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO / "src" / "repro"
ALLOW_LIST = Path(__file__).resolve().with_name("unexecuted_allow.txt")
# The marker expression pyproject.toml's addopts gives every tier-1 run.
TIER1_MARKEXPR = "not soak"
# The interpreter whose line tables the allow-list's numbers are from.
JUDGED_ON = (3, 11)

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
_ENTRY = re.compile(
    r"(?P<path>[^\s:]+\.py):(?P<first>\d+)(?:-(?P<last>\d+))?\s+(?P<reason>\S.*)"
)


def own_lines(code: CodeType) -> set[int]:
    """The body lines of one function code object: every line its line
    table names, less the first (the ``def`` or first decorator line,
    where only the frame's set-up runs) unless the body is a lambda's."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    if code.co_name != "<lambda>":
        lines.discard(code.co_firstlineno)
    return lines


def body_lines(path: Path) -> set[int]:
    """Every function-body line of the module at ``path``.  A
    comprehension at module or class level is top-level code, not a
    function body."""
    lines: set[int] = set()

    def walk(code: CodeType, in_function: bool) -> None:
        counted = bool(code.co_flags & inspect.CO_NEWLOCALS) and (
            in_function or code.co_name not in _COMPREHENSIONS
        )
        if counted:
            lines.update(own_lines(code))
        for const in code.co_consts:
            if isinstance(const, CodeType):
                walk(const, counted)

    walk(compile(path.read_text(), str(path), "exec", dont_inherit=True), False)
    return lines


class LineTracer:
    """Records, per file under ``root``, the function-body lines that ran."""

    def __init__(self, root: Path) -> None:
        self.root = str(Path(root).resolve()) + os.sep
        self.executed: dict[str, set[int]] = {}
        self._local: dict[int, object] = {}  # id(code) -> its line tracer, or None
        self._codes: list[CodeType] = []  # kept alive, so no id is reused
        # path -> its modification time when its first code object ran.
        self._stamps: dict[str, int] = {}
        self._saved: tuple = (None, None)

        local, register = self._local, self._register

        def on_call(frame, event, arg):
            try:
                return local[id(frame.f_code)]
            except KeyError:
                return register(frame.f_code)

        self.on_call = on_call

    def _register(self, code: CodeType):
        self._codes.append(code)
        local = None
        path = os.path.abspath(code.co_filename)
        if path.startswith(self.root):
            if path not in self._stamps:
                self._stamps[path] = os.stat(path).st_mtime_ns
            pending = own_lines(code)
            if pending:
                local = self._line_tracer(code, pending, path)
        self._local[id(code)] = local
        return local

    def _line_tracer(self, code: CodeType, pending: set[int], path: str):
        seen = self.executed.setdefault(path, set())
        tracers, key = self._local, id(code)

        def on_line(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                if line in pending:
                    seen.add(line)
                    pending.discard(line)
                    if not pending:
                        tracers[key] = None
                        frame.f_trace_lines = False
            return on_line

        return on_line

    def start(self) -> None:
        self._saved = (sys.gettrace(), threading.gettrace())
        threading.settrace(self.on_call)
        sys.settrace(self.on_call)

    def stop(self) -> bool:
        """Stop tracing; False when something replaced the tracer meanwhile."""
        intact = sys.gettrace() is self.on_call
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])
        return intact

    def unexecuted(self) -> dict[str, set[int]]:
        """Body lines that never ran, per path relative to ``root``."""
        missing = {}
        for path in sorted(Path(self.root).rglob("*.py")):
            lines = body_lines(path) - self.executed.get(str(path), set())
            if lines:
                missing[path.relative_to(self.root).as_posix()] = lines
        return missing

    def moved(self) -> list[str]:
        """Files, relative to ``root``, changed on disk since their first
        code object ran: their line numbers may not be those that ran."""
        return sorted(
            Path(path).relative_to(self.root).as_posix()
            for path, stamp in self._stamps.items()
            if not os.path.exists(path) or os.stat(path).st_mtime_ns != stamp
        )


@dataclass(frozen=True)
class Entry:
    path: str
    first: int
    last: int
    reason: str

    def __str__(self) -> str:
        return f"{self.path}:{self.first}-{self.last}"


def parse_allow_list(text: str) -> list[Entry]:
    """The entries of an allow-list; a malformed line is a ``ValueError``."""
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _ENTRY.fullmatch(line)
        if match is None:
            raise ValueError(
                f"allow-list line {number}: want 'path:first-last  reason', got {raw!r}"
            )
        first = int(match["first"])
        last = int(match["last"] or first)
        if last < first:
            raise ValueError(
                f"allow-list line {number}: range {first}-{last} runs backwards"
            )
        entries.append(Entry(match["path"], first, last, match["reason"].strip()))
    return entries


def ranges(lines: set[int], executed: set[int]) -> list[tuple[int, int]]:
    """``lines`` as runs that no line of ``executed`` interrupts."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and not any(runs[-1][1] < ran < line for ran in executed):
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return [(first, last) for first, last in runs]


def problems(
    unexecuted: dict[str, set[int]],
    body: dict[str, set[int]],
    entries: list[Entry],
) -> list[str]:
    """What a judged run fails on: unexecuted lines no entry covers,
    entries covering a body line that ran, and entries covering no
    unexecuted line.  ``body`` gives every body line of each entry's file."""
    found = []
    listed: dict[str, set[int]] = {}
    for entry in entries:
        span = set(range(entry.first, entry.last + 1))
        missing = unexecuted.get(entry.path, set()) & span
        ran = sorted((body.get(entry.path, set()) & span) - missing)
        if ran:
            found.append(
                f"{entry}: listed, but line(s) {ran} ran; narrow or drop the entry"
            )
        elif not missing:
            found.append(f"{entry}: covers no unexecuted body line; drop the entry")
        listed.setdefault(entry.path, set()).update(missing)
    for path, lines in unexecuted.items():
        unlisted = lines - listed.get(path, set())
        executed = body.get(path, set()) - lines
        for first, last in ranges(unlisted, executed):
            found.append(f"{path}:{first}-{last}  never ran and is not listed")
    return found


def verdict(
    tracer: LineTracer, unexecuted: dict[str, set[int]], entries: list[Entry]
) -> list[str]:
    """What a judged run fails on: each file ``tracer`` saw change on disk,
    by name, and ``problems`` over every other file."""
    moved = tracer.moved()
    unexecuted = {p: lines for p, lines in unexecuted.items() if p not in moved}
    entries = [entry for entry in entries if entry.path not in moved]
    root = Path(tracer.root)
    paths = {entry.path for entry in entries} | set(unexecuted)
    body = {  # a listed file that is gone has no body lines
        path: body_lines(root / path) for path in paths if (root / path).is_file()
    }
    refused = [
        f"{path}: changed on disk while the run was in progress; its lines "
        "are not judged, run again"
        for path in moved
    ]
    return refused + problems(unexecuted, body, entries)


def is_full_run(config, session) -> bool:
    """Whether a finished run ran the whole suite, as tier-1 selects it,
    and passed."""
    option = config.option
    return (
        config.args_source == pytest.Config.ArgsSource.TESTPATHS
        and not option.keyword
        and not option.deselect
        and option.markexpr == TIER1_MARKEXPR
        and not getattr(option, "lf", False)
        and not getattr(option, "stepwise", False)
        and not option.collectonly
        and session.testsfailed == 0
        and session.exitstatus == pytest.ExitCode.OK
    )


class _Gate:
    """The plugin's state for one run: its tracer and what it reports."""

    def __init__(self) -> None:
        self.tracer = LineTracer(SOURCE_ROOT)
        self.report: list[str] = []

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        intact = self.tracer.stop()
        if not is_full_run(session.config, session):
            self.report.append("unexecuted lines: not judged (selected or failed)")
            return
        if sys.version_info[:2] != JUDGED_ON:
            self.report.append("unexecuted lines: not judged (the list is 3.11's)")
            return
        if not intact:
            found = ["the line tracer was replaced during the run; nothing is judged"]
        else:
            unexecuted = self.tracer.unexecuted()
            entries = parse_allow_list(ALLOW_LIST.read_text())
            found = verdict(self.tracer, unexecuted, entries)
            total = sum(map(len, unexecuted.values()))
            self.report.append(
                f"unexecuted lines: {total} in {len(unexecuted)} files, "
                f"{len(entries)} allow-list entries"
            )
        if found:
            self.report.extend(found)
            self.report.append(f"unexecuted lines: FAILED, see {ALLOW_LIST.name}")
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter) -> None:
        for line in self.report:
            terminalreporter.write_line(line)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args) -> None:
    """Start tracing before the first conftest imports anything."""
    gate = _Gate()
    early_config.pluginmanager.register(gate, "unexecuted-gate")
    gate.tracer.start()
