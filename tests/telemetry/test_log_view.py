"""Neither a combine nor a tree level opens a span: a level's tasks are
the log records its mark covers.

Every node of a contraction tree — combine, pass-through, memo read,
strawman visit — is one record of the run's log and no ``Span``; each
level's sweep is a :class:`~repro.telemetry.LevelMark` on that log, which
keeps the range of records the sweep appended and the work it charged,
and :func:`~repro.telemetry.per_level_table` and the Chrome trace read
the level there.  The digests below were taken while each node still
opened a ``TASK`` span of its own and each level a span: the view reads
what the spans read.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.registry import micro_benchmark_apps
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import Telemetry, per_level_table
from repro.telemetry.export import export_micro_benchmark_trace
from tests.oracle.fleet import VARIANTS, count_job, split_of

#: Per variant, the window's motions after an initial run of 16 splits.
MOTIONS = {
    WindowMode.APPEND: [(1, 0), (2, 0), (1, 0), (3, 0)] * 3,
    WindowMode.FIXED: [(1, 1)] * 12,
    WindowMode.VARIABLE: [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] * 2,
}

#: sha256 of ``repr`` of :func:`_rows` of every run of :func:`_run`, then
#: of the whole recorder, taken while every node opened a ``TASK`` span.
LEVEL_ROWS = {
    "folding": "806bb1c5ce150fb020e2a54b3a95c38a697b2cc6b609ce6d82af85c4e20cc4b9",
    "randomized": "b684200c43fb383c9947e83d707a8554c0a4acecc69538c060602d3e3e9dfefb",
    "strawman": "cb24ff58c98fe40e8e9383654ded9a5cf20dac9226f395b5ca107e6cf774fd54",
    "rotating": "a69ac7e6c60f09692a2af24f9f219651b12aa774f0422b400582f6fb62876ab0",
    "coalescing": "2d2d5c4b63a26d5ba5f2d274cf94b4f85a41b0117760fe740f7e3eca7de74e4f",
}
#: The same, for the background phases of a split-mode rotating tree.
BACKGROUND_ROWS = "fd26bcae72b4f5d744f2f259f5afbe754efc4210ff2cd1e88330739aff0eba39"
#: sha256 of the JSON of the event list of ``export_micro_benchmark_trace``.
MICRO_TRACE = "edd8656c94c98818c0b3d6580feceb808d71782bd743a7476b6b01aed38dcfe4"


def _run(
    variant: str,
    mode: WindowMode,
    split_mode: bool = False,
    window: int = 16,
    **config,
) -> tuple[Telemetry, Slider]:
    telemetry = Telemetry(label="log-view")
    engine = Slider(
        count_job(),
        mode,
        SliderConfig(mode=mode, tree=variant, split_mode=split_mode, **config),
        telemetry=telemetry,
    )
    engine.initial_run([split_of(i) for i in range(window)])
    i = window
    for add, remove in MOTIONS[mode]:
        if split_mode:
            engine.background_preprocess()
        engine.advance([split_of(j) for j in range(i, i + add)], remove)
        i += add
    return telemetry, engine


def _rows(rows) -> list:
    return [
        (r.level, r.spans, r.tasks, r.work.hex(),
         [(p.value, v.hex()) for p, v in r.by_phase.items()])
        for r in rows
    ]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize(
    "variant,mode", VARIANTS, ids=[f"{v}-{m.value}" for v, m in VARIANTS]
)
def test_level_rows_read_what_task_spans_read(variant, mode):
    telemetry, engine = _run(variant, mode, execution_backend="inprocess")
    engine.close()
    rows = [_rows(per_level_table(run)) for run in telemetry.root.children]
    rows.append(_rows(per_level_table(telemetry)))
    assert _digest(rows) == LEVEL_ROWS[variant]


def test_background_levels_are_read_from_a_log_of_their_own():
    """A split-mode rotating tree sweeps levels between runs: those nodes
    are logged apart from any run, and no log is left open."""
    telemetry, engine = _run(
        "rotating", WindowMode.FIXED, split_mode=True,
        execution_backend="inprocess",
    )
    assert not engine.executor.active
    engine.close()
    backgrounds = [c for c in telemetry.root.children if c.name == "background"]
    rows = [_rows(per_level_table(b)) for b in backgrounds]
    assert any(rows)
    assert _digest(rows) == BACKGROUND_ROWS


def test_micro_benchmark_trace_reads_what_task_spans_read(tmp_path, monkeypatch):
    # Pinned in process: under another default backend the run stays in
    # process too, but counts why, and those counter samples are events.
    monkeypatch.setenv("REPRO_EXECUTION_BACKEND", "inprocess")
    trace = export_micro_benchmark_trace(str(tmp_path / "trace.json"))
    events = json.dumps(trace["traceEvents"]).encode()
    assert hashlib.sha256(events).hexdigest() == MICRO_TRACE


class _Ledger(Telemetry):
    """Notes every charge made while a log is open, with the number of
    records the log held then: a node's charge is the last one noted
    before its record."""

    def __init__(self) -> None:
        super().__init__(label="ledger")
        self.executor = None
        self.charges: list[tuple[int, object, float]] = []

    def charge(self, phase, amount) -> None:
        super().charge(phase, amount)
        log = self.executor.log if self.executor is not None else None
        if log is not None:
            self.charges.append((len(log.records), phase, amount))


@pytest.mark.parametrize(
    "variant,mode", VARIANTS, ids=[f"{v}-{m.value}" for v, m in VARIANTS]
)
def test_every_combine_logs_what_it_charged(variant, mode):
    """A combine's record holds the float it charged, not a difference of
    the running total (12.099999999999909 for a charge of 12.1)."""
    spec = next(s for s in micro_benchmark_apps() if s.name == "hct")
    ledger = _Ledger()
    engine = Slider(
        spec.make_job(),
        mode,
        SliderConfig(mode=mode, tree=variant, execution_backend="inprocess"),
        telemetry=ledger,
    )
    ledger.executor = engine.executor
    splits = spec.make_splits(40, 17, 0)
    results = [engine.initial_run(splits[:16])]
    for i in range(16, 40, 2):
        removed = 0 if mode is WindowMode.APPEND else 2
        ledger.charges.clear()
        results.append(engine.advance(splits[i : i + 2], removed))
        charged = {at: (phase, amount) for at, phase, amount in ledger.charges}
        combines = [
            (index, record)
            for index, record in enumerate(results[-1].plan.log.records)
            if record[0] == "combine" and record[9]
        ]
        assert combines
        for index, record in combines:
            assert charged[index] == (record[1], record[3]), record[2]
    engine.close()


def _opened_per_advance(window: int, slides: int = 6) -> tuple[list, Telemetry]:
    """Per steady ``advance(1, 1)`` of a folding tree: the spans opened,
    the level marks left on the run's log, and the nodes logged; and the
    engine's recorder."""
    engine = Slider(
        count_job(),
        WindowMode.VARIABLE,
        SliderConfig(tree="folding", execution_backend="inprocess", workers=1),
    )
    engine.initial_run([split_of(i) for i in range(window)])
    telemetry = engine.telemetry
    opened = 0
    open_span = telemetry.open_span

    def counting(name, kind, **attrs):
        nonlocal opened
        opened += 1
        return open_span(name, kind, **attrs)

    telemetry.open_span = counting
    per_advance = []
    try:
        for i in range(window, window + slides):
            opened = 0
            result = engine.advance([split_of(i)], 1)
            log = result.plan.log
            heights = sum(tree.height for tree in engine.trees)
            assert len(log.marks) == heights
            nodes = sum(
                record[0] in ("combine", "pass_through", "memo_read")
                for record in log.records
            )
            per_advance.append((opened, len(log.marks), nodes))
    finally:
        engine.close()
    return per_advance, telemetry


def _assert_levels_are_marks(telemetry: Telemetry) -> None:
    """No span is a level's or a node's, and every log a span keeps has
    its marks cover consecutive ranges of its records, in sweep order."""
    for span in telemetry.iter_spans():
        assert ":L" not in span.name, span.name
        log = span.attrs.get("log")
        if log is None:
            continue
        last = 0
        for mark in log.marks:
            assert last <= mark.first <= mark.last <= len(log.records)
            assert mark.start <= mark.end
            last = mark.last


def test_spans_opened_do_not_grow_with_combines():
    """Counted, at windows 64 and 2 048: an advance opens its run, phase,
    map-task and reducer spans, the same number at both windows, and
    leaves one level mark a tree level swept, whatever number of nodes
    those levels execute."""
    (small, _), (large, telemetry) = _opened_per_advance(64), _opened_per_advance(2048)
    assert max(n for *_, n in small) < min(n for *_, n in large)
    assert max(m for _, m, _ in small) < min(m for _, m, _ in large)
    assert all(marks < nodes for _, marks, nodes in large)
    assert len({opened for opened, _, _ in small + large}) == 1, (small, large)
    _assert_levels_are_marks(telemetry)


def _self_work(telemetry: Telemetry) -> list:
    return [
        (span.name, [(p.value, v.hex()) for p, v in span.self_work.items()])
        for span in telemetry.iter_spans()
    ]


def test_a_workers_levels_cover_the_records_it_sent():
    """Over the process backend the parent opens a level mark where a
    worker's reply says the worker did, on the parent's records: the rows
    equal an in-process twin's, bit for bit, and so does every mark's
    place and cursor.  So does every span's self-work, which takes the
    charges a tree makes outside a level (a rotating tree's buckets, a
    coalescing tree's root)."""
    for variant, mode in (
        ("folding", WindowMode.VARIABLE),
        ("rotating", WindowMode.FIXED),
        ("coalescing", WindowMode.APPEND),
    ):
        rows, owned, marks = {}, {}, {}
        removed = 0 if mode is WindowMode.APPEND else 1
        for backend in ("inprocess", "process"):
            telemetry, engine = _run(
                variant, mode, window=6 if variant == "folding" else 8,
                execution_backend=backend, workers=2,
            )
            for i in range(40):
                engine.advance([split_of(100 + i)], removed)
            counters = dict(telemetry.counters)
            engine.close()
            _assert_levels_are_marks(telemetry)
            rows[backend] = _rows(per_level_table(telemetry))
            owned[backend] = _self_work(telemetry)
            marks[backend] = [
                (m.tree, m.level, m.first, m.last, m.start.hex(),
                 m.end.hex(), m.at, m.span and m.span().name)
                for span in telemetry.iter_spans()
                if (log := span.attrs.get("log")) is not None
                for m in log.marks
            ]
        assert counters.get("backend.dispatched_reducers", 0) > 0, variant
        assert counters.get("backend.worker_fallbacks", 0) == 0, variant
        assert rows["process"] == rows["inprocess"], variant
        assert owned["process"] == owned["inprocess"], variant
        assert marks["process"] == marks["inprocess"], variant
