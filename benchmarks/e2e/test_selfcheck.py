"""Self-check of the end-to-end benchmark (tiny counts; not a measurement).

Collected by the existing non-blocking ``pytest benchmarks/`` CI job.
Checks that the benchmark says what ``BENCHMARK.json`` says it says,
that its oracle catches what it must and passes what it must, and that
no input is ever generated inside a timed region.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from e2ebench import oracle  # noqa: E402
from e2ebench.host import Timeline  # noqa: E402
from e2ebench.session import Session  # noqa: E402
from e2ebench.workloads import WORKLOADS, make_stream  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in CONTRACT["workloads"]]


def _session_members(session: int) -> list[int]:
    """Processes, zombies included, whose session is ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == session:
                members.append(int(entry.name))
    return members


def run_pass(workload: str, trace: int, slides: int) -> tuple[int, dict]:
    # In a session of its own, so that what it leaves behind can be told
    # from everything else on the host.
    process = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "5",
            "--trace",
            str(trace),
            "--ops",
            str(slides),
            "--setup-reps",
            "1",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    left = _session_members(process.pid)
    assert not left, f"{workload} left processes running: {left}"
    lines = output.strip().splitlines()
    assert lines, f"{workload} printed nothing"
    return process.returncode, json.loads(lines[-1])


def test_contract_names_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert set(NAMES) == set(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert any(metric["name"] == "setup_s" for metric in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_and_outputs_verify(workload, trace):
    # The tolerant oracle runs inside: `correct` means it passed.
    code, result = run_pass(workload, trace, slides=8)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 8
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        if WORKLOADS[workload].config["execution_backend"] == "process":
            assert metrics["backends.dispatched_share"] >= 0.99
            assert metrics["backends.fallbacks"] == 0
        assert metrics["failed_share"] == 0
        trace_file = HERE / "out" / f"trace-{workload}.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert {"name", "cat", "ts", "dur", "args"} <= set(events[0])
        assert trace_file.with_suffix(".selftime.txt").read_text().startswith("span")


def _tiny(name: str, **changes):
    return replace(
        WORKLOADS[name],
        setup_ops=2,
        warmup_ops=2,
        oracle_every=2,
        checkpoint_every=2,
        **changes,
    )


def _session(workload, tmp_path, slides: int) -> Session:
    session = Session(workload, 5, Timeline(), tmp_path)
    session.generate(workload.warmup_ops + slides)
    session.set_up(1)
    session.warm_up()
    return session


def test_exact_comparison_false_alarms_on_kmeans_and_the_tolerance_does_not(tmp_path):
    workload = _tiny(
        "kmeans_var_w40_proc2",
        config={"execution_backend": "inprocess", "workers": 1},
    )
    session = _session(workload, tmp_path, slides=12)
    try:
        exact_alarms = 0
        for _ in range(12):
            result = session.engine.advance(session._next_splits(), 1)
            exact_alarms += bool(
                oracle.check_against_batch(session.engine, result.outputs, 0.0)
            )
            assert not oracle.check_against_batch(
                session.engine, result.outputs, workload.rtol
            )
        assert exact_alarms > 0
    finally:
        session.close()


def test_oracle_catches_a_corrupted_value_and_a_dropped_key():
    expected = {"a": 1, "b": (0.5, 0.25), "c": 3}
    assert not oracle.mismatches(dict(expected), expected, 0.0)
    assert oracle.mismatches({**expected, "b": (0.5, 0.2500001)}, expected, 1e-9)
    assert not oracle.mismatches(
        {**expected, "b": (0.5, 0.25 * (1 + 1e-12))}, expected, 1e-9
    )
    dropped = {key: value for key, value in expected.items() if key != "c"}
    assert oracle.mismatches(dropped, expected, 1e-9) == ["missing key 'c'"]


@pytest.mark.parametrize("damage", ("corrupt", "drop"))
def test_damaged_outputs_count_as_failed_operations(tmp_path, damage):
    workload = _tiny("hct_var_w40")
    session = _session(workload, tmp_path, slides=4)
    try:
        advance = session.engine.advance

        def damaged(added, removed):
            result = advance(added, removed)
            key = sorted(result.outputs)[0]
            if damage == "corrupt":
                result.outputs[key] += 1
            else:
                del result.outputs[key]
            return result

        session.engine.advance = damaged
        session.measure(4)
    finally:
        session.close()
    # Two batch checks (slides 2 and 4) and the restored-against-live
    # check all see the damage.
    assert session.failed == 3
    assert session.attempted == session.planned_operations(4)
    assert 0 < session.failed / session.attempted < 1
    assert all("oracle" in problem for problem in session.problems)


def test_a_raising_operation_fails_the_rest_of_the_run(tmp_path):
    workload = _tiny("hct_var_w40")
    session = _session(workload, tmp_path, slides=4)
    try:
        advance = session.engine.advance
        calls = []

        def failing(added, removed):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return advance(added, removed)

        session.engine.advance = failing
        session.measure(4)
    finally:
        session.close()
    # Only the first slide completed: its advance and nothing else due.
    assert session.failed == session.attempted - 1


def test_inputs_are_never_generated_in_a_timed_region(tmp_path):
    workload = _tiny("hct_var_w40")
    timeline = Timeline()
    assert len(make_stream(workload, 5, 3, timeline)) == 3
    session = Session(workload, 5, timeline, tmp_path)
    with pytest.raises(RuntimeError, match="timed region"):
        timeline.timed(lambda: session.generate(1))
    assert timeline.timing is False
    session.generate(1)  # outside a timer it works again
