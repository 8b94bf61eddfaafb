#!/usr/bin/env python3
"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py
        every workload, untraced then traced, one fresh process each;
        prints every metric by name with its unit

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one pass of one workload in this process; the last line of
        standard output is the result as one JSON object

    python3 benchmarks/e2e/run.py --aa K
        two interleaved sets of K untraced runs of every workload on this
        checkout; writes AA.json and fails if the sets disagree

Run from the root of a checkout.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from e2ebench import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: These change ``SliderConfig`` defaults; what is measured is pinned by
#: the workload table alone.
_PINNED_ENVIRONMENT = ("REPRO_EXECUTION_BACKEND", "REPRO_WORKERS")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload only")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="K", default=0)
    parser.add_argument(
        "--ops", type=int, help="measured slides, overriding --seconds (tests)"
    )
    parser.add_argument(
        "--setup-reps", type=int, help="set-up repetitions, overriding the table"
    )
    return parser.parse_args(argv)


# -- one pass in this process --------------------------------------------------


def run_pass(arguments: argparse.Namespace, contract: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    try:
        import repro  # noqa: F401
        from e2ebench import passes, session, workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    workload = workloads.WORKLOADS.get(arguments.workload)
    if workload is None:
        print(
            f"unknown workload {arguments.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    facts = host.host_facts()
    if facts["nproc"] < workloads.workers_needed(workload):
        print(
            f"{workload.name} needs {workloads.workers_needed(workload)} "
            f"processors, this host has {facts['nproc']}",
            file=sys.stderr,
        )
        return 2

    seconds = arguments.seconds or contract["run_seconds"]
    slides = workload.measured_ops(seconds / 4 if arguments.trace else seconds)
    if arguments.ops:
        # A smoke run: no warm-up beyond the set-up (which still fills
        # the plan cache, or nothing would be dispatched to workers), and
        # at least one checkpoint pair and two oracle checks.
        slides = arguments.ops
        workload = dataclasses.replace(
            workload,
            warmup_ops=workload.setup_ops,
            checkpoint_every=min(workload.checkpoint_every, max(1, slides // 2)),
            oracle_every=min(workload.oracle_every, max(1, slides // 2)),
        )
    scratch = OUT / f"scratch-{workload.name}-{os.getpid()}"
    try:
        if arguments.trace:
            declared = contract["per_layer"]
            result = passes.traced_pass(
                workload,
                arguments.seed,
                slides,
                scratch,
                OUT / f"trace-{workload.name}.json",
                import_s,
            )
        else:
            declared = contract["end_to_end"]
            result = passes.untraced_pass(
                workload,
                arguments.seed,
                slides,
                arguments.setup_reps or workload.setup_reps,
                scratch,
            )
    finally:
        session.close_engines()

    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(result.metrics):
        print(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(result.metrics))}",
            file=sys.stderr,
        )
        return 2
    print(f"== {workload.name} seed {arguments.seed} trace {arguments.trace}")
    print("host " + json.dumps(facts))
    for note in result.notes:
        print(note)
    for problem in result.problems:
        print(f"PROBLEM {problem}")
    metrics = {}
    for metric in declared:
        value = result.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:40} {value:16.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


# -- every workload, one fresh process per pass --------------------------------


def child(workload: str, seed: int, seconds: float, trace: int, quiet: bool) -> dict:
    """Run one pass in a fresh process; returns its result line."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    if completed.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"{workload} trace {trace} exited with {completed.returncode}"
        )
    return json.loads(lines[-1])


def run_all(arguments: argparse.Namespace, contract: dict) -> int:
    seconds = arguments.seconds or contract["run_seconds"]
    failed = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        for trace in (0, 1):
            result = child(workload, arguments.seed, seconds, trace, quiet=False)
            status = "ok" if result["correct"] else "FAILED"
            print(
                f"-- {workload} trace {trace}: {status}, "
                f"{result['failed']} of {result['attempted']} operations failed"
            )
            failed += not result["correct"]
    return 1 if failed else 0


# -- A/A: does the benchmark agree with itself? --------------------------------


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_aa(arguments: argparse.Namespace, contract: dict) -> int:
    seconds = arguments.seconds or contract["run_seconds"]
    names = [entry["name"] for entry in contract["workloads"]]
    sets: tuple[dict, dict] = ({}, {})
    failures = 0
    for repetition in range(arguments.aa):
        for workload in names:
            for values in sets:
                result = child(
                    workload, arguments.seed + repetition, seconds, 0, quiet=True
                )
                failures += not result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
        print(f"repetition {repetition + 1} of {arguments.aa} done", flush=True)

    rows = []
    print(
        f"{'workload':22} {'metric':24} {'median A':>12} {'median B':>12} "
        f"{'diff':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}"
    )
    for workload in names:
        for metric in contract["end_to_end"]:
            first, second = (values[(workload, metric["name"])] for values in sets)
            medians = statistics.median(first), statistics.median(second)
            difference = abs(medians[1] - medians[0]) / medians[0]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in (first, second)]
            agree = difference <= metric["bound"]
            failures += not agree
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "median_a": medians[0],
                    "median_b": medians[1],
                    "difference": difference,
                    "spread_a": spreads[0],
                    "spread_b": spreads[1],
                    "bound": metric["bound"],
                    "agree": agree,
                }
            )
            print(
                f"{workload:22} {metric['name']:24} {medians[0]:12.4f} "
                f"{medians[1]:12.4f} {difference:8.2%} {spreads[0]:9.2%} "
                f"{spreads[1]:9.2%} {metric['bound']:6.2f}"
                + ("" if agree else "  DISAGREE")
            )
    (HERE / "AA.json").write_text(
        json.dumps(
            {
                "runs_per_set": arguments.aa,
                "first_seed": arguments.seed,
                "seconds": seconds,
                "host": host.host_facts(),
                "rows": rows,
            },
            indent=1,
        )
        + "\n"
    )
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    arguments = parse_arguments(argv)
    # A polite kill unwinds like a raise, through the ``finally`` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for name in _PINNED_ENVIRONMENT:
        os.environ.pop(name, None)
    contract = load_contract()
    try:
        if arguments.workload:
            return run_pass(arguments, contract)
        if arguments.aa:
            return run_aa(arguments, contract)
        return run_all(arguments, contract)
    finally:
        # On every way out, a raise included: no process outlives a run.
        host.stop_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
