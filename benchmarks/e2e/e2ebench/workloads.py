"""The five workloads: their streams, engine configuration and sizes.

Names are final; later issues refer to them.  Operation counts are fixed
for a given ``--seconds`` (they scale linearly from the table, which is
sized for ``RUN_SECONDS`` on the reference host): memory and live-object
metrics depend on how many slides ran, so a run never stops on a clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import MapReduceJob, Slider, SliderConfig, Split, WindowMode
from repro.apps.registry import APP_REGISTRY
from repro.common.hashing import content_id

#: ``run_seconds`` in BENCHMARK.json: the measured loop of every workload
#: takes about this long on the reference host at the table's counts.
RUN_SECONDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    window: int
    #: Splits added and removed per slide.
    step: int
    mode: WindowMode
    #: ``SliderConfig`` arguments.  Backend and workers are always named:
    #: their defaults read the environment.
    config: dict
    #: Measured slides at ``RUN_SECONDS``.
    ops: int
    #: Slides inside one set-up repetition (fills the plan cache where it
    #: can be filled).
    setup_ops: int
    #: Slides before measurement starts, counting the kept set-up's.
    warmup_ops: int
    #: Fresh engines built for ``setup_s`` (the median is reported).
    setup_reps: int
    #: An oracle check after every this many measured slides, and the last.
    oracle_every: int
    #: A checkpoint after every this many measured slides; every second
    #: one is restored.
    checkpoint_every: int
    #: ``background_preprocess()`` before every advance (split processing).
    background: bool = False
    #: Keep sliding on the restored engine (else it is compared with the
    #: live engine and closed).
    continue_restored: bool = False
    #: Uniform 50-d points per split made by the benchmark, in place of
    #: the registry's generator.
    points_per_split: int | None = None
    #: Relative tolerance of the oracle; 0 compares exactly.
    rtol: float = 0.0

    def make_job(self) -> MapReduceJob:
        return APP_REGISTRY[self.app].make_job()

    def make_engine(self, job: MapReduceJob) -> Slider:
        return Slider(
            job, self.mode, SliderConfig(mode=self.mode, **self.config), cluster=None
        )

    def measured_ops(self, seconds: float) -> int:
        """Measured slides for ``--seconds``: a whole number of
        checkpoint pairs, so every run has checkpoints and restores."""
        pair = 2 * self.checkpoint_every
        return max(pair, round(self.ops * seconds / RUN_SECONDS / pair) * pair)


_INPROCESS = {"execution_backend": "inprocess", "workers": 1}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hct_var_w40",
            app="hct",
            window=40,
            step=1,
            mode=WindowMode.VARIABLE,
            config=dict(_INPROCESS),
            ops=2560,
            setup_ops=64,
            warmup_ops=128,
            setup_reps=5,
            oracle_every=64,
            checkpoint_every=128,
        ),
        Workload(
            name="hct_var_w1000",
            app="hct",
            window=1000,
            step=1,
            mode=WindowMode.VARIABLE,
            config=dict(_INPROCESS),
            ops=1024,
            setup_ops=64,
            warmup_ops=128,
            setup_reps=3,
            oracle_every=256,
            checkpoint_every=128,
        ),
        Workload(
            name="kmeans_var_w40_s200",
            app="kmeans",
            window=40,
            step=1,
            mode=WindowMode.VARIABLE,
            config=dict(_INPROCESS),
            ops=256,
            setup_ops=64,
            warmup_ops=128,
            setup_reps=3,
            oracle_every=128,
            checkpoint_every=16,
            points_per_split=200,
            rtol=1e-9,
        ),
        Workload(
            name="kmeans_var_w40_proc2",
            app="kmeans",
            window=40,
            step=1,
            mode=WindowMode.VARIABLE,
            config={"execution_backend": "process", "workers": 2},
            ops=512,
            setup_ops=64,
            warmup_ops=128,
            setup_reps=5,
            oracle_every=64,
            checkpoint_every=32,
            points_per_split=20,
            rtol=1e-9,
        ),
        Workload(
            name="matrix_fix_w40_ckpt",
            app="matrix",
            window=40,
            step=2,
            mode=WindowMode.FIXED,
            config=dict(_INPROCESS, bucket_size=2, split_mode=True),
            ops=64,
            setup_ops=20,
            warmup_ops=40,
            setup_reps=3,
            oracle_every=8,
            checkpoint_every=8,
            background=True,
            continue_restored=True,
        ),
    )
}


def workers_needed(workload: Workload) -> int:
    if workload.config["execution_backend"] == "process":
        return workload.config["workers"]
    return 1


def make_stream(workload: Workload, seed: int, splits: int, timeline) -> list[Split]:
    """The whole input stream of a run: one generator call at offset 0,
    sliced afterwards.  Refuses to run inside a timed region."""
    if timeline.timing:
        raise RuntimeError(
            "input generation inside a timed region: make the stream "
            "before any timer starts"
        )
    if workload.points_per_split is None:
        return APP_REGISTRY[workload.app].make_splits(splits, seed, 0)
    # ``make_splits`` would hash every float of every point for the
    # split's content id (7 s for the 200-point stream); the splits of a
    # generated stream are all distinct, so their position identifies them.
    size = workload.points_per_split
    points = np.random.default_rng(seed).random((splits * size, 50)).tolist()
    return [
        Split(
            uid=content_id("e2e-points", seed, index),
            records=tuple(map(tuple, points[index * size : (index + 1) * size])),
            label=f"pts{index}",
        )
        for index in range(splits)
    ]
