"""The soak: 10 000 advances through ``StreamDriver``, flat as a count.

``pytest -m soak tests/oracle/test_soak.py`` (nightly, non-blocking; with
it run the oracle's machine drawn long, ``test_machine.py``).  Never a
clock: the interpreter events of one slide late in the stream against
one early in it, and the live objects after a full collection.  What
grows with the age of a stream — a list nobody trims, a table nobody
evicts from — shows in the second; a loop over it, in the first.
"""

from __future__ import annotations

import gc
import itertools
import statistics

import pytest

from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.slider.driver import StreamDriver
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import profile_calls

ADVANCES = 10_000
WINDOW = 16  # slides, one split of eight records each
PER_SLIDE = 8


def _map(record):
    return [(record[1], 1)]


def _slide(i: int) -> list[tuple[float, str]]:
    """The records of slide ``i``: words out of 40, so that every slide
    meets its neighbours in some key and a key leaves the window now and
    then."""
    words = [f"w{(i * 7 + j * j) % 40}" for j in range(PER_SLIDE)]
    return [(i + j / PER_SLIDE, word) for j, word in enumerate(words)]


def _live_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


#: name -> SliderConfig fields
PROFILES = {
    "folding": {"tree": "folding"},
    "randomized": {"tree": "randomized"},
    # A fixed window cannot be filled a slide at a time, which is how a
    # driver starts: this one profile drives its engine directly.
    "rotating": {"tree": "rotating", "mode": WindowMode.FIXED},
    # What a stream's age could grow besides the trees: the process
    # backend's held tables on both sides.
    "folding-process": {
        "tree": "folding", "execution_backend": "process", "workers": 2
    },
}


@pytest.mark.soak
@pytest.mark.parametrize("profile", PROFILES)
def test_ten_thousand_advances_stay_flat(profile):
    config = SliderConfig(
        **{"execution_backend": "inprocess", **PROFILES[profile]}
    )
    job = MapReduceJob(
        name="soak", map_fn=_map, combiner=SumCombiner(), num_reducers=2
    )
    slides = (_slide(i) for i in itertools.count())
    if config.mode is WindowMode.FIXED:
        split = lambda: Split.from_records(next(slides))  # noqa: E731
        engine = Slider(job, config.mode, config)
        engine.initial_run([split() for _ in range(WINDOW)])
        advance = lambda: engine.advance([split()], 1)  # noqa: E731
    else:
        driver = StreamDriver(
            job,
            timestamp_fn=lambda record: record[0],
            slide=1.0,
            window=float(WINDOW),
            split_size=PER_SLIDE,
            slider_config=config,
        )
        engine = driver.slider
        advance = lambda: driver.feed(next(slides))  # noqa: E731

    def run(advances: int) -> None:
        for _ in range(advances):
            advance()

    def events() -> float:
        """The median over 32 slides: one is a point of the tree's
        structural period, 32 are two periods of it."""
        return statistics.median(
            profile_calls(advance)[1] for _ in range(32)
        )

    try:
        run(1_000)
        early_events = events()
        run(2_000 - 1_032)
        early_objects = _live_objects()
        run(ADVANCES - 2_000 - 32)
        late_objects = _live_objects()
        late_events = events()
        assert len(engine.window) == WINDOW
        assert engine.space() == engine.lifecycle.recount()
        engine.verify_outputs()
        counters = engine.telemetry.counters
        if profile == "folding-process":
            assert counters["backend.dispatch_runs"] > 0.99 * ADVANCES
            assert counters.get("backend.worker_fallbacks", 0) == 0
    finally:
        engine.close()
    assert late_events <= 1.05 * early_events, (
        f"{early_events:.0f} -> {late_events:.0f} events a slide"
    )
    assert abs(late_objects - early_objects) <= 0.01 * early_objects, (
        f"{early_objects} -> {late_objects} live objects: "
        f"{(late_objects - early_objects) / (ADVANCES - 2_032):+.3f} an advance"
    )
