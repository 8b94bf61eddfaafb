"""After one structural period every steady advance is recurring.

What is left of the compile layer's equivalence suite: the twins it
compared (plan cache on against off) are one code path now, so only the
hit-rate bar stays — the process backend dispatches recurring advances
alone, and a gate that never opened would pass every equivalence test.
"""

from repro.cluster.machine import Cluster, ClusterConfig
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import count_job, split_of

WINDOW = 6


def test_steady_state_hit_rate_exceeds_99_percent():
    """The driver-sweep acceptance bar, in miniature: after the one-window
    warmup, a long steady advance sequence is ≥99% hits."""
    slider = Slider(
        count_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(mode=WindowMode.VARIABLE, tree="folding"),
        cluster=Cluster(ClusterConfig(num_machines=6, straggler_fraction=0.0)),
    )
    slider.initial_run([split_of(i) for i in range(WINDOW)])
    # Warmup: the folding structure key recurs with period = the next
    # power of two above the window, so drive until the first hit.
    for k in range(4 * WINDOW):
        if slider.advance([split_of(WINDOW + k)], 1).plan_cache_hit:
            break
    else:  # pragma: no cover - defends the loop above
        raise AssertionError("steady slides never reached a hit")
    hits = 0
    runs = 120
    for k in range(runs):
        if slider.advance([split_of(50 + k)], 1).plan_cache_hit:
            hits += 1
    assert hits / runs >= 0.99
    assert hits == runs  # in a calm steady state it is in fact 100%
