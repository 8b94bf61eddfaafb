"""Table 4: the Twitter information-propagation case study (§8.1).

A large initial interval of tweets followed by four weekly intervals of
~5 % appends, processed append-only.  For each interval: the interval's
tweet volume, its relative change, and Slider's time/work speedup over
recomputing the whole history.  Expected shape: roughly constant speedups
across the four intervals (the paper reports ~9x time / ~14x work for a
5 % append), well above 1.
"""

from __future__ import annotations

from repro.apps.twitter import make_tweet_splits, propagation_tree_job
from repro.bench.format import format_table
from repro.datagen.twitter import TweetGenerator, TwitterGraph
from repro.slider.baseline import VanillaRunner
from repro.slider.system import Slider
from repro.slider.window import WindowMode

INITIAL_TWEETS = 20_000
WEEKLY_TWEETS = 1_000  # ~5% of the initial interval
TWEETS_PER_SPLIT = 250


def test_table4_twitter():
    graph = TwitterGraph(num_users=800, seed=5)
    generator = TweetGenerator(graph, num_urls=300, seed=5)
    initial = make_tweet_splits(generator.tweets(INITIAL_TWEETS), TWEETS_PER_SPLIT)
    weeks = [
        make_tweet_splits(generator.tweets(WEEKLY_TWEETS), TWEETS_PER_SPLIT)
        for _ in range(4)
    ]

    job = propagation_tree_job()
    slider = Slider(job, WindowMode.APPEND)
    vanilla = VanillaRunner(job, WindowMode.APPEND)
    slider_initial = slider.initial_run(initial)
    vanilla_initial = vanilla.initial_run(initial)
    initial_overhead = (
        100.0
        * (slider_initial.report.work - vanilla_initial.report.work)
        / vanilla_initial.report.work
    )

    rows = []
    speedups = []
    total = INITIAL_TWEETS
    for index, week in enumerate(weeks):
        s = slider.advance(week, 0)
        v = vanilla.advance(week, 0)
        assert s.outputs == v.outputs
        speedup = s.report.speedup_over(v.report)
        change = 100.0 * WEEKLY_TWEETS / total
        total += WEEKLY_TWEETS
        rows.append(
            [f"interval {index + 1}", WEEKLY_TWEETS, change, speedup.time, speedup.work]
        )
        speedups.append(speedup)

    print()
    print(
        format_table(
            "Table 4 — Twitter propagation trees (append-only)"
            f" — initial-run work overhead: {initial_overhead:.1f}%",
            ["interval", "tweets", "change %", "time speedup", "work speedup"],
            rows,
        )
    )

    works = [s.work for s in speedups]
    times = [s.time for s in speedups]
    assert all(w > 3.0 for w in works), works
    assert all(t > 1.5 for t in times), times
    # Speedups stay roughly constant across the four appends.
    assert max(works) / min(works) < 1.6
    # One-time initial overhead is modest (paper: 22%).
    assert initial_overhead < 80.0
