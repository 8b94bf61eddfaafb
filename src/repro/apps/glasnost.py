"""Glasnost server-distance monitoring (case study §8.2, fixed-width).

For each measurement server, computes the median over users of the minimum
RTT of their test runs — a proxy for how close the server is to the users
directed at it.  Exact medians are not associative; following standard
data-parallel practice the combiner maintains a bounded RTT histogram
(0.5 ms bins), from which Reduce extracts the median.  The window is the
most recent three months, sliding by one month (Table 3).
"""

from __future__ import annotations

from repro.datagen.glasnost import TestRun
from repro.mapreduce.combiners import Combiner
from repro.mapreduce.job import CostModel, MapReduceJob
from repro.mapreduce.types import Split, make_splits

BIN_MS = 0.5

# Test-run records flow as tuples: (server, host, month, rtts_ms).
RunRecord = tuple


class HistogramCombiner(Combiner[tuple]):
    """Merges per-server RTT histograms: tuples of (bin, count) pairs."""

    def merge(self, key, values):
        merged: dict[int, int] = {}
        for histogram in values:
            for bin_index, count in histogram:
                merged[bin_index] = merged.get(bin_index, 0) + count
        return tuple(sorted(merged.items()))

    def value_size(self, value) -> float:
        return max(1.0, float(len(value)))

    def law_leaves(self):
        """Leaf-value strategy for the law harness: one run's histogram."""
        from hypothesis import strategies as st

        return st.integers(0, 200).map(lambda bin_index: ((bin_index, 1),))


def _map_test_run(record: RunRecord):
    server, _host, _month, rtts_ms = record
    min_rtt = min(rtts_ms)
    bin_index = int(min_rtt / BIN_MS)
    yield (server, ((bin_index, 1),))


def median_from_histogram(histogram: tuple) -> float:
    """The median RTT (bin midpoint) of a (bin, count) histogram."""
    total = sum(count for _bin, count in histogram)
    if total == 0:
        return 0.0
    middle = (total + 1) // 2
    seen = 0
    for bin_index, count in histogram:
        seen += count
        if seen >= middle:  # by the last bin, seen == total >= middle
            break
    return (bin_index + 0.5) * BIN_MS


def glasnost_job(num_reducers: int = 2) -> MapReduceJob:
    """Median min-RTT per measurement server."""
    return MapReduceJob(
        name="glasnost",
        map_fn=_map_test_run,
        combiner=HistogramCombiner(),
        reduce_fn=lambda server, histogram: median_from_histogram(histogram),
        num_reducers=num_reducers,
        # Each record is a packet trace: the Map side parses ~20 packets to
        # extract the minimum RTT, so per-record map cost dominates — the
        # case study's gains come largely from Map reuse (§8.2).
        costs=CostModel(
            map_cost_per_record=12.0,
            combine_cost_factor=1.0,
            reduce_cost_per_key=1.0,
        ),
    )


def make_glasnost_splits(runs: list[TestRun], runs_per_split: int = 250) -> list[Split]:
    records = [run.as_record() for run in runs]
    return make_splits(records, split_size=runs_per_split, label_prefix="pcap")
