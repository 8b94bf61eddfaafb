"""K-Means: one clustering assignment+accumulate iteration as MapReduce.

Map assigns each point to its nearest centroid (a distance computation over
all K centroids in 50 dimensions — the compute-intensive part); the combiner
accumulates per-centroid (count, vector-sum); Reduce produces new centroids.
The paper runs this as its compute-intensive micro-benchmark: ~98 % of work
lands in the Map phase (Figure 9).
"""

from __future__ import annotations

import math

import numpy as np

from repro.mapreduce.combiners import VectorSumCombiner
from repro.mapreduce.job import CostModel, MapReduceJob
from repro.mapreduce.types import Split, make_splits

Point = tuple[float, ...]


def _nearest_centroid(point: Point, centroids: list[Point]) -> int:
    best_index = 0
    best_distance = math.inf
    for index, center in enumerate(centroids):
        distance = sum((a - b) ** 2 for a, b in zip(point, center))
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return best_index


#: Rows per kernel block: bounds the rows x K x D temporary.
_BLOCK_ROWS = 512


def _certified_nearest(
    block: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's nearest centre per row, and which rows it is certain of.

    This and :func:`_nearest_centroid` both sum D non-negative terms, so
    whatever the summation order or ``pow``-vs-multiply rounding each
    distance carries relative error <= (D + 2) u (6e-15 at D = 50; the
    1e-300 keeps that true of underflowing squares).  A row whose runner-up
    is further than the best by 1e-9 of itself therefore has the same
    argmin under both; every other row (ties, duplicate centres, NaN, an
    overflow the scalar raises on: anything the comparison does not affirm)
    is the scalar definition's.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        distance = ((block[:, None, :] - centers) ** 2).sum(axis=2)
        rows = np.arange(len(block))
        best = distance.argmin(axis=1)
        nearest = distance[rows, best]
        bounded = distance.max(axis=1) < 1e300  # no square near overflow
        distance[rows, best] = np.inf
        runner_up = distance.min(axis=1)
        return best, bounded & (runner_up - nearest > 1e-9 * runner_up + 1e-300)


def kmeans_job(
    centroids: list[Point], num_reducers: int = 4, dimensions: int = 50
) -> MapReduceJob:
    """One K-Means iteration against fixed ``centroids``."""
    if not centroids:
        raise ValueError("kmeans needs at least one centroid")
    centroids = [tuple(c) for c in centroids]
    if len({len(c) for c in centroids}) != 1:
        raise ValueError("kmeans centroids must all have the same length")
    centers = np.array(centroids, dtype=float)

    def map_assign(point: Point):
        yield (_nearest_centroid(point, centroids), (1, tuple(point)))

    def map_assign_split(points):
        """``map_assign`` over a whole split in blocked numpy."""
        try:
            array = np.asarray(points)
        except ValueError:
            array = np.empty(0)  # ragged: no n x D shape
        if array.shape[1:] != centers.shape[1:] or array.dtype not in (
            np.float64,
            np.int64,
        ):
            # Not n x D Python numbers: zip's truncation, or the error, is
            # map_assign's to give.
            return [list(map_assign(point)) for point in points]
        array = array.astype(float, copy=False)
        assigned: list[int] = []
        for start in range(0, len(array), _BLOCK_ROWS):
            best, sure = _certified_nearest(
                array[start : start + _BLOCK_ROWS], centers
            )
            for row in np.flatnonzero(~sure).tolist():
                best[row] = _nearest_centroid(points[start + row], centroids)
            assigned.extend(best.tolist())
        return [
            [(index, (1, tuple(point)))] for index, point in zip(assigned, points)
        ]

    def reduce_centroid(key: int, value: tuple) -> Point:
        count, total = value  # count >= 1: every point is emitted as (1, point)
        return tuple(x / count for x in total)

    return MapReduceJob(
        name="kmeans",
        map_fn=map_assign,
        combiner=VectorSumCombiner(),
        reduce_fn=reduce_centroid,
        map_split_fn=map_assign_split,
        num_reducers=num_reducers,
        # Distance evaluation over K centroids x D dims dominates: a large
        # per-record map cost makes this the compute-intensive class.
        costs=CostModel(
            map_cost_per_record=float(len(centroids) * dimensions) / 10.0,
            combine_cost_factor=0.5,
            reduce_cost_per_key=2.0,
        ),
    )


def make_point_splits(
    points: list[Point], points_per_split: int = 50
) -> list[Split]:
    return make_splits(points, split_size=points_per_split, label_prefix="pts")
