"""Pivot-view selection from neighbor-weighted projection histograms.

For a superpoint, the per-view score is its projected-point count scaled by
the mean visible fraction of its nearest neighbor superpoints. The pivot is
the view with the highest score, ties to the lowest view index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PixelSet
from .superpoints import SuperpointPartition

__all__ = [
    "ViewHistogram",
    "NoPivotViewError",
    "PixelIndex",
    "superpoint_view_counts",
    "scale_factor",
    "view_histogram",
    "pivot_view",
]


class NoPivotViewError(ValueError):
    """The superpoint scores zero in every view; callers should skip it."""


@dataclass
class ViewHistogram:
    """Per-view pivot scores for one superpoint.

    values[t] = raw_counts[t] * scales[t]; raw_counts are projected-point
    counts, scales the neighbor visibility factors in [0, 1].
    """

    values: np.ndarray
    raw_counts: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.raw_counts = np.asarray(self.raw_counts, dtype=np.int64)
        self.scales = np.asarray(self.scales, dtype=np.float64)
        if not (len(self.values) == len(self.raw_counts) == len(self.scales)):
            raise ValueError("histogram fields must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("histogram values must be finite")


def superpoint_view_counts(
    partition: SuperpointPartition, projections: list[PixelSet]
) -> np.ndarray:
    """(T, L) matrix of visible projected-point counts per view and superpoint."""
    counts = np.zeros((len(projections), partition.count), dtype=np.int64)
    for t, ps in enumerate(projections):
        counts[t] = np.bincount(partition.assignment[ps.indices], minlength=partition.count)
    return counts


@dataclass
class PixelIndex:
    """Every working view's projected points, grouped by view, then superpoint.

    ``counts`` is (T, L). The points of view t and superpoint s are entries
    ``offsets[t*L + s]`` up to ``offsets[t*L + s + 1]`` of the int32 ``rows``,
    ``cols`` and ``labels`` (their superpoint), in ascending point id.
    """

    counts: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    labels: np.ndarray

    @classmethod
    def build(cls, partition: SuperpointPartition, projections: list[PixelSet]) -> "PixelIndex":
        counts = superpoint_view_counts(partition, projections)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows, cols, labels = (np.empty(offsets[-1], dtype=np.int32) for _ in range(3))
        for t, ps in enumerate(projections):
            view_labels = partition.assignment[ps.indices]
            order = np.argsort(view_labels, kind="stable")
            span = slice(offsets[t * partition.count], offsets[(t + 1) * partition.count])
            rows[span], cols[span], labels[span] = ps.rows[order], ps.cols[order], view_labels[order]
        return cls(counts, offsets, rows, cols, labels)

    def view(self, t: int) -> slice:
        """Entries of every superpoint in view ``t``."""
        L = self.counts.shape[1]
        return slice(self.offsets[t * L], self.offsets[(t + 1) * L])

    def cell(self, t: int, superpoint: int) -> slice:
        """Entries of one superpoint in view ``t``."""
        start = t * self.counts.shape[1] + superpoint
        return slice(self.offsets[start], self.offsets[start + 1])


def scale_factor(
    superpoint: int,
    view: int,
    counts: np.ndarray,
    sizes: np.ndarray,
    neighbors: list[np.ndarray],
) -> float:
    """Mean visible fraction of the superpoint's neighbors in one view.

    Averages ``count / size`` over the neighbor list; always in [0, 1].
    A superpoint without neighbors (single-superpoint scene) gets the
    neutral factor 1.0.
    """
    nbr = neighbors[superpoint]
    if len(nbr) == 0:
        return 1.0
    fractions = counts[view, nbr] / sizes[nbr]
    return float(fractions.mean())


def view_histogram(
    superpoint: int,
    counts: np.ndarray,
    sizes: np.ndarray,
    neighbors: list[np.ndarray],
) -> ViewHistogram:
    views = counts.shape[0]
    raw = counts[:, superpoint]
    scales = np.array(
        [scale_factor(superpoint, t, counts, sizes, neighbors) for t in range(views)]
    )
    return ViewHistogram(raw * scales, raw, scales)


def pivot_view(
    superpoint: int,
    counts: np.ndarray,
    sizes: np.ndarray,
    neighbors: list[np.ndarray],
) -> tuple[int, ViewHistogram]:
    """Pick the view with the highest histogram value (ties: lowest index)."""
    hist = view_histogram(superpoint, counts, sizes, neighbors)
    if not np.any(hist.values > 0):
        raise NoPivotViewError("no pivot view")
    return int(np.argmax(hist.values)), hist
