"""Pivot-view selection from neighbor-weighted projection histograms.

For a superpoint, the per-view score is its projected-point count scaled by
the mean visible fraction of its nearest neighbor superpoints. The pivot is
the view with the highest score, ties to the lowest view index.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import PixelSet
from .superpoints import SuperpointPartition

__all__ = [
    "NoPivotViewError",
    "PixelIndex",
    "superpoint_view_counts",
    "scale_factors",
    "pivot_view",
]


class NoPivotViewError(ValueError):
    """The superpoint scores zero in every view; callers should skip it."""


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
    ``offsets[t*L + s]`` up to ``offsets[t*L + s + 1]`` of ``flat``, each the
    int32 pixel id ``row * W + col``, in ascending point id.
    ``shape`` is the (H, W) of every view's image.
    """

    counts: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def build(
        cls, partition: SuperpointPartition, projections: Iterable[PixelSet], shape: tuple[int, int]
    ) -> "PixelIndex":
        """Index an iterable of views in one pass: each view is reduced to its
        counts row and its int32 pixel ids, sorted stably by superpoint,
        before the next is read, so a generator that projects one view at a
        time never holds every view's projected points at once."""
        # the narrowest key lets numpy radix-sort; a stable order is the same in any dtype
        labels = partition.assignment.astype(np.min_scalar_type(partition.count - 1))
        count_rows, parts = [], []
        for ps in projections:
            # as Python ints: numpy holds on to freed buffers under 1 KB for reuse,
            # and one live row per view, spread over the heap, kept it from shrinking
            count_rows.append(superpoint_view_counts(partition, [ps])[0].tolist())
            order = np.argsort(labels.take(ps.indices), kind="stable")
            parts.append((ps.rows * shape[1] + ps.cols).astype(np.int32).take(order))
        counts = np.array(count_rows, dtype=np.int64).reshape(-1, partition.count)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
        return cls(counts, offsets, flat, tuple(shape))

    def view(self, t: int) -> slice:
        """Entries of every superpoint in view ``t``."""
        L = self.counts.shape[1]
        return slice(self.offsets[t * L], self.offsets[(t + 1) * L])

    def cell(self, t: int, superpoint: int) -> slice:
        """Entries of one superpoint in view ``t``."""
        start = t * self.counts.shape[1] + superpoint
        return slice(self.offsets[start], self.offsets[start + 1])


def scale_factors(
    superpoint: int,
    counts: np.ndarray,
    sizes: np.ndarray,
    neighbors: list[np.ndarray],
) -> np.ndarray:
    """(T,) mean visible fraction of the superpoint's neighbors in each view.

    Averages ``count / size`` over the neighbor list; always in [0, 1].
    A superpoint without neighbors (single-superpoint scene) gets the
    neutral factor 1.0. The contiguous copy keeps numpy's pairwise sum
    over each row, so every value is bitwise equal to a per-view mean.
    """
    nbr = neighbors[superpoint]
    if len(nbr) == 0:
        return np.ones(counts.shape[0])
    return np.ascontiguousarray(counts[:, nbr] / sizes[nbr]).mean(axis=1)


def pivot_view(
    superpoint: int,
    counts: np.ndarray,
    sizes: np.ndarray,
    neighbors: list[np.ndarray],
) -> int:
    """The view with the highest ``counts * scale_factors`` (ties: lowest index)."""
    values = counts[:, superpoint] * scale_factors(superpoint, counts, sizes, neighbors)
    if not np.any(values > 0):
        raise NoPivotViewError("no pivot view")
    return int(np.argmax(values))
