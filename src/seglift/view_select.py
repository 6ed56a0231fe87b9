"""Pivot-view selection from neighbor-weighted projection histograms.

For a superpoint, the per-view score is its projected-point count scaled by
the mean visible fraction of its nearest neighbor superpoints. The pivot is
the view with the highest score, ties to the lowest view index.
"""

from __future__ import annotations

import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import PixelSet
from .superpoints import SuperpointPartition

__all__ = [
    "NoPivotViewError",
    "PixelIndex",
    "mask_intervals",
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
    """Every working view's projected points as sorted keys, view by view.

    The entries of view t are ``keys[starts[t]:starts[t + 1]]``, one key
    ``pixel * L + superpoint`` per projected point, with ``pixel = row * W +
    col``, in ascending order: by row, then column, then superpoint. Keys
    are int32 when ``H * W * L <= 2**31``, int64 otherwise. ``counts`` is
    (T, L): each superpoint's projected points per view. ``shape`` is the
    (H, W) of every view's image. Built with renders, row r of the (R, L)
    int32 ``instance_counts`` counts, as ``count_inside`` would, view
    ``instance_views[r]``'s points where its render is ``instance_ids[r]``:
    a row per id a view holds, ids ascending, else None.
    """

    counts: np.ndarray
    starts: np.ndarray
    keys: np.ndarray
    shape: tuple[int, int]
    instance_views: np.ndarray | None = None
    instance_ids: np.ndarray | None = None
    instance_counts: np.ndarray | None = None

    @classmethod
    def build(cls, partition: SuperpointPartition, projections: Iterable[PixelSet], shape: tuple[int, int],
              renders: Sequence[np.ndarray] | None = None) -> "PixelIndex":
        """Index an iterable of views in one pass: each view is reduced to its
        counts row and its sorted keys before the next is read, so a
        generator that projects one view at a time never holds every view's
        projected points at once. ``renders[t]`` is read once view t is
        drawn, so a list the generator fills as it projects serves."""
        L = partition.count
        dtype = np.int32 if shape[0] * shape[1] * L <= 2**31 else np.int64
        count_rows, parts = [], []
        row_views, row_ids, row_counts = [], [], array.array("i")  # the counts at 4 B per entry
        for t, ps in enumerate(projections):
            # as Python ints: numpy holds on to freed buffers under 1 KB for reuse,
            # and one live row per view, spread over the heap, kept it from shrinking
            count_rows.append(superpoint_view_counts(partition, [ps])[0].tolist())
            labels = partition.assignment.take(ps.indices)
            keys = ps.rows * shape[1] + ps.cols
            if renders is not None:
                ids = np.unique(renders[t])  # ranked, not offset: a dense count over the id span could be huge
                rank = ids.searchsorted(renders[t].reshape(-1).take(keys))
                row_counts.frombytes(np.bincount(rank * L + labels, minlength=len(ids) * L).astype(np.int32).tobytes())
                row_ids += ids.tolist()
                row_views += [t] * len(ids)
            keys *= L
            keys += labels
            part = keys.astype(dtype)
            part.sort()
            parts.append(part)
        counts = np.array(count_rows, dtype=np.int64).reshape(-1, L)
        starts = np.concatenate([[0], np.cumsum([len(part) for part in parts], dtype=np.int64)])
        keys = np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
        table = () if renders is None else (np.array(row_views, dtype=np.int64), np.array(row_ids, dtype=np.int64),
                                            np.frombuffer(row_counts, dtype=np.int32).reshape(-1, L))
        return cls(counts, starts, keys, tuple(shape), *table)

    def view(self, t: int) -> slice:
        """The entries of view ``t``."""
        return slice(self.starts[t], self.starts[t + 1])

    def pixels_of(self, t: int, superpoint: int) -> np.ndarray:
        """Ascending pixel ids of the superpoint's entries in view ``t``, one per point."""
        keys = self.keys[self.view(t)]
        L = self.counts.shape[1]
        return keys[keys % L == superpoint] // L

    def count_inside(self, t: int, mask: np.ndarray) -> np.ndarray:
        """(L,) entries of view ``t`` per superpoint whose pixel is True in
        the (H, W) ``mask``: :meth:`count_intervals` over the mask's runs."""
        return self.count_intervals([t], *mask_intervals([mask]))[0]

    def count_intervals(self, views: Sequence[int], bounds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(V, L) entries of view ``views[v]`` per superpoint whose pixel lies
        in one of its intervals: ``bounds[offsets[v]:offsets[v + 1]]`` holds
        ascending pixel ids s0, e0, s1, e1, ... of the intervals [s0, e0),
        [s1, e1), ..., as :func:`mask_intervals` gives them.

        The interval [s, e) holds the view's keys from s * L up to e * L.
        Each bound is searched as the key below it, in the keys' own dtype,
        which keeps it in range: one search per view finds the entries of all
        its intervals, and one bincount counts every view's.
        """
        L = self.counts.shape[1]
        below = (bounds * L - 1).astype(self.keys.dtype)  # the key below each bound
        first, starts = offsets.tolist(), self.starts.tolist()
        found = np.concatenate([np.empty(0, dtype=np.int64)] + [
            self.keys[starts[t] : starts[t + 1]].searchsorted(below[first[v] : first[v + 1]], side="right")
            for v, t in enumerate(views)
        ])
        found += np.repeat(self.starts[views], np.diff(offsets))
        lo, sizes = found[0::2], found[1::2] - found[0::2]
        inside = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())  # every entry in an interval
        rows = np.repeat(np.repeat(np.arange(len(views)), np.diff(offsets) // 2), sizes)  # and its view's row
        return np.bincount(rows * L + self.keys[inside] % L, minlength=len(views) * L).reshape(-1, L)


def mask_intervals(masks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The runs of True pixels of masks of one shape, as intervals of
    row-major pixel ids: ``bounds[offsets[v]:offsets[v + 1]]`` holds s0, e0,
    s1, e1, ..., mask v's runs being [s0, e0), [s1, e1), ... Each mask is
    framed by a False pixel on either side, so every run starts and ends
    where its neighbors differ; all masks are read in one pass."""
    width = (masks[0].size if masks else 0) + 1  # a mask's pixels and the frame after them
    framed = np.zeros((len(masks), 1 + width), dtype=bool)
    framed[:, 1:-1] = np.reshape(masks, (len(masks), width - 1))
    changes = np.flatnonzero(framed[:, 1:] != framed[:, :-1])
    return changes % width, changes.searchsorted(np.arange(len(masks) + 1) * width)


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
