"""Lifting 2D mask tracks to superpoint sets and refining the 3D mask.

A track's masks are lifted to a :class:`VisibilityMatrix` by one rule,
containment: per view, the superpoints with at least a fraction ``tau`` of
their projected points inside the mask. An oracle track's inside counts are
the pixel index's rows for its render id; any other track's are counted
from its masks' run lengths, which a track read from a file holds as they
are, so that no mask is decoded. The refinement objective counts,
summed over the track's views, how many projected points of the selected
superpoints fall inside the mask minus how many fall outside. Superpoints
partition the points, so the objective is a sum of cached per-view,
per-superpoint contributions.

Solvers over the visibility structure:

* :func:`dp_refine` -- the forward sweep that at each view either keeps the
  current selection or unions in that view's visible set, whichever scores
  higher (ties keep the smaller selection). Greedy, not globally optimal.
* :func:`brute_force_views` -- exhaustive search over view subsets, capped
  at ``_MAX_ENUM_VIEWS`` views to stay tractable.
* :func:`brute_force_superpoints` -- the best superpoint subset, which the
  linear objective gives in closed form: the candidates of positive total
  weight. It bounds every union of views from above and has no cap.
* :func:`top_k_views_refine` -- exhaustive search restricted to the k views
  with the best solo objectives, under the same view cap.
* :func:`all_lifted` -- no refinement, the union of every visible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .tracks import MaskTrack, track_intervals
from .view_select import PixelIndex

__all__ = [
    "VisibilityMatrix",
    "Solution",
    "visibility_matrix",
    "objective_from_counts",
    "dp_refine",
    "brute_force_views",
    "brute_force_superpoints",
    "top_k_views_refine",
    "all_lifted",
]

_ENUM_CHUNK = 4096
_MAX_ENUM_VIEWS = 20


@dataclass
class VisibilityMatrix:
    """Per-view visible superpoint sets plus cached overlap counts.

    views:        (V,) ascending working-view indices present in the track
    rows:         (V, L) booleans, True where the contained fraction met tau
    in_counts:    (V, L) projected points of each superpoint inside the mask
    total_counts: (V, L) projected points of each superpoint in the view
    """

    views: np.ndarray
    rows: np.ndarray
    in_counts: np.ndarray
    total_counts: np.ndarray

    def __post_init__(self) -> None:
        self.views = np.asarray(self.views, dtype=np.int64)
        self.rows = np.asarray(self.rows, dtype=bool)
        self.in_counts = np.asarray(self.in_counts, dtype=np.int64)
        self.total_counts = np.asarray(self.total_counts, dtype=np.int64)
        shape = self.rows.shape
        if self.in_counts.shape != shape or self.total_counts.shape != shape:
            raise ValueError("count matrices must match the rows shape")
        if len(self.views) != shape[0]:
            raise ValueError("one view index per row required")

    @property
    def view_count(self) -> int:
        return self.rows.shape[0]

    @property
    def superpoint_count(self) -> int:
        return self.rows.shape[1]

    def candidates(self) -> np.ndarray:
        """Sorted superpoint ids appearing in at least one visibility row."""
        return np.flatnonzero(self.rows.any(axis=0))

    def total_weights(self) -> np.ndarray:
        """(L,) objective contribution of each superpoint over all views:
        its projected points inside the mask minus those outside."""
        return (2 * self.in_counts - self.total_counts).sum(axis=0)


@dataclass
class Solution:
    """A refined superpoint selection and its objective value."""

    theta: np.ndarray
    objective: int

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=bool)
        self.objective = int(self.objective)

    def selected(self) -> np.ndarray:
        return np.flatnonzero(self.theta)


def visibility_matrix(track: MaskTrack, pixels: PixelIndex, tau: float = 0.5) -> VisibilityMatrix:
    """Lift a track's 2D masks to per-view visible superpoint sets.

    A superpoint is visible in a view when at least ``tau`` of its projected
    points there fall inside the mask (containment); one with no projected
    points in a view is never visible there. ``pixels`` is the scene's pixel
    index; a track with an ``instance`` reads its rows for that id, if any,
    and no mask. Any other track is counted from its masks' run lengths in
    one :meth:`PixelIndex.count_intervals` call.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    views = track.views()
    T = len(pixels.counts)
    for t in views:
        if not 0 <= t < T:
            raise ValueError(f"track {track.track_id} view {t}: outside the {T} views of the pixel index")
    total_counts = pixels.counts[views]
    if track.instance is not None and pixels.instance_ids is not None:
        at = np.flatnonzero(pixels.instance_ids == track.instance)
        if pixels.instance_views[at].tolist() != views:
            raise InvariantViolation(f"track {track.track_id}: the views of id {track.instance} are not its mask views")
        in_counts = pixels.instance_counts[at]
    else:
        in_counts = pixels.count_intervals(views, *track_intervals(track, views, pixels.shape))
    with np.errstate(invalid="ignore"):
        ratio = in_counts / total_counts
    rows = (total_counts > 0) & (np.nan_to_num(ratio) >= tau)
    return VisibilityMatrix(np.asarray(views), rows, in_counts, total_counts)


def objective_from_counts(theta: np.ndarray, vis: VisibilityMatrix) -> int:
    """Objective evaluated from the cached per-view counts."""
    theta = np.asarray(theta, dtype=bool)
    return int(vis.total_weights() @ theta)


def dp_refine(vis: VisibilityMatrix) -> Solution:
    """Forward sweep over views: keep the selection or union the view's
    visible set, whichever scores higher; ties keep the current (smaller)
    selection. Objectives are always evaluated over all track views."""
    weights = vis.total_weights()
    theta = np.zeros(vis.superpoint_count, dtype=bool)
    best = 0
    for v in range(vis.view_count):
        merged = theta | vis.rows[v]
        score = int(weights @ merged)
        if score > best:
            theta = merged
            best = score
    return Solution(theta, best)


def _brute_views_over(vis: VisibilityMatrix, view_positions: np.ndarray) -> Solution:
    """Best union of visible sets over subsets of the given view positions.

    Scores every view bitmask, a chunk at a time, with the full-track
    objective; ties prefer the smaller bitmask over the (ascending)
    restricted views. At most ``_MAX_ENUM_VIEWS`` views are enumerated.
    """
    n = len(view_positions)
    if n > _MAX_ENUM_VIEWS:
        raise ValueError(
            f"{n} views exceed the enumeration cap of {_MAX_ENUM_VIEWS}; "
            f"use dp_refine or top_k_views_refine with k <= {_MAX_ENUM_VIEWS}"
        )
    weights = vis.total_weights()
    rows = vis.rows[view_positions].astype(np.int64)
    bits = np.arange(n, dtype=np.uint32)
    best_mask, best_score = 0, 0  # the empty subset, bitmask 0, scores 0
    for start in range(0, 1 << n, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, 1 << n), dtype=np.uint32)
        members = ((codes[:, None] >> bits) & 1).astype(bool)
        scores = (members @ rows > 0) @ weights
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_mask, best_score = start + top, int(scores[top])
    chosen = ((best_mask >> bits) & 1).astype(bool)
    return Solution(vis.rows[view_positions[chosen]].any(axis=0), best_score)


def brute_force_views(vis: VisibilityMatrix) -> Solution:
    """Exhaustive search over view subsets; the selection of a subset is the
    union of its visible sets. Ties prefer the smaller view bitmask."""
    return _brute_views_over(vis, np.arange(vis.view_count))


def brute_force_superpoints(vis: VisibilityMatrix) -> Solution:
    """The best subset of the candidate superpoints (those appearing in some
    visibility row). The objective is linear in theta, so that subset is
    the candidates of positive total weight; zero-weight candidates stay
    out, as in the smallest optimal bitmask."""
    weights = vis.total_weights()
    theta = vis.rows.any(axis=0) & (weights > 0)
    return Solution(theta, int(weights @ theta))


def top_k_views_refine(vis: VisibilityMatrix, k: int) -> Solution:
    """Keep the k views with the best solo visible-set objectives (ties to
    the lower view index), then brute force over just those views. The
    objective stays the full-track sum."""
    if k < 1:
        raise ValueError("k must be at least 1")
    solo = vis.rows.astype(np.int64) @ vis.total_weights()
    order = np.lexsort((np.arange(vis.view_count), -solo))
    return _brute_views_over(vis, np.sort(order[:k]))


def all_lifted(vis: VisibilityMatrix) -> Solution:
    """No refinement: the union of every view's visible set."""
    theta = vis.rows.any(axis=0)
    return Solution(theta, objective_from_counts(theta, vis))
