"""Lifting 2D mask tracks to superpoint sets and refining the 3D mask.

A track's masks are lifted to a :class:`VisibilityMatrix`: per view, the
superpoints whose projection overlaps the mask above a threshold. The
refinement objective counts, summed over the track's views, how many
projected points of the selected superpoints fall inside the mask minus
how many fall outside. Because superpoints partition the points, every
projected point belongs to exactly one superpoint and the objective is a
sum of cached per-view, per-superpoint contributions.

Solvers over the visibility structure:

* :func:`dp_refine` -- the forward sweep that at each view either keeps the
  current selection or unions in that view's visible set, whichever scores
  higher (ties keep the smaller selection). Greedy, not globally optimal.
* :func:`brute_force_views` / :func:`brute_force_superpoints` -- exhaustive
  oracles over view subsets and superpoint subsets, capped to stay tractable.
* :func:`top_k_views_refine` -- exhaustive search restricted to the k views
  with the best solo objectives.
* :func:`all_lifted` -- no refinement, the union of every visible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraFrame, project_cloud, project_points
from .superpoints import SuperpointPartition
from .tracks import MaskTrack
from .view_select import PixelIndex

__all__ = [
    "VisibilityMatrix",
    "Solution",
    "visibility_matrix",
    "objective_value",
    "objective_from_counts",
    "dp_refine",
    "brute_force_views",
    "brute_force_superpoints",
    "top_k_views_refine",
    "all_lifted",
]

_ENUM_CHUNK = 4096


@dataclass
class VisibilityMatrix:
    """Per-view visible superpoint sets plus cached overlap counts.

    views:        (V,) ascending working-view indices present in the track
    rows:         (V, L) booleans, True where the overlap ratio met the threshold
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
        if self.view_count == 0:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.rows.any(axis=0))

    def view_weights(self) -> np.ndarray:
        """(V, L) per-view objective contribution: inside minus outside."""
        return 2 * self.in_counts - self.total_counts

    def total_weights(self) -> np.ndarray:
        """(L,) objective contribution of each superpoint over all views."""
        if self.view_count == 0:
            return np.zeros(self.superpoint_count, dtype=np.int64)
        return self.view_weights().sum(axis=0)


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


def _check_mask_shapes(track: MaskTrack, frames: list[CameraFrame]) -> None:
    for t in track.views():
        frame = frames[t]
        if track.masks[t].shape != (frame.height, frame.width):
            raise ValueError(
                f"track {track.track_id} view {t}: mask shape {track.masks[t].shape} "
                f"does not match frame {(frame.height, frame.width)}"
            )


def visibility_matrix(
    track: MaskTrack,
    positions: np.ndarray,
    partition: SuperpointPartition,
    frames: list[CameraFrame],
    tau: float = 0.5,
    depth_tolerance: float = 0.1,
    overlap_mode: str = "containment",
    pixels: PixelIndex | None = None,
) -> VisibilityMatrix:
    """Lift a track's 2D masks to per-view visible superpoint sets.

    ``containment`` marks a superpoint visible in a view when at least
    ``tau`` of its projected points fall inside the mask. ``iou`` instead
    thresholds the pixel-set IoU between the superpoint's distinct pixels
    and the mask. Superpoints with no projected points in a view are never
    visible there. ``pixels`` is the scene's pixel index; without it, one is
    built by projecting ``positions`` into ``frames``.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if overlap_mode not in ("containment", "iou"):
        raise ValueError(f"unknown overlap mode {overlap_mode!r}")
    _check_mask_shapes(track, frames)
    if pixels is None:
        pixels = PixelIndex.build(partition, project_cloud(positions, frames, depth_tolerance))
    L = partition.count
    views = track.views()
    total_counts = pixels.counts[views]
    in_counts = np.zeros((len(views), L), dtype=np.int64)
    rows = np.zeros((len(views), L), dtype=bool)
    for v, t in enumerate(views):
        span = pixels.view(t)
        mask = track.masks[t]
        labels = pixels.labels[span]
        inside = mask[pixels.rows[span], pixels.cols[span]]
        in_counts[v] = np.bincount(labels[inside], minlength=L)
        if overlap_mode == "iou":
            rows[v] = _iou_row(pixels.rows[span], pixels.cols[span], labels, mask, L) >= tau
    if overlap_mode == "containment":
        with np.errstate(invalid="ignore"):
            ratio = in_counts / total_counts
        rows = (total_counts > 0) & (np.nan_to_num(ratio) >= tau)
    return VisibilityMatrix(np.asarray(views), rows, in_counts, total_counts)


def _iou_row(rows: np.ndarray, cols: np.ndarray, labels: np.ndarray, mask: np.ndarray, L: int) -> np.ndarray:
    """Pixel-set IoU of each superpoint's distinct pixels against the mask."""
    h, w = mask.shape
    pix = rows.astype(np.int64) * w + cols  # int32 keys would overflow at L*H*W >= 2**31
    pairs = np.unique(labels.astype(np.int64) * (h * w) + pix)
    pair_labels = pairs // (h * w)
    pair_pix = pairs % (h * w)
    unique_pix = np.bincount(pair_labels, minlength=L)
    inside = mask.reshape(-1)[pair_pix]
    in_pix = np.bincount(pair_labels[inside], minlength=L)
    mask_area = int(np.count_nonzero(mask))
    union = unique_pix + mask_area - in_pix
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = in_pix / union
    return np.where(unique_pix > 0, np.nan_to_num(iou), 0.0)


def objective_value(
    theta: np.ndarray,
    track: MaskTrack,
    positions: np.ndarray,
    partition: SuperpointPartition,
    frames: list[CameraFrame],
    depth_tolerance: float = 0.1,
) -> int:
    """Inside-minus-outside projected-point count of a selection, summed
    over the track's views. Points are counted with multiplicity; the
    projection of the selection is the union of its member superpoints'
    pixel sets. Reprojects the points, independently of the pixel index."""
    theta = np.asarray(theta, dtype=bool)
    if theta.shape != (partition.count,):
        raise ValueError("theta must have one entry per superpoint")
    _check_mask_shapes(track, frames)
    selected_points = theta[partition.assignment]
    total = 0
    for t in track.views():
        ps = project_points(positions, frames[t], depth_tolerance)
        chosen = selected_points[ps.indices]
        inside = int(np.count_nonzero(track.masks[t][ps.rows, ps.cols] & chosen))
        outside = int(np.count_nonzero(chosen)) - inside
        total += inside - outside
    return total


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


def _enumerate_best(bit_count: int, scorer) -> tuple[int, int]:
    """Maximize scorer over all bitmasks; ties go to the smaller bitmask.

    ``scorer`` maps a (chunk, bit_count) boolean matrix to integer scores.
    """
    best_mask = 0
    best_score = None
    bits = np.arange(bit_count, dtype=np.uint32)
    for start in range(0, 1 << bit_count, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, 1 << bit_count)
        codes = np.arange(start, stop, dtype=np.uint32)
        members = (codes[:, None] >> bits) & 1
        scores = scorer(members.astype(bool))
        top = int(np.argmax(scores))
        if best_score is None or scores[top] > best_score:
            best_score = int(scores[top])
            best_mask = start + top
    return best_mask, int(best_score)


def _brute_views_over(vis: VisibilityMatrix, view_positions: np.ndarray) -> Solution:
    """Best union of visible sets over subsets of the given view positions.

    Scores are always the full-track objective; ties prefer the smaller
    bitmask over the (ascending) restricted views.
    """
    if len(view_positions) == 0:
        return Solution(np.zeros(vis.superpoint_count, dtype=bool), 0)
    weights = vis.total_weights()
    rows = vis.rows[view_positions].astype(np.int64)

    def scorer(members: np.ndarray) -> np.ndarray:
        thetas = members @ rows > 0
        return thetas @ weights

    mask, score = _enumerate_best(len(view_positions), scorer)
    chosen = np.array([(mask >> v) & 1 for v in range(len(view_positions))], dtype=bool)
    if chosen.any():
        theta = vis.rows[view_positions[chosen]].any(axis=0)
    else:
        theta = np.zeros(vis.superpoint_count, dtype=bool)
    return Solution(theta, score)


def brute_force_views(vis: VisibilityMatrix, max_views: int = 20) -> Solution:
    """Exhaustive search over view subsets; the selection of a subset is the
    union of its visible sets. Ties prefer the smaller view bitmask."""
    V = vis.view_count
    if V > max_views:
        raise ValueError(
            f"{V} views exceeds the enumeration cap of {max_views}; "
            "use dp_refine or top_k_views_refine instead"
        )
    return _brute_views_over(vis, np.arange(V))


def brute_force_superpoints(vis: VisibilityMatrix, max_candidates: int = 20) -> Solution:
    """Exhaustive search over subsets of the candidate superpoints (those
    appearing in some visibility row). Ties prefer the smaller bitmask."""
    cand = vis.candidates()
    if len(cand) > max_candidates:
        raise ValueError(
            f"{len(cand)} candidate superpoints exceed the enumeration cap of {max_candidates}"
        )
    theta = np.zeros(vis.superpoint_count, dtype=bool)
    if len(cand) == 0:
        return Solution(theta, 0)
    weights = vis.total_weights()[cand]

    def scorer(members: np.ndarray) -> np.ndarray:
        return members @ weights

    mask, score = _enumerate_best(len(cand), scorer)
    for i, sp in enumerate(cand):
        if (mask >> i) & 1:
            theta[sp] = True
    return Solution(theta, score)


def top_k_views_refine(vis: VisibilityMatrix, k: int, max_views: int = 20) -> Solution:
    """Keep the k views with the best solo visible-set objectives (ties to
    the lower view index), then brute force over just those views. The
    objective stays the full-track sum."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if vis.view_count == 0:
        return Solution(np.zeros(vis.superpoint_count, dtype=bool), 0)
    if min(k, vis.view_count) > max_views:
        raise ValueError(f"k={k} exceeds the enumeration cap of {max_views}")
    weights = vis.total_weights()
    solo = vis.rows.astype(np.int64) @ weights
    order = np.lexsort((np.arange(vis.view_count), -solo))
    keep = np.sort(order[: min(k, vis.view_count)])
    return _brute_views_over(vis, keep)


def all_lifted(vis: VisibilityMatrix) -> Solution:
    """No refinement: the union of every view's visible set."""
    if vis.view_count == 0:
        theta = np.zeros(vis.superpoint_count, dtype=bool)
    else:
        theta = vis.rows.any(axis=0)
    return Solution(theta, objective_from_counts(theta, vis))
