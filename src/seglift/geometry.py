"""Projection geometry and point-cloud neighborhood utilities.

Conventions used everywhere in this package:

* extrinsics are world-to-camera, ``p_cam = R @ p_world + t``; the camera
  looks down +z, image rows grow with +y and columns with +x
* pixels are (row, col); a projected point lands on the pixel obtained by
  rounding half away from zero
* a depth value of 0 means "invalid measurement" and never passes the
  occlusion test
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "CameraFrame",
    "PixelSet",
    "project_points",
    "project_cloud",
    "backproject_pixels",
    "fps_sample",
    "knn_centroids",
    "estimate_normals",
]

_ROT_TOL = 1e-6


@dataclass
class PointCloud:
    """A point cloud with optional per-point ground-truth instance ids.

    positions: (N, 3) float coordinates in meters
    colors:    (N, 3) floats in [0, 1]
    gt_instance: optional (N,) ints, -1 = unlabeled / background
    """

    positions: np.ndarray
    colors: np.ndarray
    gt_instance: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.colors = np.asarray(self.colors, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        n = len(self.positions)
        if n < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if self.colors.shape != (n, 3):
            raise ValueError("colors must be (N, 3)")
        if np.any(self.colors < 0.0) or np.any(self.colors > 1.0):
            raise ValueError("colors must lie in [0, 1]")
        if self.gt_instance is not None:
            self.gt_instance = np.asarray(self.gt_instance, dtype=np.int64)
            if self.gt_instance.shape != (n,):
                raise ValueError("gt_instance must be (N,)")
            if np.any(self.gt_instance < -1):
                raise ValueError("gt_instance values must be -1 or nonnegative")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class CameraFrame:
    """A posed depth frame: pinhole intrinsics, rigid extrinsics, depth map."""

    fx: float
    fy: float
    cx: float
    cy: float
    extrinsics: np.ndarray
    depth: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        self.extrinsics = np.asarray(self.extrinsics, dtype=np.float64)
        if self.extrinsics.shape != (4, 4):
            raise ValueError("extrinsics must be a 4x4 matrix")
        rot = self.extrinsics[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=_ROT_TOL):
            raise ValueError("extrinsics rotation block is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ROT_TOL:
            raise ValueError("extrinsics rotation must have determinant +1")
        if not np.allclose(self.extrinsics[3], (0.0, 0.0, 0.0, 1.0)):
            raise ValueError("extrinsics bottom row must be (0, 0, 0, 1)")
        self.depth = np.asarray(self.depth, dtype=np.float64)
        if self.depth.shape != (self.height, self.width):
            raise ValueError(
                f"depth map shape {self.depth.shape} does not match "
                f"image size {(self.height, self.width)}"
            )
        if not np.all(np.isfinite(self.depth)) or np.any(self.depth < 0):
            raise ValueError("depth values must be finite and nonnegative")

    @property
    def rotation(self) -> np.ndarray:
        return self.extrinsics[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.extrinsics[:3, 3]


@dataclass
class PixelSet:
    """Pixels hit by an ordered subset of points in one view.

    ``indices[i]`` is the source point id that produced pixel
    ``(rows[i], cols[i])``; ids are strictly increasing.
    """

    rows: np.ndarray
    cols: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if not (len(self.rows) == len(self.cols) == len(self.indices)):
            raise ValueError("rows, cols and indices must have equal length")
        if len(self.indices) > 1 and np.any(np.diff(self.indices) <= 0):
            raise ValueError("source point indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def is_empty(self) -> bool:
        return len(self.indices) == 0

    def pixels(self) -> np.ndarray:
        """(M, 2) array of (row, col) pairs, possibly with duplicates."""
        return np.stack([self.rows, self.cols], axis=1)


def _empty_pixel_set() -> PixelSet:
    z = np.empty(0, dtype=np.int64)
    return PixelSet(z, z.copy(), z.copy())


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero."""
    return np.trunc(values + np.copysign(0.5, values))


def project_points(
    positions: np.ndarray,
    frame: CameraFrame,
    depth_tolerance: float = 0.1,
    indices: np.ndarray | None = None,
) -> PixelSet:
    """Project points into a posed depth frame with an occlusion test.

    A point is kept iff its camera depth is strictly positive, its rounded
    pixel is in bounds, the frame's depth there is valid (> 0), and the
    camera depth agrees with the depth map within ``depth_tolerance``.

    ``indices`` optionally maps rows of ``positions`` to ids in a larger
    cloud; it must be strictly increasing.
    """
    if depth_tolerance <= 0:
        raise ValueError("depth_tolerance must be positive")
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if indices is None:
        idx = np.arange(n, dtype=np.int64)
    else:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.shape != (n,):
            raise ValueError("indices must have one entry per point")
        if n > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
    if n == 0:
        return _empty_pixel_set()

    cam = pts @ frame.rotation.T + frame.translation
    front = np.flatnonzero(cam[:, 2] > 0)
    if front.size == 0:
        return _empty_pixel_set()
    z = cam[front, 2]
    rr = _round_half_away(frame.fy * cam[front, 1] / z + frame.cy).astype(np.int64)
    cc = _round_half_away(frame.fx * cam[front, 0] / z + frame.cx).astype(np.int64)
    in_bounds = (rr >= 0) & (rr < frame.height) & (cc >= 0) & (cc < frame.width)
    front, rr, cc, z = front[in_bounds], rr[in_bounds], cc[in_bounds], z[in_bounds]
    if front.size == 0:
        return _empty_pixel_set()
    measured = frame.depth[rr, cc]
    keep = (measured > 0) & (np.abs(z - measured) <= depth_tolerance)
    return PixelSet(rr[keep], cc[keep], idx[front[keep]])


def project_cloud(
    positions: np.ndarray,
    frames: list[CameraFrame],
    depth_tolerance: float = 0.1,
) -> list[PixelSet]:
    """Project the whole cloud into every frame; one PixelSet per view."""
    return [project_points(positions, f, depth_tolerance) for f in frames]


def backproject_pixels(
    frame: CameraFrame,
    rows: np.ndarray,
    cols: np.ndarray,
    depths: np.ndarray,
) -> np.ndarray:
    """Lift pixels (row, col) at given camera depths to world coordinates."""
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    x = (cols - frame.cx) / frame.fx * depths
    y = (rows - frame.cy) / frame.fy * depths
    cam = np.stack([x, y, depths], axis=-1)
    return (cam - frame.translation) @ frame.rotation


def fps_sample(
    points: np.ndarray,
    count: int,
    eligible: np.ndarray | None = None,
) -> list[int]:
    """Greedy farthest-point sampling over 3D points.

    Starts from the lowest eligible index; every later pick maximizes the
    minimum distance to the picks so far, ties broken by lowest index.
    Returns ``min(count, #eligible)`` indices in pick order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if count < 1:
        raise ValueError("count must be at least 1")
    if eligible is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(eligible, dtype=bool)
        if mask.shape != (n,):
            raise ValueError("eligible mask must have one entry per point")
    pool = np.flatnonzero(mask)
    if pool.size == 0:
        raise ValueError("empty sample pool")

    first = int(pool[0])
    picked = [first]
    # min squared distance to the picked set; ineligible entries pinned at -inf
    dist = np.sum((pts - pts[first]) ** 2, axis=1)
    dist[~mask] = -np.inf
    dist[first] = -np.inf
    target = min(count, pool.size)
    while len(picked) < target:
        nxt = int(np.argmax(dist))
        picked.append(nxt)
        dist = np.minimum(dist, np.sum((pts - pts[nxt]) ** 2, axis=1))
        dist[nxt] = -np.inf
    return picked


def knn_centroids(centroids: np.ndarray, k: int) -> list[np.ndarray]:
    """Per-index nearest neighbors by Euclidean distance.

    Each list holds ``min(k, L-1)`` other indices sorted by distance, ties
    broken by lowest index; an index is never its own neighbor.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pts = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n == 1:
        return [np.empty(0, dtype=np.int64)]
    diffs = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(d2, np.inf)
    take = min(k, n - 1)
    out = []
    for i in range(n):
        order = np.argsort(d2[i], kind="stable")[:take]
        out.append(order.astype(np.int64))
    return out


def estimate_normals(positions: np.ndarray, k: int = 12) -> np.ndarray:
    """Per-point unit normals from local PCA over k nearest neighbors.

    The normal is the smallest principal direction of the neighborhood
    covariance (the point itself included). Signs are canonicalized so the
    component with the largest absolute value is positive. Neighborhoods of
    rank < 2 fall back to (0, 0, 1).
    """
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if k < 3:
        raise ValueError("k must be at least 3")
    if n <= k:
        raise ValueError("need more points than neighbors")
    tree = cKDTree(pts)
    _, nbr = tree.query(pts, k=k + 1)
    hood = pts[nbr]
    centered = hood - hood.mean(axis=1, keepdims=True)
    cov = np.einsum("mki,mkj->mij", centered, centered)
    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0].copy()
    spread = evals[:, 2]
    degenerate = (spread <= 0.0) | (evals[:, 1] <= 1e-10 * spread)
    normals[degenerate] = (0.0, 0.0, 1.0)
    lead = np.argmax(np.abs(normals), axis=1)
    signs = np.sign(normals[np.arange(n), lead])
    signs[signs == 0] = 1.0
    return normals * signs[:, None]
