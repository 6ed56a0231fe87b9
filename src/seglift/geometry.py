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
    "check_intrinsics",
    "check_extrinsics",
    "PixelSet",
    "project_points",
    "project_cloud",
    "fps_sample",
    "knn_centroids",
    "shared_knn",
    "estimate_normals",
]

_ROT_TOL = 1e-6
_EYE3, _BOTTOM_ROW = np.eye(3), np.array([0.0, 0.0, 0.0, 1.0])
_NORMALS_BLOCK = 8192  # points per block of estimate_normals: bounds its (k+1, block, 3) neighbourhood
_COV_ENTRIES = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))  # the distinct entries of a 3x3 covariance
_KNN_BLOCK = 8192  # query points per block of shared_knn: bounds the block's results before they are scattered


@dataclass
class PointCloud:
    """A point cloud with optional per-point ground-truth instance ids.

    positions: (N, 3) float coordinates in meters
    gt_instance: optional (N,) ints, -1 = unlabeled / background
    """

    positions: np.ndarray
    gt_instance: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        n = len(self.positions)
        if n < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if self.gt_instance is not None:
            self.gt_instance = np.asarray(self.gt_instance, dtype=np.int64)
            if self.gt_instance.shape != (n,):
                raise ValueError("gt_instance must be (N,)")
            if np.any(self.gt_instance < -1):
                raise ValueError("gt_instance values must be -1 or nonnegative")

    def __len__(self) -> int:
        return len(self.positions)


def check_intrinsics(fx: float, fy: float, cx: float, cy: float, width: int, height: int) -> None:
    """Raise ValueError unless the pinhole intrinsics are finite, with
    positive focal lengths and a positive image size."""
    if not np.all(np.isfinite((fx, fy, cx, cy))):
        raise ValueError("intrinsics must be finite")
    if fx <= 0 or fy <= 0:
        raise ValueError("focal lengths must be positive")
    if width <= 0 or height <= 0:
        raise ValueError("image size must be positive")


def check_extrinsics(extrinsics) -> np.ndarray:
    """The extrinsics as a float64 4x4 array; ValueError unless rigid."""
    extrinsics = np.asarray(extrinsics, dtype=np.float64)
    if extrinsics.shape != (4, 4):
        raise ValueError("extrinsics must be a 4x4 matrix")
    rot = extrinsics[:3, :3]
    # the inequality np.allclose evaluates, without its per-call setup; NaN and inf fail it without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.all(np.abs(rot @ rot.T - _EYE3) <= _ROT_TOL + 1e-5 * _EYE3):
            raise ValueError("extrinsics rotation block is not orthonormal")
    if abs(np.linalg.det(rot) - 1.0) > _ROT_TOL:
        raise ValueError("extrinsics rotation must have determinant +1")
    if not np.all(np.abs(extrinsics[3] - _BOTTOM_ROW) <= 1e-8 + 1e-5 * _BOTTOM_ROW):
        raise ValueError("extrinsics bottom row must be (0, 0, 0, 1)")
    return extrinsics


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
        check_intrinsics(self.fx, self.fy, self.cx, self.cy, self.width, self.height)
        self.extrinsics = check_extrinsics(self.extrinsics)
        depth = np.asarray(self.depth)  # float32 or float64 is kept: comparisons promote it exactly
        self.depth = depth if depth.dtype in (np.float32, np.float64) else depth.astype(np.float64)
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
    """Pixels hit by a subset of points in one view: ``indices[i]`` is the
    source point id that produced pixel ``(rows[i], cols[i])``. The three
    are int64 arrays of one length; nothing checks or casts them."""

    rows: np.ndarray
    cols: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero."""
    rounded = np.copysign(0.5, values)
    rounded += values
    return np.trunc(rounded, out=rounded)


def project_points(positions: np.ndarray, frame: CameraFrame, depth_tolerance: float = 0.1) -> PixelSet:
    """Project points into a posed depth frame with an occlusion test.

    A point is kept iff its camera depth is strictly positive, its rounded
    pixel is in bounds, the frame's depth there is valid (> 0), and the
    camera depth agrees with the depth map within ``depth_tolerance``. The
    kept points' ids are their rows of ``positions``.
    """
    if not (np.isfinite(depth_tolerance) and depth_tolerance > 0):
        raise ValueError("depth_tolerance must be finite and positive")
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    height, width = frame.height, frame.width
    # camera-major (3, N): each coordinate is a contiguous row, so the
    # translation is added in long runs instead of three elements at a time
    cam = frame.rotation @ pts.T
    cam += frame.translation[:, None]
    u, z = cam[0], cam[2]
    # the column coordinate u = fx * x / z + cx, in place; points on or behind
    # the camera plane give inf or nan here and are culled next
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u *= frame.fx
        u /= z
        u += frame.cx
    # a superset of the kept points: u <= -1 rounds below column 0 and
    # u >= W + 1 to W or beyond, so only survivors are rounded
    near = u > -1
    near &= u < width + 1
    near &= z > 0
    hit = np.flatnonzero(near)
    u, v, z = cam.take(hit, axis=1)  # the survivors' u, y and z; the whole-cloud arrays are freed
    del cam
    col = _round_half_away(u).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        v *= frame.fy
        v /= z
        v += frame.cy
        # clipped to [-1, H] so that the cast cannot overflow; a clipped row stays out of bounds
        row = np.clip(_round_half_away(v), -1, height, out=v).astype(np.int64)
    # as unsigned, -1 wraps past every bound: one comparison tests both sides
    inside = (row.view(np.uint64) < height) & (col.view(np.uint64) < width)
    pixel = row * width
    pixel += col
    measured = frame.depth.reshape(-1).take(pixel, mode="clip")  # read off-image, then dropped
    z -= measured
    np.abs(z, out=z)
    keep = np.flatnonzero(inside & (measured > 0) & (z <= depth_tolerance))
    return PixelSet(row.take(keep), col.take(keep), hit.take(keep))


def project_cloud(
    positions: np.ndarray,
    frames: list[CameraFrame],
    depth_tolerance: float = 0.1,
) -> list[PixelSet]:
    """Project the whole cloud into every frame; one PixelSet per view."""
    return [project_points(positions, f, depth_tolerance) for f in frames]


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


def knn_centroids(centroids: np.ndarray, k: int) -> np.ndarray:
    """Per-index nearest neighbors by Euclidean distance.

    Row i of the (L, ``min(k, L-1)``) result holds other indices sorted by
    distance, ties broken by lowest index; an index is never its own neighbor.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pts = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    diffs = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, : min(k, len(pts) - 1)].astype(np.int64)


def shared_knn(positions: np.ndarray, ks: tuple[int, ...]) -> list[np.ndarray]:
    """Neighbor ids for several neighbor counts from one k-NN query.

    Returns one (N, k+1) array per ``k`` in ``ks``, self first, equal to
    ``cKDTree(positions).query(positions, k + 1)[1]``, as int32 below 2**31
    points. Each is a column prefix of one query at the largest ``k``. A
    prefix can differ from a direct query only where distances tie, at its
    boundary or inside it (a duplicate point can even displace the query
    point from column 0), so every row whose first ``k + 2`` distances hold
    a tie is queried again at exactly ``k + 1``.
    """
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    tree = cKDTree(pts)
    width = max(ks) + 1
    # queried in the tree's leaf order, one block at a time, so neighbouring
    # queries walk the same nodes; each block's ids are scattered back into
    # their rows, and its distances are read for ties and dropped
    nbr = np.empty((n, width), dtype=np.int32 if n < 2**31 else np.intp)
    tied = np.zeros((len(ks), n), dtype=bool)  # per k, the rows whose first k + 2 distances hold a tie
    for start in range(0, n, _KNN_BLOCK):
        rows = tree.indices[start : start + _KNN_BLOCK]
        dist, nbr[rows] = tree.query(pts[rows], k=width)
        same = dist[:, 1:] == dist[:, :-1]
        for i, k in enumerate(ks):
            tied[i, rows] = np.any(same[:, : k + 1], axis=1)
    out = []
    for k, rows in zip(ks, tied):
        prefix = nbr[:, : k + 1]
        rows = np.flatnonzero(rows)
        if k + 1 < width and rows.size:
            prefix = prefix.copy()
            prefix[rows] = tree.query(pts[rows], k=k + 1)[1]
        out.append(prefix)
    return out


NORMALS_K = 12  # neighbours of the PCA normal fit that prepare_state runs


def estimate_normals(
    positions: np.ndarray, k: int = NORMALS_K, neighbors: np.ndarray | None = None
) -> np.ndarray:
    """Per-point unit normals from local PCA over k nearest neighbors.

    The normal is the smallest principal direction of the neighborhood
    covariance (the point itself included). Signs are canonicalized so the
    component with the largest absolute value is positive. Neighborhoods of
    rank < 2 fall back to (0, 0, 1). ``neighbors`` is the (N, k+1) k-NN
    result, self first (see :func:`shared_knn`); without it, the points are
    queried here.
    """
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if k < 3:
        raise ValueError("k must be at least 3")
    if n <= k:
        raise ValueError("need more points than neighbors")
    if neighbors is None:
        _, neighbors = cKDTree(pts).query(pts, k=k + 1)
    elif neighbors.shape != (n, k + 1):
        raise ValueError("neighbors must be (N, k+1)")
    # every step is per point, so blocks give the whole-array result bit for bit
    normals = np.empty((n, 3))
    for start in range(0, n, _NORMALS_BLOCK):
        block = slice(start, start + _NORMALS_BLOCK)
        nb = neighbors[block]
        hood = np.empty((k + 1, len(nb), 3))  # neighbour-major, gathered without a transposed copy of nb
        for t, d in enumerate(hood):
            np.take(pts, nb[:, t], axis=0, out=d)
        hood -= hood.sum(axis=0) / (k + 1)
        cov, prod = np.empty((len(nb), 3, 3)), np.empty(len(nb))
        for i, j in _COV_ENTRIES:  # summed from 0.0 in neighbour order, as einsum sums: the same bits
            total = np.zeros(len(nb))
            for d in hood:
                total += np.multiply(d[:, i], d[:, j], out=prod)
            cov[:, i, j] = cov[:, j, i] = total
        del hood, d  # so that no two blocks' neighbourhoods are held at once
        evals, evecs = np.linalg.eigh(cov)
        spread = evals[:, 2]
        normals[block] = evecs[:, :, 0]
        normals[block][(spread <= 0.0) | (evals[:, 1] <= 1e-10 * spread)] = (0.0, 0.0, 1.0)
    lead = np.argmax(np.abs(normals), axis=1)
    signs = np.sign(normals[np.arange(n), lead])
    signs[signs == 0] = 1.0
    return normals * signs[:, None]
