"""Normal-based graph-cut over-segmentation of point clouds.

Builds a k-NN graph over points, weights edges by angular dissimilarity of
the endpoint normals, and merges regions greedily in ascending weight order
with the classic adaptive threshold ``merge_threshold / |component|``. A
post-pass folds components below ``min_size`` into the neighbor they touch
through their cheapest edge.

Three exact shortcuts keep most edges out of the Python union-find loop. A
weight-0 edge passes ``w <= Int(C) + k / |C|`` whatever the state, since
``Int(C) >= 0`` and ``k > 0``, and such edges come first; so that prefix of
the loop yields the connected components of the weight-0 subgraph, all with
``Int = 0``. The merge loop stops at the first edge heavier than the
largest ``Int(C) + k / |C|`` of any component formed so far: weights ascend,
so no later edge can pass the test. The fold pass only grows components, so
it skips edges that, when it starts, lie inside one component or join two of
``min_size`` or more, and it stops once no component below ``min_size`` has
an edge left to fold along.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geometry import PointCloud

__all__ = ["SuperpointPartition", "partition_superpoints"]

_EDGE_BLOCK = 8192  # edges per block: bounds the weights' two (block, 3) normal gathers and the union-find's Python lists


@dataclass
class SuperpointPartition:
    """Disjoint superpoint membership over all N points.

    assignment: (N,) dense superpoint ids in [0, count)
    centroids:  (L, 3) mean position of each superpoint
    sizes:      (L,) member counts
    members:    per-superpoint sorted point index arrays
    """

    assignment: np.ndarray
    count: int
    centroids: np.ndarray
    sizes: np.ndarray
    members: list[np.ndarray] = field(repr=False)

    @classmethod
    def from_assignment(
        cls, assignment: np.ndarray, positions: np.ndarray
    ) -> "SuperpointPartition":
        assignment = np.asarray(assignment, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.float64)
        if assignment.ndim != 1 or len(assignment) != len(positions):
            raise ValueError("assignment must have one entry per point")
        count = int(assignment.max()) + 1 if len(assignment) else 0
        if count < 1 or assignment.min() < 0:
            raise ValueError("assignment ids must be dense and nonnegative")
        order = np.argsort(assignment, kind="stable")
        bounds = np.searchsorted(assignment[order], np.arange(count + 1))
        members = [order[bounds[i] : bounds[i + 1]] for i in range(count)]
        sizes = np.diff(bounds).astype(np.int64)
        if np.any(sizes == 0):
            raise ValueError("every superpoint must be nonempty")
        centroids = np.stack([positions[m].mean(axis=0) for m in members])
        return cls(assignment, count, centroids, sizes, members)

    def __len__(self) -> int:
        return self.count

    def point_ids(self, ids) -> np.ndarray:
        """Sorted ids of the points of superpoints ``ids``, read from ``members``."""
        return np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *(self.members[i] for i in ids)]))


class _UnionFind:
    def __init__(self, sizes: list[int]):
        self.parent = list(range(len(sizes)))
        self.size = sizes
        self.internal = [0.0] * len(sizes)

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        # attach the smaller tree; ties keep the lower index as root
        if self.size[a] < self.size[b] or (self.size[a] == self.size[b] and b < a):
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        return a

    def roots(self) -> np.ndarray:
        """Root of every node, by pointer jumping over the parent array."""
        parent = np.asarray(self.parent)
        while np.any(parent[parent] != parent):
            parent = parent[parent]
        return parent


SUPERPOINT_KNN = 10  # neighbours per point in the k-NN graph that prepare_state cuts


def partition_superpoints(
    cloud: PointCloud,
    normals: np.ndarray,
    knn_k: int = SUPERPOINT_KNN,
    merge_threshold: float = 0.05,
    min_size: int = 20,
    neighbors: np.ndarray | None = None,
) -> SuperpointPartition:
    """Partition a cloud into superpoints; see module docstring.

    Edge weight is ``1 - |n_i . n_j|`` (orientation-agnostic). Edges are
    processed in ascending (weight, i, j) order, which makes the result a
    pure function of the inputs. Clouds with fewer than ``knn_k + 1`` points
    collapse to a single superpoint. Components smaller than ``min_size``
    survive only when they are isolated in the k-NN graph. ``neighbors`` is
    the (N, knn_k+1) k-NN result, self first (see
    :func:`~seglift.geometry.shared_knn`); without it, the points are
    queried here.
    """
    if knn_k < 1:
        raise ValueError("knn_k must be at least 1")
    if not (np.isfinite(merge_threshold) and merge_threshold > 0):
        raise ValueError("merge_threshold must be finite and positive")
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    positions = cloud.positions
    n = len(positions)
    if n < knn_k + 1:
        return SuperpointPartition.from_assignment(np.zeros(n, dtype=np.int64), positions)

    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (n, 3):
        raise ValueError("normals must be (N, 3)")

    if neighbors is None:
        _, neighbors = cKDTree(positions).query(positions, k=knn_k + 1)
    elif neighbors.shape != (n, knn_k + 1):
        raise ValueError("neighbors must be (N, knn_k+1)")
    # undirected edge keys lo * n + hi, built in place in a fresh int64 array and sorted in place
    nb, rows = neighbors[:, 1:], np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)[:, None]
    keys = np.minimum(nb, rows, dtype=np.int64).ravel()
    keys *= n
    keys += np.maximum(nb, rows).ravel()
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    pairs = (np.divmod(keys[s : s + _EDGE_BLOCK], n) for s in range(0, len(keys), _EDGE_BLOCK))
    weights = np.concatenate([np.einsum("ij,ij->i", *np.take(normals, pair, axis=0)) for pair in pairs])
    np.subtract(1.0, np.abs(weights, out=weights), out=weights)
    np.clip(weights, 0.0, 1.0, out=weights)

    # weight-0 edges come first in (weight, lo, hi) order and always merge, so no loop reads them: their
    # components seed the union-find, from a CSR built on their keys, which are still in key order
    zero = weights == 0.0
    flat = keys[zero]
    np.logical_not(zero, out=zero)
    weights = weights[zero]  # one at a time, so that at most one is held twice
    keys = keys[zero]
    del zero
    index = np.int32 if max(n, len(flat)) < 2**31 else np.int64
    indptr = np.searchsorted(flat, np.arange(n + 1, dtype=np.int64) * n).astype(index)
    indices = np.remainder(flat, n, out=flat).astype(index)
    del flat
    _, comp = connected_components(csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n)), directed=False)
    del indices, indptr
    # only the weighted edges are sorted: stable on key order, that is ascending (weight, lo, hi)
    order = np.argsort(weights, kind="stable")
    ws = weights[order]
    del weights
    keys = keys[order]
    del order
    a = comp[keys // n]
    b = comp[np.remainder(keys, n, out=keys)]
    del keys
    cross = a != b
    a, b, ws = a[cross], b[cross], ws[cross]
    del cross  # the loops read only the cross-component edges
    uf = _UnionFind(np.bincount(comp).tolist())
    parent, size, find = uf.parent, uf.size, uf.find
    reach = merge_threshold / min(uf.size)  # the largest Int + k/|C| of any root so far
    # the loops take their edges as Python scalars one block at a time, so the lists hold
    # one block, not every edge; roots are looked up inline, as most nodes sit at or just below one
    for s in range(0, len(a), _EDGE_BLOCK):
        if ws[s] > reach:  # a block that broke early leaves reach unchanged
            break
        block = slice(s, s + _EDGE_BLOCK)
        for ca, cb, w in zip(a[block].tolist(), b[block].tolist(), ws[block].tolist()):
            if w > reach:
                break
            ra, rb = parent[ca], parent[cb]
            ra = ra if parent[ra] == ra else find(ca)
            rb = rb if parent[rb] == rb else find(cb)
            if ra == rb:
                continue
            if (
                w <= uf.internal[ra] + merge_threshold / uf.size[ra]
                and w <= uf.internal[rb] + merge_threshold / uf.size[rb]
            ):
                root = uf.union(ra, rb)
                uf.internal[root] = w
                reach = max(reach, w + merge_threshold / uf.size[root])

    # ascending order means each small component meets its cheapest neighbor first
    del ws  # the fold reads no weights
    roots, sizes = uf.roots(), np.asarray(uf.size)
    ra, rb = roots[a], roots[b]
    small = np.flatnonzero((ra != rb) & ((sizes[ra] < min_size) | (sizes[rb] < min_size)))
    touched = np.zeros(len(sizes), dtype=bool)
    touched[ra[small]] = touched[rb[small]] = True
    left = np.count_nonzero(touched & (sizes < min_size))  # small roots with an edge to fold along
    del roots, sizes, ra, rb, touched
    for s in range(0, len(small), _EDGE_BLOCK):
        if not left:  # sizes only grow: no later edge touches a small root
            break
        block = small[s : s + _EDGE_BLOCK]
        for ca, cb in zip(a[block].tolist(), b[block].tolist()):
            ra, rb = parent[ca], parent[cb]
            ra = ra if parent[ra] == ra else find(ca)
            rb = rb if parent[rb] == rb else find(cb)
            if ra != rb and (size[ra] < min_size or size[rb] < min_size):
                left -= (size[ra] < min_size) + (size[rb] < min_size)
                left += size[uf.union(ra, rb)] < min_size
                if not left:
                    break

    # dense labels, numbered by each superpoint's first point
    _, first, inverse = np.unique(uf.roots()[comp], return_index=True, return_inverse=True)
    return SuperpointPartition.from_assignment(np.argsort(np.argsort(first))[inverse], positions)
