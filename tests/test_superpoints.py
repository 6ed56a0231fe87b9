"""Graph-cut partition tests against connected-component, purity and loop oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from seglift import geometry, pipeline, superpoints
from seglift.geometry import PointCloud, estimate_normals, shared_knn
from seglift.pipeline import PipelineConfig, prepare_state
from seglift.superpoints import SuperpointPartition, _UnionFind, partition_superpoints

from conftest import examples


def grid_plane(nx, ny, spacing, origin, axes):
    """Points on a regular grid spanned by two axis vectors."""
    u, v = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    pts = (
        np.asarray(origin)[None, :]
        + u.reshape(-1, 1) * spacing * np.asarray(axes[0])[None, :]
        + v.reshape(-1, 1) * spacing * np.asarray(axes[1])[None, :]
    )
    return pts


def as_cloud(points, labels=None):
    return PointCloud(points, labels)


def knn_components(points, k):
    """Independent oracle: connected components of the symmetrized k-NN graph."""
    tree = cKDTree(points)
    _, nbr = tree.query(points, k=k + 1)
    n = len(points)
    src = np.repeat(np.arange(n), k)
    dst = nbr[:, 1:].reshape(-1)
    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    return count, labels


# The plain union-find loop over every k-NN edge: the partition's reference.
# partition_superpoints must return exactly its labels.
class _ReferenceUnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.internal = [0.0] * n

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


def _reference_partition(
    cloud: PointCloud,
    normals: np.ndarray,
    knn_k: int = 10,
    merge_threshold: float = 0.05,
    min_size: int = 20,
) -> SuperpointPartition:
    """Partition a cloud into superpoints; see module docstring.

    Edge weight is ``1 - |n_i . n_j|`` (orientation-agnostic). Edges are
    processed in ascending (weight, i, j) order, which makes the result a
    pure function of the inputs. Clouds with fewer than ``knn_k + 1`` points
    collapse to a single superpoint. Components smaller than ``min_size``
    survive only when they are isolated in the k-NN graph.
    """
    if knn_k < 1:
        raise ValueError("knn_k must be at least 1")
    if merge_threshold <= 0:
        raise ValueError("merge_threshold must be positive")
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    positions = cloud.positions
    n = len(positions)
    if n < knn_k + 1:
        return SuperpointPartition.from_assignment(np.zeros(n, dtype=np.int64), positions)

    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (n, 3):
        raise ValueError("normals must be (N, 3)")

    tree = cKDTree(positions)
    _, nbr = tree.query(positions, k=knn_k + 1)
    src = np.repeat(np.arange(n), knn_k)
    dst = nbr[:, 1:].reshape(-1)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    weights = 1.0 - np.abs(np.einsum("ij,ij->i", normals[edges[:, 0]], normals[edges[:, 1]]))
    weights = np.clip(weights, 0.0, 1.0)
    order = np.lexsort((edges[:, 1], edges[:, 0], weights))
    e0 = edges[order, 0].tolist()
    e1 = edges[order, 1].tolist()
    ws = weights[order].tolist()

    uf = _ReferenceUnionFind(n)
    for i in range(len(ws)):
        ra = uf.find(e0[i])
        rb = uf.find(e1[i])
        if ra == rb:
            continue
        w = ws[i]
        if (
            w <= uf.internal[ra] + merge_threshold / uf.size[ra]
            and w <= uf.internal[rb] + merge_threshold / uf.size[rb]
        ):
            uf.internal[uf.union(ra, rb)] = w

    # ascending order means each small component meets its cheapest neighbor first
    for i in range(len(ws)):
        ra = uf.find(e0[i])
        rb = uf.find(e1[i])
        if ra != rb and (uf.size[ra] < min_size or uf.size[rb] < min_size):
            uf.union(ra, rb)

    labels = np.empty(n, dtype=np.int64)
    remap: dict[int, int] = {}
    for i in range(n):
        root = uf.find(i)
        label = remap.get(root)
        if label is None:
            label = len(remap)
            remap[root] = label
        labels[i] = label
    return SuperpointPartition.from_assignment(labels, positions)


def _whole_array_partition(cloud, normals, knn_k, merge_threshold, min_size, neighbors):
    """partition_superpoints with its earlier edge build: whole-array edge keys
    and two (E, 3) normal gathers; the union-find passes are the same."""
    n = len(cloud.positions)
    src = np.repeat(np.arange(n), knn_k)
    dst = neighbors[:, 1:].reshape(-1)
    keys = np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))
    keys = keys[np.concatenate(([True], np.diff(keys) != 0))]
    lo, hi = keys // n, keys % n
    weights = 1.0 - np.abs(np.einsum("ij,ij->i", normals[lo], normals[hi]))
    weights = np.clip(weights, 0.0, 1.0)
    order = np.argsort(weights, kind="stable")
    lo, hi, weights = lo[order], hi[order], weights[order]

    flat = weights == 0.0
    graph = coo_matrix((np.ones(np.count_nonzero(flat)), (lo[flat], hi[flat])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    a, b = comp[lo], comp[hi]
    cross = a != b
    a, b, ws = a[cross], b[cross], weights[cross]
    uf = _UnionFind(np.bincount(comp).tolist())
    for ca, cb, w in zip(a.tolist(), b.tolist(), ws.tolist()):
        ra, rb = uf.find(ca), uf.find(cb)
        if ra != rb and (
            w <= uf.internal[ra] + merge_threshold / uf.size[ra]
            and w <= uf.internal[rb] + merge_threshold / uf.size[rb]
        ):
            uf.internal[uf.union(ra, rb)] = w
    roots, sizes = uf.roots(), np.asarray(uf.size)
    ra, rb = roots[a], roots[b]
    small = (ra != rb) & ((sizes[ra] < min_size) | (sizes[rb] < min_size))
    for ca, cb in zip(a[small].tolist(), b[small].tolist()):
        ra, rb = uf.find(ca), uf.find(cb)
        if ra != rb and (uf.size[ra] < min_size or uf.size[rb] < min_size):
            uf.union(ra, rb)
    _, first, inverse = np.unique(uf.roots()[comp], return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def oracle_case(kind, n, seed):
    """Points and normals: coplanar grid, random, or mixed flat patches."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        side = max(1, int(np.ceil(np.sqrt(n))))
        pts = grid_plane(side, side, 0.05, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])[:n]
        return pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    if kind == "random":
        normals = rng.normal(size=(n, 3))
        return rng.uniform(0, 1, size=(n, 3)), normals / np.linalg.norm(normals, axis=1, keepdims=True)
    # flat patches with axis-aligned and slanted normals, a few points duplicated;
    # a slanted unit normal dotted with itself may miss 1 by an ulp: weight 0 or ~1e-16
    slanted = rng.normal(size=(2, 3))
    slanted /= np.linalg.norm(slanted, axis=1, keepdims=True)
    palette = np.concatenate([np.eye(3), [[0.6, 0.8, 0]], slanted])
    patch = rng.integers(0, 4, size=n)
    pts = rng.uniform(0, 0.3, size=(n, 3)) + patch[:, None] * 0.2
    normals = palette[rng.integers(0, len(palette), size=4)][patch]
    dup = rng.integers(0, n, size=n // 10)
    return np.concatenate([pts, pts[dup]]), np.concatenate([normals, normals[dup]])


class TestReferenceOracle:
    @settings(max_examples=examples(80), deadline=None)
    @given(
        kind=st.sampled_from(["grid", "random", "mixed"]),
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        knn_k=st.integers(1, 12),
        min_size=st.integers(1, 30),
        merge_threshold=st.sampled_from([1e-4, 0.01, 0.05, 0.3, 2.0]),
    )
    @example(kind="mixed", n=8, seed=0, knn_k=12, min_size=3, merge_threshold=0.05)  # n <= knn_k
    @example(kind="grid", n=13, seed=0, knn_k=12, min_size=30, merge_threshold=0.05)  # n == knn_k + 1
    def test_labels_equal_reference_loop(self, kind, n, seed, knn_k, min_size, merge_threshold):
        pts, normals = oracle_case(kind, n, seed)
        cloud = as_cloud(pts)
        kwargs = dict(knn_k=knn_k, merge_threshold=merge_threshold, min_size=min_size)
        expected = _reference_partition(cloud, normals, **kwargs)
        got = partition_superpoints(cloud, normals, **kwargs)
        np.testing.assert_array_equal(got.assignment, expected.assignment)

    @pytest.mark.parametrize("kind", ["grid", "random"])
    def test_labels_equal_reference_when_all_or_no_edges_weigh_zero(self, kind):
        """Constant normals make every edge weigh 0, so the union-find loops
        get no edge; random normals make none weigh 0, so no edge goes to
        the connected-components seed."""
        pts, normals = oracle_case(kind, 300, seed=5)
        _, nbr = cKDTree(pts).query(pts, k=7)
        lo, hi = np.repeat(np.arange(len(pts)), 6), nbr[:, 1:].ravel()
        weights = np.clip(1.0 - np.abs(np.einsum("ij,ij->i", normals[lo], normals[hi])), 0.0, 1.0)
        assert np.all(weights == 0.0) if kind == "grid" else np.all(weights > 0.0)
        cloud = as_cloud(pts)
        for kwargs in (dict(knn_k=6, min_size=1), dict(knn_k=6, merge_threshold=0.3, min_size=25)):
            got = partition_superpoints(cloud, normals, **kwargs)
            np.testing.assert_array_equal(got.assignment, _reference_partition(cloud, normals, **kwargs).assignment)

    @pytest.mark.parametrize("normals_from", ["estimated", "constant", "shuffled"])
    def test_labels_equal_reference_loop_on_scene(self, normals_from, small_scene):
        cloud = small_scene.cloud
        normals = estimate_normals(cloud.positions, 12)
        if normals_from == "constant":
            normals = np.tile([0.0, 0.0, 1.0], (len(cloud), 1))
        elif normals_from == "shuffled":
            normals = np.random.default_rng(1).permutation(normals)
        for kwargs in ({}, dict(knn_k=4, merge_threshold=0.01, min_size=30)):
            expected = _reference_partition(cloud, normals, **kwargs)
            got = partition_superpoints(cloud, normals, **kwargs)
            np.testing.assert_array_equal(got.assignment, expected.assignment)


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestMergeLoopExit:
    def test_loop_stops_at_the_first_edge_no_root_can_take(self):
        """Three constant-normal grid planes: A and B nearly parallel, C at a
        right angle. A and B merge; no component can take an edge of weight
        1, so the loop stops at the first one, and the labels still equal the
        reference loop's. The visited edges are counted as reads of the
        union-find's parent list."""
        a = grid_plane(12, 12, 0.05, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        b = grid_plane(12, 12, 0.05, (0.6, 0, 0), [(1, 0, 0), (0, 1, 0)])
        c = grid_plane(12, 12, 0.05, (0, 0.6, 0.05), [(1, 0, 0), (0, 0, 1)])
        pts = np.concatenate([a, b, c])
        tilted = np.array([0.0, np.sin(1e-3), np.cos(1e-3)])
        normals = np.repeat([[0.0, 0.0, 1.0], tilted, [0.0, 1.0, 0.0]], 144, axis=0)
        cloud = as_cloud(pts)
        kwargs = dict(knn_k=6, merge_threshold=0.05, min_size=1)
        # the weight-0 edges lie inside the planes, so every weighted edge joins two of them
        (nbr,) = shared_knn(pts, (6,))
        pairs = np.stack([np.repeat(np.arange(len(pts)), 6), nbr[:, 1:].ravel()], axis=1)
        edges = np.unique(np.sort(pairs, axis=1), axis=0)
        weights = 1.0 - np.abs(np.einsum("ij,ij->i", normals[edges[:, 0]], normals[edges[:, 1]]))
        light, heavy = np.count_nonzero((weights > 0) & (weights < 0.5)), np.count_nonzero(weights >= 0.5)
        assert light > 0 and heavy > 1
        made, init = [], _UnionFind.__init__

        def counting_init(uf, sizes):
            init(uf, sizes)
            uf.parent = _CountingList(uf.parent)
            made.append(uf)

        with (
            mock.patch.object(_UnionFind, "__init__", counting_init),
            mock.patch.object(_UnionFind, "find", autospec=True, side_effect=_UnionFind.find) as find,
        ):
            got = partition_superpoints(cloud, normals, **kwargs)
        # three components make no tree deeper than one, so a visited edge
        # reads its two ends' parents and theirs, and never needs find
        assert find.call_count == 0
        assert made[0].parent.reads == 4 * light  # every light edge, then no heavy one
        np.testing.assert_array_equal(got.assignment, _reference_partition(cloud, normals, **kwargs).assignment)
        assert got.count == 2


class TestBlockedEdges:
    """The in-place edge keys and blocked edge weights change no label."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["grid", "random", "mixed"]),
        n=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
        knn_k=st.integers(1, 12),
        min_size=st.integers(1, 30),
        merge_threshold=st.sampled_from([1e-4, 0.05, 2.0]),
        block=st.sampled_from([1, 7, 64, 4096]),
    )
    @example(kind="mixed", n=40, seed=0, knn_k=3, min_size=5, merge_threshold=0.05, block=1)
    def test_labels_equal_whole_array_edges(self, kind, n, seed, knn_k, min_size, merge_threshold, block):
        pts, normals = oracle_case(kind, n, seed)
        knn_k = min(knn_k, len(pts) - 1)
        (nbr,) = shared_knn(pts, (knn_k,))
        kwargs = dict(knn_k=knn_k, merge_threshold=merge_threshold, min_size=min_size)
        with mock.patch.object(superpoints, "_EDGE_BLOCK", block):
            got = partition_superpoints(as_cloud(pts), normals, neighbors=nbr, **kwargs)
        expected = _whole_array_partition(as_cloud(pts), normals, neighbors=nbr, **kwargs)
        np.testing.assert_array_equal(got.assignment, expected)

    def test_labels_equal_whole_array_edges_on_scene(self, small_scene):
        pts = small_scene.cloud.positions
        normal_nbr, nbr = shared_knn(pts, (12, 10))
        normals = estimate_normals(pts, 12, neighbors=normal_nbr)
        got = partition_superpoints(small_scene.cloud, normals, neighbors=nbr)
        expected = _whole_array_partition(small_scene.cloud, normals, 10, 0.05, 20, nbr)
        np.testing.assert_array_equal(got.assignment, expected)

    @pytest.mark.parametrize("layout", ["prefix", "contiguous"])
    def test_neighbors_left_unchanged(self, layout, small_scene):
        pts = small_scene.cloud.positions
        (nbr,) = shared_knn(pts, (10,))
        if layout == "prefix":  # a column prefix of a wider query, as prepare_state passes it
            nbr = shared_knn(pts, (12, 10))[1]
        before = nbr.copy()
        partition_superpoints(small_scene.cloud, estimate_normals(pts, 12), neighbors=nbr)
        np.testing.assert_array_equal(nbr, before)


class TestPartition:
    def test_two_parallel_planes(self):
        a = grid_plane(20, 20, 0.05, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        b = grid_plane(20, 20, 0.05, (0, 0, 1.0), [(1, 0, 0), (0, 1, 0)])
        pts = np.concatenate([a, b])
        cloud = as_cloud(pts)
        normals = estimate_normals(pts, 8)
        part = partition_superpoints(cloud, normals, knn_k=6, merge_threshold=0.5, min_size=10)
        comp_count, comp_labels = knn_components(pts, 6)
        assert comp_count == 2
        assert part.count == 2
        # each superpoint coincides with one graph component
        for sp in range(part.count):
            member_comps = np.unique(comp_labels[part.members[sp]])
            assert len(member_comps) == 1

    def test_single_plane_one_superpoint(self):
        pts = grid_plane(25, 25, 0.05, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        cloud = as_cloud(pts)
        normals = estimate_normals(pts, 8)
        part = partition_superpoints(cloud, normals, knn_k=6, merge_threshold=5.0, min_size=1)
        assert part.count == 1

    def test_plane_meets_wall_purity(self):
        floor = grid_plane(30, 30, 0.05, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        wall = grid_plane(30, 30, 0.05, (0, 0, 0.05), [(1, 0, 0), (0, 0, 1)])
        pts = np.concatenate([floor, wall])
        surface = np.concatenate([np.zeros(len(floor)), np.ones(len(wall))]).astype(int)
        cloud = as_cloud(pts)
        normals = estimate_normals(pts, 8)
        part = partition_superpoints(cloud, normals, knn_k=6, merge_threshold=0.01, min_size=1)
        assert part.count >= 2
        pure = 0
        for sp in range(part.count):
            members = part.members[sp]
            majority = np.bincount(surface[members]).argmax()
            pure += int(np.count_nonzero(surface[members] == majority))
        assert pure / len(pts) >= 0.95

    def test_partition_invariants(self, small_scene):
        cloud = small_scene.cloud
        normals = estimate_normals(cloud.positions, 12)
        part = partition_superpoints(cloud, normals)
        assert part.assignment.shape == (len(cloud),)
        assert part.assignment.min() == 0 and part.assignment.max() == part.count - 1
        assert int(part.sizes.sum()) == len(cloud)
        assert np.all(part.sizes > 0)
        for sp in (0, part.count // 2, part.count - 1):
            np.testing.assert_allclose(
                part.centroids[sp], cloud.positions[part.members[sp]].mean(axis=0)
            )
        # dense ids ordered by first member index
        firsts = [part.members[sp][0] for sp in range(part.count)]
        assert firsts == sorted(firsts)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(400, 3))
        cloud = as_cloud(pts)
        normals = estimate_normals(pts, 8)
        a = partition_superpoints(cloud, normals, knn_k=5, merge_threshold=0.1, min_size=5)
        b = partition_superpoints(cloud, normals, knn_k=5, merge_threshold=0.1, min_size=5)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_min_size_enforced_on_connected_cloud(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(500, 3))
        count, _ = knn_components(pts, 8)
        assert count == 1  # precondition: one graph component
        cloud = as_cloud(pts)
        normals = estimate_normals(pts, 8)
        part = partition_superpoints(cloud, normals, knn_k=8, merge_threshold=0.0001, min_size=25)
        assert np.all(part.sizes >= 25)

    def test_tiny_cloud_single_superpoint(self):
        pts = np.random.default_rng(5).uniform(size=(6, 3))
        cloud = as_cloud(pts)
        part = partition_superpoints(cloud, np.tile([0.0, 0.0, 1.0], (6, 1)), knn_k=10)
        assert part.count == 1
        assert part.sizes.tolist() == [6]

    def test_parameter_validation(self):
        pts = np.random.default_rng(6).uniform(size=(50, 3))
        cloud = as_cloud(pts)
        normals = np.tile([0.0, 0.0, 1.0], (50, 1))
        with pytest.raises(ValueError):
            partition_superpoints(cloud, normals, knn_k=0)
        for threshold in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                partition_superpoints(cloud, normals, merge_threshold=threshold)
        with pytest.raises(ValueError):
            partition_superpoints(cloud, normals, min_size=0)

    def test_from_assignment_rejects_empty_superpoint(self):
        with pytest.raises(ValueError):
            SuperpointPartition.from_assignment(np.array([0, 2]), np.zeros((2, 3)))


class TestSharedKnn:
    """One query at the larger k serves both consumers, exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["grid", "random", "mixed"]),
        n=st.integers(4, 300),
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.integers(0, 30),
        normals_k=st.integers(3, 12),
        knn_k=st.integers(1, 12),
        normals_first=st.booleans(),
        min_size=st.integers(1, 30),
    )
    # grid ties at the prefix boundary, both orders of the two k
    @example(kind="grid", n=100, seed=0, duplicates=0, normals_k=12, knn_k=10, normals_first=True, min_size=20)
    @example(kind="grid", n=100, seed=0, duplicates=0, normals_k=4, knn_k=11, normals_first=False, min_size=5)
    # duplicates that can displace the query point from column 0
    @example(kind="grid", n=64, seed=1, duplicates=30, normals_k=3, knn_k=12, normals_first=True, min_size=1)
    def test_prefixes_equal_direct_queries(
        self, kind, n, seed, duplicates, normals_k, knn_k, normals_first, min_size
    ):
        pts, _ = oracle_case(kind, n, seed)
        pts = np.concatenate([pts, pts[np.random.default_rng(seed).integers(0, len(pts), size=duplicates)]])
        normals_k = min(normals_k, len(pts) - 1)  # as prepare_state clamps it
        ks = (normals_k, knn_k) if normals_first else (knn_k, normals_k)
        shared = shared_knn(pts, ks)
        tree = cKDTree(pts)
        for k, nbr in zip(ks, shared):
            np.testing.assert_array_equal(nbr, tree.query(pts, k=k + 1)[1])
        by_k = dict(zip(ks, shared))

        normals = estimate_normals(pts, normals_k, neighbors=by_k[normals_k])
        assert normals.tobytes() == estimate_normals(pts, normals_k).tobytes()
        cloud = as_cloud(pts)
        got = partition_superpoints(cloud, normals, knn_k=knn_k, min_size=min_size, neighbors=by_k[knn_k])
        expected = _reference_partition(cloud, normals, knn_k=knn_k, min_size=min_size)
        np.testing.assert_array_equal(got.assignment, expected.assignment)

    @pytest.mark.parametrize("ks", [dict(), dict(NORMALS_K=5, SUPERPOINT_KNN=12)])
    def test_prepare_state_matches_two_queries(self, ks, small_scene, monkeypatch):
        for name, k in ks.items():  # a graph wider than the normals' neighbourhood, the reverse of the defaults
            monkeypatch.setattr(pipeline, name, k)
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, PipelineConfig())
        normals = estimate_normals(small_scene.cloud.positions, pipeline.NORMALS_K)
        expected = partition_superpoints(small_scene.cloud, normals, knn_k=pipeline.SUPERPOINT_KNN)
        np.testing.assert_array_equal(state.partition.assignment, expected.assignment)

    @settings(max_examples=examples(60), deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(2, 5), st.integers(2, 5)),
        spacing=st.tuples(*[st.sampled_from([1.0, 1.5, 2.0, 3.0])] * 3),
        jitter=st.sampled_from([0.0, 0.5, 0.9]),
        duplicates=st.integers(0, 12),
        block=st.integers(1, 6),
        ks=st.lists(st.integers(1, 14), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ties_across_blocks_equal_direct_queries(self, shape, spacing, jitter, duplicates, block, ks, seed):
        """A lattice, whose neighbours lie at a few exact distances, with a
        share of its points moved off their ties, plus duplicate points;
        shuffled and queried a few points per block, so that tied and untied
        rows straddle blocks."""
        rng = np.random.default_rng(seed)
        axes = (np.arange(m) * d for m, d in zip(shape, spacing))
        pts = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 3)
        pts += (rng.random((len(pts), 1)) < jitter) * rng.uniform(-0.2, 0.2, pts.shape)
        pts = np.concatenate([pts, pts[rng.integers(0, len(pts), size=duplicates)]])
        pts = pts[rng.permutation(len(pts))]
        with mock.patch.object(geometry, "_KNN_BLOCK", block):
            shared = shared_knn(pts, tuple(ks))
        tree = cKDTree(pts)
        for k, nbr in zip(ks, shared):
            np.testing.assert_array_equal(nbr, tree.query(pts, k=k + 1)[1])

    def test_blocked_query_equals_direct_query(self):
        """A cloud of several query blocks: each block, taken in the tree's
        leaf order, lands in its own rows."""
        pts = np.random.default_rng(0).random((2 * geometry._KNN_BLOCK + 100, 3))
        normal_nbr, nbr = shared_knn(pts, (12, 10))
        direct = cKDTree(pts).query(pts, k=13)[1]
        np.testing.assert_array_equal(normal_nbr, direct)
        np.testing.assert_array_equal(nbr, direct[:, :11])

    def test_neighbor_shapes_checked(self):
        pts = grid_plane(5, 5, 0.05, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        (nbr,) = shared_knn(pts, (4,))
        with pytest.raises(ValueError, match="neighbors"):
            estimate_normals(pts, 5, neighbors=nbr)
        with pytest.raises(ValueError, match="neighbors"):
            partition_superpoints(as_cloud(pts), np.tile([0.0, 0.0, 1.0], (25, 1)), knn_k=3, neighbors=nbr)
        with pytest.raises(ValueError):
            shared_knn(pts, (0, 4))
