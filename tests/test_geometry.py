"""Projection, sampling and neighborhood tests with hand-computed expectations."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from seglift import geometry
from seglift.geometry import (
    CameraFrame,
    PixelSet,
    PointCloud,
    estimate_normals,
    fps_sample,
    knn_centroids,
    project_points,
)

from seglift.synth import SceneSpec, build_scene

from conftest import backproject_pixels, examples, flat_depth, make_frame, pose_from, rotation_z


# --- references: the earlier implementations ---------------------------------


def reference_normals(positions, k, neighbors):
    """estimate_normals over the whole (N, k+1, 3) neighbourhood at once."""
    pts = np.asarray(positions, dtype=np.float64)
    n = len(pts)
    hood = pts[neighbors]
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


def reference_check_extrinsics(extrinsics):
    """check_extrinsics with its two tolerance tests as np.allclose calls."""
    extrinsics = np.asarray(extrinsics, dtype=np.float64)
    rot = extrinsics[:3, :3]
    if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
        raise ValueError("extrinsics rotation block is not orthonormal")
    if abs(np.linalg.det(rot) - 1.0) > 1e-6:
        raise ValueError("extrinsics rotation must have determinant +1")
    if not np.allclose(extrinsics[3], (0.0, 0.0, 0.0, 1.0)):
        raise ValueError("extrinsics bottom row must be (0, 0, 0, 1)")
    return extrinsics


def normals_case(kind, n, seed):
    """n points: random, planar, collinear, duplicated, or planar with a collinear strip."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    if kind == "planar":
        pts[:, 2] = 0.0
    elif kind == "collinear":
        pts[:, 1:] = pts[:, :1] * (0.5, -2.0)
    elif kind == "duplicates":  # a few distinct points, each repeated
        pts = pts[rng.integers(0, max(1, n // 4), size=n)]
    elif kind == "mixed":
        pts[:, 2] = 0.0
        pts[: n // 3, 1] = 0.0
    return pts


def _round_half_away(values):
    return np.trunc(values + np.copysign(0.5, values))


def reference_project_points(positions, frame, depth_tolerance=0.1):
    """Casts every point in front of the camera to int before the bounds test.

    Far off-axis points near the camera plane overflow that cast, so it warns;
    callers silence it.
    """
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    empty = PixelSet(*np.empty((3, 0), dtype=np.int64))
    if len(pts) == 0:
        return empty
    cam = pts @ frame.rotation.T + frame.translation
    front = np.flatnonzero(cam[:, 2] > 0)
    if front.size == 0:
        return empty
    z = cam[front, 2]
    rr = _round_half_away(frame.fy * cam[front, 1] / z + frame.cy).astype(np.int64)
    cc = _round_half_away(frame.fx * cam[front, 0] / z + frame.cx).astype(np.int64)
    in_bounds = (rr >= 0) & (rr < frame.height) & (cc >= 0) & (cc < frame.width)
    front, rr, cc, z = front[in_bounds], rr[in_bounds], cc[in_bounds], z[in_bounds]
    if front.size == 0:
        return empty
    measured = frame.depth[rr, cc]
    keep = (measured > 0) & (np.abs(z - measured) <= depth_tolerance)
    return PixelSet(rr[keep], cc[keep], front[keep])


def random_rotation(rng):
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_projection_case(rng, posed):
    """A frame and camera-space points of every kind the projection must sort out.

    Points lie in front, behind, on and next to the camera plane (down to
    subnormal depths), outside the image, and on half-pixel column and row
    boundaries; the power-of-two focal lengths keep those boundaries exact
    when the pose is the identity.
    """
    h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
    fx, fy = 2.0 ** rng.integers(0, 6, size=2)
    cx, cy = rng.integers(-2, max(h, w) + 2, size=2) / 2
    depth = rng.uniform(0.5, 3.0, size=(h, w)) * (rng.random((h, w)) < 0.8)
    n = int(rng.integers(0, 60))
    z = rng.choice([1.0, 2.0, -1.0, 0.0, 1e-300, -1e-300, 1e-320, 5e-324, 1e-8], size=n)
    z = np.where(rng.random(n) < 0.5, rng.uniform(-1.0, 3.0, size=n), z)
    # half-pixel boundaries: u = fx * x / z + cx lands on k + 0.5
    u = rng.integers(-3, max(h, w) + 3, size=(n, 2)) + 0.5
    x, y = (u[:, 0] - cx) * z / fx, (u[:, 1] - cy) * z / fy
    wild = rng.random(n) < 0.4
    x[wild], y[wild] = rng.uniform(-4.0, 4.0, size=(2, int(wild.sum())))
    cam = np.column_stack([x, y, z])
    extrinsics = np.eye(4)
    if posed:
        extrinsics = pose_from(random_rotation(rng), rng.uniform(-1.0, 1.0, size=3))
    world = (cam - extrinsics[:3, 3]) @ extrinsics[:3, :3]
    return world, CameraFrame(fx, fy, cx, cy, extrinsics, depth, w, h)


def doubles_from(value, steps):
    """The double ``steps`` representable values above ``value`` (below if negative)."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, np.copysign(np.inf, steps))
    return float(value)


def boundary_projection_case(rng):
    """An identity-posed frame and points whose column u = fx * x / z + cx or
    row v lies on a rounding edge (-0.5, W - 0.5, H - 0.5) or a few doubles
    off it, at depths that include +0, -0, subnormal and negative values.

    Focal lengths and depths are powers of two, so u equals its target
    exactly whenever ``target - cx`` is exact: for cx = 0, or cx within a
    factor of two of the target.
    """
    h, w = (int(size) for size in rng.integers(1, 12, size=2))
    fx, fy = 2.0 ** rng.integers(-2, 5, size=2)
    cx = float(rng.choice([0.0, w / 2, (w - 1) / 2, rng.integers(-4, 2 * w + 4) / 2]))
    cy = float(rng.choice([0.0, h / 2, (h - 1) / 2, rng.integers(-4, 2 * h + 4) / 2]))
    n = int(rng.integers(1, 40))
    z = rng.choice([0.25, 1.0, 2.0, 8.0, 0.0, -0.0, 5e-324, 1e-300, 1e-12, -1.0], size=n)
    targets = []
    for size in (w, h):
        edges = rng.choice([-0.5, size - 0.5], size=n)
        target = np.array([doubles_from(e, int(k)) for e, k in zip(edges, rng.integers(-3, 4, size=n))])
        inside = rng.random(n) < 0.3
        target[inside] = rng.uniform(-0.5, size - 0.5, size=int(inside.sum()))
        targets.append(target)
    x, y = (targets[0] - cx) * z / fx, (targets[1] - cy) * z / fy
    depth = rng.uniform(0.5, 9.0, size=(h, w)) * (rng.random((h, w)) < 0.9)
    return np.column_stack([x, y, z]), CameraFrame(fx, fy, cx, cy, np.eye(4), depth, w, h)


class TestProjectPoints:
    def test_optical_axis_point(self):
        # point (0,0,1), fx=fy=100, cx=cy=32 -> pixel (32, 32), depth matches
        depth = np.zeros((64, 64))
        depth[32, 32] = 1.0
        frame = make_frame(depth, cx=32.0, cy=32.0)
        ps = project_points(np.array([[0.0, 0.0, 1.0]]), frame, 0.1)
        assert len(ps) == 1
        assert (ps.rows[0], ps.cols[0]) == (32, 32)
        assert ps.indices[0] == 0

    def test_occluded_point_excluded(self):
        # same pixel but point at z=2 against measured depth 1.0: |2-1| > 0.1
        depth = np.zeros((64, 64))
        depth[32, 32] = 1.0
        frame = make_frame(depth, cx=32.0, cy=32.0)
        ps = project_points(np.array([[0.0, 0.0, 2.0]]), frame, 0.1)
        assert len(ps) == 0

    def test_point_behind_camera_excluded(self):
        frame = make_frame(flat_depth(64, 64, 1.0), cx=32.0, cy=32.0)
        ps = project_points(np.array([[0.0, 0.0, -1.0]]), frame, 0.1)
        assert len(ps) == 0

    def test_invalid_depth_zero_fails_occlusion(self):
        frame = make_frame(np.zeros((64, 64)), cx=32.0, cy=32.0)
        ps = project_points(np.array([[0.0, 0.0, 1.0]]), frame, 10.0)
        assert len(ps) == 0

    def test_out_of_bounds_pixel_excluded(self):
        frame = make_frame(flat_depth(8, 8, 1.0), fx=100.0, fy=100.0, cx=3.5, cy=3.5)
        # x = 1 at z = 1 -> col = 100 + 3.5, far out of an 8-wide image
        ps = project_points(np.array([[1.0, 0.0, 1.0]]), frame, 0.1)
        assert len(ps) == 0

    def test_rounding_half_away_from_zero(self):
        # u = fx*x/z + cx = 10*0.05 + 3 = 3.5 -> rounds to 4 (away from zero)
        frame = make_frame(flat_depth(8, 8, 1.0), fx=10.0, fy=10.0, cx=3.0, cy=3.0)
        ps = project_points(np.array([[0.05, 0.0, 1.0]]), frame, 0.1)
        assert (ps.rows[0], ps.cols[0]) == (3, 4)

    def test_empty_input_never_errors(self):
        frame = make_frame(flat_depth(8, 8, 1.0))
        ps = project_points(np.empty((0, 3)), frame, 0.1)
        assert len(ps) == 0

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            make_frame(flat_depth(8, 8, 1.0), fx=0.0)
        with pytest.raises(ValueError):
            make_frame(flat_depth(8, 8, 1.0), fy=-5.0)

    def test_rejects_nonpositive_tolerance(self):
        frame = make_frame(flat_depth(8, 8, 1.0))
        for tolerance in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                project_points(np.array([[0.0, 0.0, 1.0]]), frame, tolerance)

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.0, 1.0, size=(200, 3)) + (0.0, 0.0, 3.0)
        depth = rng.uniform(1.5, 4.0, size=(32, 32))
        frame = make_frame(depth, fx=20.0, fy=20.0, cx=15.5, cy=15.5)
        sizes = [
            len(project_points(pts, frame, tol)) for tol in (0.01, 0.05, 0.2, 0.5, 2.0)
        ]
        assert sizes == sorted(sizes)

    def test_float32_depth_projects_like_its_float64_copy(self):
        # depths on a 1/8 grid are exact in both widths, so z = depth +- 0.25 is exactly at the tolerance
        rng = np.random.default_rng(5)
        depth = (rng.integers(8, 32, size=(16, 16)) / 8).astype(np.float32)
        depth[rng.random((16, 16)) < 0.1] = 0.0
        frames = [CameraFrame(100.0, 100.0, 7.5, 7.5, np.eye(4), d, 16, 16) for d in (depth, depth.astype(np.float64))]
        assert [f.depth.dtype for f in frames] == [np.float32, np.float64]
        rows, cols = np.divmod(np.arange(256), 16)
        measured = depth.reshape(-1).astype(np.float64)
        z = np.concatenate([measured + offset for offset in (-0.25, 0.25, 0.2500001, -0.1, 0.6)])
        r, c = np.tile(rows, 5), np.tile(cols, 5)
        pts = np.column_stack([(c - 7.5) * z / 100.0, (r - 7.5) * z / 100.0, z])
        pts = np.concatenate([pts, rng.uniform((-0.1, -0.1, 0.5), (0.1, 0.1, 4.5), size=(500, 3))])
        ps32, ps64 = (project_points(pts, f, 0.25) for f in frames)
        for name in ("rows", "cols", "indices"):
            got, want = getattr(ps32, name), getattr(ps64, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=name)
        at_tolerance = np.flatnonzero(measured > 0)
        assert np.isin(np.concatenate([at_tolerance, 256 + at_tolerance]), ps32.indices).all()
        assert not np.isin(512 + np.arange(256), ps32.indices).any()

    @pytest.mark.parametrize("z", [1e-300, 1e-320])
    def test_points_on_the_camera_plane_are_dropped_quietly(self, z):
        # off-axis, fx * x / z overflows int64 (1e-300) or float64 (1e-320);
        # on the axis the pixel is valid but the depth test fails
        frame = make_frame(flat_depth(8, 8, 1.0))
        pts = np.array([[0.5, 0.0, z], [0.0, -0.5, z], [0.5, 0.5, z], [0.0, 0.0, z]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = project_points(pts, frame, 0.1)
        assert len(ps) == 0

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), posed=st.booleans())
    def test_matches_reference(self, seed, posed):
        rng = np.random.default_rng(seed)
        world, frame = random_projection_case(rng, posed)
        tolerance = float(rng.choice([0.05, 0.5, 3.0]))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = reference_project_points(world, frame, tolerance)
        ps = project_points(world, frame, tolerance)
        for name in ("rows", "cols", "indices"):
            got, want = getattr(ps, name), getattr(expected, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_reference_cases_keep_points(self):
        # the random cases above are not all empty: most keep some points
        cases = [random_projection_case(np.random.default_rng(seed), False) for seed in range(40)]
        assert sum(len(project_points(world, frame, 3.0)) > 0 for world, frame in cases) > 20

    @settings(max_examples=examples(200), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rounding_edges_match_reference(self, seed):
        """Points on and beside the edges where a coordinate rounds into or
        out of the image, and on or near the camera plane: the projection
        culls before it rounds, and must keep exactly the reference's points."""
        rng = np.random.default_rng(seed)
        world, frame = boundary_projection_case(rng)
        tolerance = float(rng.choice([0.5, 1e9]))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = reference_project_points(world, frame, tolerance)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = project_points(world, frame, tolerance)
        for name in ("rows", "cols", "indices"):
            got, want = getattr(ps, name), getattr(expected, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_rounding_edge_cases_land_on_and_beside_the_edges(self):
        """The cases above place u and v exactly on each edge and on the
        doubles next to it, and the reference keeps points at the innermost
        of those doubles, which a cull tighter than the rounding would drop."""
        on_edge, kept_inside = set(), set()
        for seed in range(200):
            world, frame = boundary_projection_case(np.random.default_rng(seed))
            x, y, z = world.T
            front = np.flatnonzero(z > 0)  # identity pose: camera coordinates are the world's
            u = frame.fx * x[front] / z[front] + frame.cx
            v = frame.fy * y[front] / z[front] + frame.cy
            kept = np.isin(front, reference_project_points(world, frame, 1e9).indices)
            for name, coord, size in (("u", u, frame.width), ("v", v, frame.height)):
                for edge, inward in ((-0.5, 1), (size - 0.5, -1)):
                    for steps in (-1, 0, 1, 2):
                        at = coord == doubles_from(edge, inward * steps)
                        if at.any():
                            on_edge.add((name, edge == -0.5, steps))
                        if (at & kept).any():
                            kept_inside.add((name, edge == -0.5, steps))
        assert on_edge == {(name, low, steps) for name in "uv" for low in (True, False) for steps in (-1, 0, 1, 2)}
        # nothing on or outside an edge is kept; the first kept double is two
        # steps inside -0.5, where one step gives u - 0.5 == -1 by a tie to even,
        # and one step inside W - 0.5 or H - 0.5 (for sizes from 2)
        assert {(name, low, steps) for name, low, steps in kept_inside if steps <= 0} == set()
        assert {("u", True, 2), ("v", True, 2), ("u", False, 1), ("v", False, 1)} <= kept_inside
        assert ("u", True, 1) not in kept_inside and ("v", True, 1) not in kept_inside

    @pytest.mark.parametrize("layout", ["contiguous", "column slice"])
    def test_matches_reference_at_benchmark_size(self, layout):
        """The stress scene's 74,216 points, in the (N, 7)[:, :3] layout that
        load_cloud returns or as a contiguous copy. BLAS may pick other
        kernels for these sizes and strides than for the small random cases.
        Each view is projected against its rendered depth and against a flat
        depth at a tolerance that keeps every point in the image, so the
        rounded pixel of every visible point is compared."""
        scene = build_scene(SceneSpec(object_count=8, frame_count=6, seed=3, density=500, image_size=(160, 120)))
        pts = scene.cloud.positions
        assert len(pts) >= 50_000
        if layout == "column slice":
            raw = np.column_stack([pts, np.zeros((len(pts), 3)), scene.cloud.gt_instance])
            pts = raw[:, :3]
            assert not pts.flags.c_contiguous and pts.strides == (56, 8)
        frames = []
        for f in scene.frames:
            flat = CameraFrame(f.fx, f.fy, f.cx, f.cy, f.extrinsics, np.ones((f.height, f.width)), f.width, f.height)
            frames += [(f, 0.1), (flat, 1e9)]
        kept = 0
        for frame, tolerance in frames:
            ps = project_points(pts, frame, tolerance)
            expected = reference_project_points(pts, frame, tolerance)
            for name in ("rows", "cols", "indices"):
                np.testing.assert_array_equal(getattr(ps, name), getattr(expected, name), err_msg=name)
            kept += len(ps)
        assert kept > 2 * len(pts)


class TestBackprojection:
    def test_round_trip_identity_pose(self):
        depth_map = np.zeros((64, 64))
        depth_map[20, 40] = 2.5
        frame = make_frame(depth_map, cx=31.5, cy=31.5)
        world = backproject_pixels(frame, np.array([20]), np.array([40]), np.array([2.5]))
        ps = project_points(world, frame, 0.1)
        assert (ps.rows[0], ps.cols[0]) == (20, 40)

    def test_round_trip_random_poses(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rot = rotation_z(rng.uniform(0, 2 * np.pi))
            ext = pose_from(rot, rng.uniform(-1, 1, size=3))
            rows = rng.integers(0, 48, size=50)
            cols = rng.integers(0, 48, size=50)
            depths = rng.uniform(0.5, 5.0, size=50)
            depth_map = np.zeros((48, 48))
            depth_map[rows, cols] = depths
            frame = make_frame(depth_map, fx=60.0, fy=80.0, cx=23.5, cy=23.5, extrinsics=ext)
            world = backproject_pixels(frame, rows, cols, depths)
            ps = project_points(world, frame, 1e-6)
            # pixel collisions may drop a few points; those kept must map back
            assert len(ps) >= 45
            np.testing.assert_array_equal(ps.rows, rows[ps.indices])
            np.testing.assert_array_equal(ps.cols, cols[ps.indices])


class TestFpsSample:
    def test_farthest_point_on_a_line(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        assert fps_sample(pts, 2) == [0, 2]

    def test_exhaustion_returns_all_eligible(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        picks = fps_sample(pts, 10)
        assert sorted(picks) == [0, 1, 2]

    def test_empty_pool_errors(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError, match="empty sample pool"):
            fps_sample(pts, 1, eligible=np.zeros(3, dtype=bool))

    def test_eligible_mask_respected(self):
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [9.0, 0, 0], [10.0, 0, 0]])
        picks = fps_sample(pts, 2, eligible=np.array([False, True, True, True]))
        # lowest eligible first, then argmax of distance among eligible
        assert picks == [1, 3]

    def test_matches_greedy_oracle(self):
        # independent max-min-distance greedy written as plain loops
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(5, 3))
        expected = [0]
        while len(expected) < 3:
            best_i, best_d = -1, -1.0
            for i in range(len(pts)):
                if i in expected:
                    continue
                d = min(float(np.sum((pts[i] - pts[j]) ** 2)) for j in expected)
                if d > best_d:
                    best_i, best_d = i, d
            expected.append(best_i)
        assert fps_sample(pts, 3) == expected

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(30, 3))
        assert fps_sample(pts, 7) == fps_sample(pts, 7)


class TestKnnCentroids:
    def test_collinear_tie_break(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        nbrs = knn_centroids(pts, 1)
        # middle point ties between 0 and 2, lower index wins
        assert nbrs[0].tolist() == [1]
        assert nbrs[1].tolist() == [0]
        assert nbrs[2].tolist() == [1]

    def test_k_at_least_population(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        nbrs = knn_centroids(pts, 10)
        for i, near in enumerate(nbrs):
            assert sorted(near.tolist()) == sorted(set(range(3)) - {i})

    def test_single_centroid_has_no_neighbors(self):
        nbrs = knn_centroids(np.zeros((1, 3)), 4)
        assert len(nbrs) == 1 and len(nbrs[0]) == 0

    def test_matches_pairwise_sort_oracle(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(20, 3))
        nbrs = knn_centroids(pts, 4)
        for i in range(20):
            dists = sorted(
                (float(np.sum((pts[i] - pts[j]) ** 2)), j) for j in range(20) if j != i
            )
            assert nbrs[i].tolist() == [j for _, j in dists[:4]]


class TestEstimateNormals:
    def test_plane_z0(self):
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), np.zeros(200)])
        normals = estimate_normals(pts, 8)
        np.testing.assert_allclose(normals, np.tile([0.0, 0.0, 1.0], (200, 1)), atol=1e-9)

    def test_plane_x5(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack([np.full(200, 5.0), rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)])
        normals = estimate_normals(pts, 8)
        np.testing.assert_allclose(normals, np.tile([1.0, 0.0, 0.0], (200, 1)), atol=1e-9)

    def test_noisy_plane_within_5_degrees(self):
        # sigma=0.01 over a unit extent; neighborhoods must span enough of
        # the plane to average the noise, hence the generous k
        rng = np.random.default_rng(12)
        pts = np.column_stack(
            [
                rng.uniform(-0.5, 0.5, 300),
                rng.uniform(-0.5, 0.5, 300),
                rng.normal(0.0, 0.01, 300),
            ]
        )
        normals = estimate_normals(pts, 50)
        angles = np.degrees(np.arccos(np.clip(np.abs(normals[:, 2]), -1, 1)))
        assert np.max(angles) < 5.0

    def test_collinear_fallback(self):
        pts = np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.zeros(30)])
        normals = estimate_normals(pts, 5)
        np.testing.assert_allclose(normals, np.tile([0.0, 0.0, 1.0], (30, 1)))

    @settings(max_examples=examples(80), deadline=None)
    @given(
        kind=st.sampled_from(["random", "planar", "collinear", "duplicates", "mixed"]),
        k=st.integers(3, 10),
        extra=st.integers(0, 30),
        size=st.sampled_from(["below", "at", "above", "several"]),
        remainder=st.integers(1, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    # one-point last block; a block of one point
    @example(kind="planar", k=3, extra=0, size="above", remainder=1, seed=0)
    @example(kind="duplicates", k=3, extra=0, size="several", remainder=1, seed=1)
    def test_blocks_equal_whole_array(self, kind, k, extra, size, remainder, seed):
        block = k + 2 + extra  # so that block - 1 points still exceed k
        n = {"below": block - 1, "at": block, "above": block + 1}.get(size, 3 * block + remainder % (block - 1) + 1)
        pts = normals_case(kind, n, seed)
        nbr = cKDTree(pts).query(pts, k=k + 1)[1]
        with mock.patch.object(geometry, "_NORMALS_BLOCK", block):
            got = estimate_normals(pts, k, neighbors=nbr)
        assert got.tobytes() == reference_normals(pts, k, nbr).tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * geometry._NORMALS_BLOCK + 77])
    def test_module_block_equals_whole_array(self, offset):
        pts = normals_case("mixed", geometry._NORMALS_BLOCK + offset, 3)
        nbr = cKDTree(pts).query(pts, k=13)[1]
        assert estimate_normals(pts, 12, neighbors=nbr).tobytes() == reference_normals(pts, 12, nbr).tobytes()

    def test_parameter_validation(self):
        pts = np.random.default_rng(0).uniform(size=(10, 3))
        with pytest.raises(ValueError):
            estimate_normals(pts, 2)
        with pytest.raises(ValueError):
            estimate_normals(pts, 10)


class TestDomainTypes:
    def test_point_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.inf, 0, 0]]))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), gt_instance=np.array([-2]))

    def test_camera_frame_rotation_check(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError):
            make_frame(flat_depth(4, 4, 1.0), extrinsics=bad)
        # reflections (det -1) are rejected too
        refl = np.eye(4)
        refl[0, 0] = -1.0
        with pytest.raises(ValueError):
            make_frame(flat_depth(4, 4, 1.0), extrinsics=refl)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        edits=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.one_of(
                    st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 1.0]),
                    # offsets around the tolerances: 1e-8 and 1e-8 + 1e-5 on the
                    # bottom row, and about 1e-6 on the rotation's Gram matrix
                    st.builds(
                        lambda m, e, sign: sign * m * 10.0**e,
                        st.floats(0.5, 5.0),
                        st.integers(-9, -5),
                        st.sampled_from([-1.0, 1.0]),
                    ),
                ),
                st.booleans(),
            ),
            max_size=3,
        ),
    )
    # inside allclose's relative term, and either side of its absolute one
    @example(seed=0, edits=[(3, 3, 1e-5, False)])
    @example(seed=0, edits=[(3, 3, 1e-8 + 1e-5, False)])
    @example(seed=0, edits=[(3, 0, 1e-8, False)])
    @example(seed=0, edits=[(3, 0, 2e-8, False)])
    @example(seed=0, edits=[(0, 0, 2e-6, False)])
    @example(seed=0, edits=[(1, 2, 5e-7, False)])
    @example(seed=0, edits=[(0, 1, np.nan, True)])
    @example(seed=0, edits=[(3, 2, np.nan, True)])
    @example(seed=0, edits=[(3, 1, -np.inf, True)])
    def test_extrinsics_check_raises_as_allclose_does(self, seed, edits):
        """The inline tolerance test rejects the same poses, with the same
        message, as np.allclose. An edit either replaces an entry of a rigid
        pose or is added to it."""
        rng = np.random.default_rng(seed)
        ext = pose_from(random_rotation(rng), rng.uniform(-2.0, 2.0, size=3))
        for i, j, value, replace in edits:
            ext[i, j] = value if replace or not np.isfinite(value) else ext[i, j] + value

        def outcome(check):
            with np.errstate(all="ignore"):
                try:
                    return check(ext).tobytes()
                except ValueError as err:
                    return str(err)

        assert outcome(geometry.check_extrinsics) == outcome(reference_check_extrinsics)
