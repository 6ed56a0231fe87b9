"""Pivot-view histogram tests; scale factors evaluated by hand."""

import numpy as np
import pytest

from seglift.geometry import PointCloud, project_cloud
from seglift.superpoints import SuperpointPartition
from seglift.synth import SceneSpec, build_scene
from seglift.view_select import (
    NoPivotViewError,
    pivot_view,
    scale_factors,
    superpoint_view_counts,
)

from conftest import flat_depth, make_frame, reference_view_counts


class TestScaleFactor:
    # counts matrices are (views, superpoints); sizes per superpoint

    def test_all_neighbors_fully_visible(self):
        counts = np.array([[10, 20, 30]])
        sizes = np.array([10, 20, 30])
        neighbors = [np.array([1, 2]), np.array([0]), np.array([0])]
        assert scale_factors(0, counts, sizes, neighbors)[0] == 1.0

    def test_all_neighbors_occluded(self):
        counts = np.array([[10, 0, 0]])
        sizes = np.array([10, 20, 30])
        neighbors = [np.array([1, 2]), np.array([0]), np.array([0])]
        assert scale_factors(0, counts, sizes, neighbors)[0] == 0.0

    def test_half_visible_pair(self):
        # kappa=2: one neighbor fully visible, one invisible -> (1 + 0)/2
        counts = np.array([[5, 20, 0]])
        sizes = np.array([5, 20, 30])
        neighbors = [np.array([1, 2]), np.array([0]), np.array([0])]
        assert scale_factors(0, counts, sizes, neighbors)[0] == 0.5

    def test_no_neighbors_neutral(self):
        counts = np.array([[5]])
        assert scale_factors(0, counts, np.array([5]), [np.empty(0, dtype=int)]).tolist() == [1.0]

    def test_always_within_unit_interval(self):
        rng = np.random.default_rng(2)
        sizes = rng.integers(1, 50, size=8)
        counts = np.stack([rng.integers(0, s + 1, size=4) for s in sizes], axis=1)
        neighbors = [np.array([j for j in range(8) if j != i][:3]) for i in range(8)]
        for sp in range(8):
            s = scale_factors(sp, counts, sizes, neighbors)
            assert s.shape == (4,)
            assert np.all((0.0 <= s) & (s <= 1.0))

    @pytest.mark.parametrize("kappa", [1, 3, 8, 9, 12])
    def test_bitwise_equal_to_per_view_mean(self, kappa):
        # a reduction over a column-major (T, kappa) array sums in another
        # order than a per-view mean and can differ in the last bits
        rng = np.random.default_rng(kappa)
        sizes = rng.integers(1, 3000, size=40)
        counts = (rng.random((120, 40)) * sizes).astype(np.int64)
        neighbors = [rng.choice(40, size=kappa, replace=False) for _ in range(40)]
        for sp in range(40):
            nbr = neighbors[sp]
            per_view = [(counts[t, nbr] / sizes[nbr]).mean() for t in range(120)]
            assert scale_factors(sp, counts, sizes, neighbors).tolist() == per_view


class TestPivotView:
    def test_histogram_product(self):
        # |rho| = 50 in view 2 with neighbor scale 0.5 -> psi = 25
        counts = np.array([[0, 0], [0, 0], [50, 10]])
        sizes = np.array([50, 20])
        neighbors = [np.array([1]), np.array([0])]
        assert pivot_view(0, counts, sizes, neighbors) == 2
        values = counts[:, 0] * scale_factors(0, counts, sizes, neighbors)
        assert values[2] == pytest.approx(25.0)

    def test_tie_breaks_to_lowest_view(self):
        counts = np.array([[0, 0], [0, 0], [0, 0], [30, 10], [0, 0], [0, 0], [0, 0], [30, 10]])
        sizes = np.array([30, 10])
        neighbors = [np.array([1]), np.array([0])]
        values = counts[:, 0] * scale_factors(0, counts, sizes, neighbors)
        assert values[3] == values[7] > 0
        assert pivot_view(0, counts, sizes, neighbors) == 3

    def test_never_visible_errors(self):
        counts = np.zeros((4, 2), dtype=int)
        with pytest.raises(NoPivotViewError, match="no pivot view"):
            pivot_view(0, counts, np.array([5, 5]), [np.array([1]), np.array([0])])

    def test_zero_count_views_score_zero(self):
        counts = np.array([[0, 7], [3, 7]])
        sizes = np.array([3, 7])
        neighbors = [np.array([1]), np.array([0])]
        values = counts[:, 0] * scale_factors(0, counts, sizes, neighbors)
        assert values[0] == 0.0

    def test_common_scaling_keeps_argmax(self):
        rng = np.random.default_rng(7)
        sizes = rng.integers(5, 30, size=6)
        counts = np.stack([rng.integers(0, s + 1, size=5) for s in sizes], axis=1)
        neighbors = [np.array([j for j in range(6) if j != i][:2]) for i in range(6)]
        for sp in range(6):
            scales = scale_factors(sp, counts, sizes, neighbors)
            values = counts[:, sp] * scales
            if not np.any(values > 0):
                continue
            scaled = counts[:, sp] * (scales * 3.7)
            assert np.argmax(scaled) == np.argmax(values) == pivot_view(sp, counts, sizes, neighbors)

    def test_box_visible_only_in_one_view(self):
        # renderer-derived oracle: five cameras stare at an empty corner,
        # the sixth looks at the object cluster
        spec = SceneSpec(
            object_count=1,
            frame_count=6,
            seed=3,
            density=150.0,
            camera=[((1.0, 1.0, 1.5), (0.5, 0.5, 1.5))] * 5
            + [((1.0, 1.0, 1.5), (3.0, 3.0, 1.2))],
        )
        scene = build_scene(spec)
        pts = scene.cloud.positions
        obj = scene.cloud.gt_instance >= 0
        # one superpoint for the object, one for the room shell
        assignment = np.where(obj, 0, 1)
        partition = SuperpointPartition.from_assignment(assignment, pts)
        projections = project_cloud(pts, scene.frames, 0.1)
        counts = reference_view_counts(partition, projections)
        per_view_object = [int((inst == 0).sum()) for inst in scene.instances]
        assert sum(c > 0 for c in per_view_object[:5]) == 0
        assert per_view_object[5] > 0
        neighbors = [np.array([1]), np.array([0])]
        assert pivot_view(0, counts, partition.sizes, neighbors) == 5


class TestCounts:
    def test_counts_against_direct_projection(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.3, 0.3, size=(60, 3)) + (0.0, 0.0, 2.0)
        cloud = PointCloud(pts)
        assignment = rng.integers(0, 4, size=60)
        assignment[:4] = np.arange(4)  # keep all ids populated
        partition = SuperpointPartition.from_assignment(assignment, pts)
        frames = [make_frame(flat_depth(32, 32, 2.0), fx=30.0, fy=30.0)]
        projections = project_cloud(cloud.positions, frames, 0.5)
        ps = projections[0]
        counts = superpoint_view_counts(partition.assignment[ps.indices], partition.count)
        assert counts.shape == (4,)
        for sp in range(4):
            expected = int(np.count_nonzero(assignment[ps.indices] == sp))
            assert counts[sp] == expected
