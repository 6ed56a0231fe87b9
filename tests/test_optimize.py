"""Lifting and refinement solver tests with exhaustive oracles.

The independent oracles here recompute objectives per view with plain
Python loops and enumerate subsets recursively, deliberately avoiding the
vectorized paths used by the library.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seglift.superpoints import SuperpointPartition
from seglift.tracks import MaskTrack
from seglift.optimize import (
    _ENUM_CHUNK,
    VisibilityMatrix,
    all_lifted,
    brute_force_superpoints,
    brute_force_views,
    dp_refine,
    objective_from_counts,
    top_k_views_refine,
    visibility_matrix,
)

from conftest import make_frame, objective_value, pixel_index


def vis_from_counts(in_counts, total_counts, tau=0.5):
    """VisibilityMatrix with rows derived from the containment rule."""
    in_counts = np.asarray(in_counts, dtype=np.int64)
    total_counts = np.asarray(total_counts, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        ratio = np.nan_to_num(in_counts / total_counts)
    rows = (total_counts > 0) & (ratio >= tau)
    views = np.arange(in_counts.shape[0])
    return VisibilityMatrix(views, rows, in_counts, total_counts)


def oracle_objective(theta, vis):
    """Per-view inside-minus-outside recount with plain loops."""
    total = 0
    for v in range(vis.view_count):
        inside = 0
        outside = 0
        for sp in range(vis.superpoint_count):
            if theta[sp]:
                inside += int(vis.in_counts[v, sp])
                outside += int(vis.total_counts[v, sp]) - int(vis.in_counts[v, sp])
        total += inside - outside
    return total


def oracle_enumerate_views(vis):
    """Enumerate view-subset bitmasks ascending; best objective and theta.

    Ascending order keeps the smallest bitmask on ties, mirroring the
    documented tie rule.
    """
    best_score = 0
    best_theta = np.zeros(vis.superpoint_count, dtype=bool)
    for mask in range(1 << vis.view_count):
        theta = np.zeros(vis.superpoint_count, dtype=bool)
        for v in range(vis.view_count):
            if (mask >> v) & 1:
                theta |= vis.rows[v]
        score = oracle_objective(theta, vis)
        if score > best_score:
            best_score = score
            best_theta = theta
    return best_score, best_theta


def reference_superpoints(vis):
    """The bitmask enumerator that ``brute_force_superpoints`` replaced:
    every subset of the candidates, ascending, so ties go to the smaller
    bitmask. Returns its theta and objective."""
    cand = vis.candidates()
    theta = np.zeros(vis.superpoint_count, dtype=bool)
    if len(cand) == 0:
        return theta, 0
    weights = vis.total_weights()[cand]
    best_mask = 0
    best_score = None
    bits = np.arange(len(cand), dtype=np.uint32)
    for start in range(0, 1 << len(cand), 4096):
        stop = min(start + 4096, 1 << len(cand))
        codes = np.arange(start, stop, dtype=np.uint32)
        members = (codes[:, None] >> bits) & 1
        scores = members.astype(bool) @ weights
        top = int(np.argmax(scores))
        if best_score is None or scores[top] > best_score:
            best_score = int(scores[top])
            best_mask = start + top
    for i, sp in enumerate(cand):
        if (best_mask >> i) & 1:
            theta[sp] = True
    return theta, best_score


@st.composite
def visibility_matrices(draw, max_views, max_superpoints):
    """Rows drawn independently of small inside and outside counts, so
    zero-weight and negative-weight candidates are common."""
    V = draw(st.integers(0, max_views))
    L = draw(st.integers(1, max_superpoints))

    def grid(elements):
        return np.array(draw(st.lists(elements, min_size=V * L, max_size=V * L))).reshape(V, L)

    inside = grid(st.integers(0, 3)).astype(np.int64)
    outside = grid(st.integers(0, 3)).astype(np.int64)
    rows = grid(st.booleans()).astype(bool)
    return VisibilityMatrix(np.arange(V), rows, inside, inside + outside)


def random_instance(rng, max_views=8, max_candidates=12):
    views = rng.integers(1, max_views + 1)
    sps = rng.integers(2, max_candidates + 1)
    total = rng.integers(0, 20, size=(views, sps))
    in_c = np.array([[rng.integers(0, t + 1) for t in row] for row in total])
    return vis_from_counts(in_c, total)


class TestVisibilityMatrix:
    def _geometry_fixture(self):
        # 10 points in one superpoint projected at known pixels plus a second
        # superpoint far off to the side
        xs = np.linspace(-0.045, 0.045, 10)
        pts_a = np.column_stack([xs, np.zeros(10), np.ones(10)])
        pts_b = np.column_stack([xs, np.full(10, 0.12), np.ones(10)])
        pts = np.concatenate([pts_a, pts_b])
        partition = SuperpointPartition.from_assignment(
            np.repeat([0, 1], 10), pts
        )
        frame = make_frame(np.full((32, 32), 1.0), fx=100.0, fy=100.0, cx=15.5, cy=15.5)
        return pts, partition, frame

    def _track(self, mask, pivot=0):
        return MaskTrack(0, 1.0, {0: mask}, pivot, 0)

    def test_containment_six_of_ten(self):
        pts, partition, frame = self._geometry_fixture()
        mask = np.zeros((32, 32), dtype=bool)
        # superpoint 0 occupies row 16, cols 11..20; cover six of them
        mask[16, 11:17] = True
        vis = visibility_matrix(self._track(mask), pixel_index(partition, pts, [frame]), tau=0.5)
        assert vis.rows[0, 0]  # 6/10 >= 0.5
        assert not vis.rows[0, 1]
        assert vis.in_counts[0, 0] == 6
        assert vis.total_counts[0, 0] == 10

    def test_containment_four_of_ten_fails(self):
        pts, partition, frame = self._geometry_fixture()
        mask = np.zeros((32, 32), dtype=bool)
        mask[16, 11:15] = True
        vis = visibility_matrix(self._track(mask), pixel_index(partition, pts, [frame]), tau=0.5)
        assert not vis.rows[0, 0]  # 4/10 < 0.5

    def test_tau_one_with_stray_pixel(self):
        pts, partition, frame = self._geometry_fixture()
        mask = np.zeros((32, 32), dtype=bool)
        mask[16, 11:20] = True  # nine of ten pixels covered
        strict = visibility_matrix(self._track(mask), pixel_index(partition, pts, [frame]), tau=1.0)
        assert not strict.rows[0, 0]
        relaxed = visibility_matrix(self._track(mask), pixel_index(partition, pts, [frame]), tau=0.9)
        assert relaxed.rows[0, 0]

    def test_antitone_in_tau(self):
        pts, partition, frame = self._geometry_fixture()
        mask = np.zeros((32, 32), dtype=bool)
        mask[16, 11:18] = True
        previous = None
        for tau in np.arange(0.1, 1.01, 0.1):
            vis = visibility_matrix(self._track(mask), pixel_index(partition, pts, [frame]), tau=float(tau))
            if previous is not None:
                assert not np.any(vis.rows & ~previous)
            previous = vis.rows

    def test_empty_track_mask_dict_not_allowed_but_empty_matrix_ok(self):
        vis = vis_from_counts(np.zeros((0, 3)), np.zeros((0, 3)))
        assert vis.view_count == 0
        assert dp_refine(vis).objective == 0
        assert len(vis.candidates()) == 0

    def test_tau_validation(self):
        pts, partition, frame = self._geometry_fixture()
        mask = np.zeros((32, 32), dtype=bool)
        mask[16, 11] = True
        with pytest.raises(ValueError):
            visibility_matrix(self._track(mask), pixel_index(partition, pts, [frame]), tau=0.0)

    def test_mask_shape_must_match_the_index(self):
        pts, partition, frame = self._geometry_fixture()
        pixels = pixel_index(partition, pts, [frame])
        assert pixels.shape == (32, 32)
        for shape in [(32, 31), (31, 32), (32, 32, 1)]:
            with pytest.raises(ValueError, match="mask shape"):
                visibility_matrix(self._track(np.ones(shape, dtype=bool)), pixels)

    def test_view_keys_must_lie_in_the_index(self):
        pts, partition, frame = self._geometry_fixture()
        pixels = pixel_index(partition, pts, [frame, frame])
        mask = np.ones((32, 32), dtype=bool)
        for view in (-1, 2):  # -1 would read the last view's totals against an empty slice
            track = MaskTrack(4, 1.0, {0: mask, view: mask}, 0, 0)
            with pytest.raises(ValueError, match=f"track 4 view {view}: outside the 2 views"):
                visibility_matrix(track, pixels)
        assert visibility_matrix(MaskTrack(4, 1.0, {0: mask, 1: mask}, 0, 0), pixels).view_count == 2


class TestObjectiveValue:
    def test_all_false_is_zero(self):
        vis = vis_from_counts([[3, 4]], [[3, 8]])
        assert objective_from_counts(np.zeros(2, dtype=bool), vis) == 0

    def test_single_view_seven_in_three_out(self):
        # selection projects to 10 points, 7 inside the mask: 7 - 3 = 4
        vis = vis_from_counts([[7]], [[10]])
        assert objective_from_counts(np.ones(1, dtype=bool), vis) == 4

    def test_two_views_plus_four_minus_one(self):
        vis = vis_from_counts([[7], [2]], [[10], [5]])
        theta = np.ones(1, dtype=bool)
        assert objective_from_counts(theta, vis) == 3
        assert oracle_objective(theta, vis) == 3

    def test_matches_per_view_recount_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vis = random_instance(rng)
            theta = rng.random(vis.superpoint_count) < 0.5
            assert objective_from_counts(theta, vis) == oracle_objective(theta, vis)

    def test_geometry_route_matches_counts_route(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.4, 0.4, size=(80, 3)) + (0.0, 0.0, 2.0)
        assignment = rng.integers(0, 6, size=80)
        assignment[:6] = np.arange(6)
        partition = SuperpointPartition.from_assignment(assignment, pts)
        frames = [
            make_frame(np.full((48, 48), 2.0), fx=40.0, fy=40.0, cx=23.5, cy=23.5)
            for _ in range(3)
        ]
        masks = {}
        for t in range(3):
            m = np.zeros((48, 48), dtype=bool)
            r0, c0 = rng.integers(0, 24, size=2)
            m[r0 : r0 + 24, c0 : c0 + 24] = True
            masks[t] = m
        track = MaskTrack(0, 1.0, masks, 0, 0)
        vis = visibility_matrix(track, pixel_index(partition, pts, frames, 0.5), tau=0.5)
        for _ in range(10):
            theta = rng.random(6) < 0.5
            direct = objective_value(theta, track, pts, partition, frames, depth_tolerance=0.5)
            assert direct == objective_from_counts(theta, vis)


class TestDpRefine:
    def test_single_positive_view(self):
        vis = vis_from_counts([[5]], [[5]])  # sole view scores +5
        sol = dp_refine(vis)
        assert sol.objective == 5
        assert sol.theta.tolist() == [True]

    def test_single_negative_view_keeps_empty(self):
        # visible set scores 2*4 - 10 = -2: retain beats add
        vis = vis_from_counts([[4]], [[10]], tau=0.4)
        assert vis.rows[0, 0]
        sol = dp_refine(vis)
        assert sol.objective == 0
        assert not sol.theta.any()

    def test_hand_traced_three_views(self):
        # superpoints A B C D; weights per view (2*in - total):
        #   view 0: A +4 (4/4), B 0 (2/4)          rows {A, B}
        #   view 1: A 0 (1/2),  B -3 (0/3), C +2 (2/2)   rows {A, C}
        #   view 2: D -1 (1/3)                      rows {}
        # totals: A +4, B -3, C +2, D -1
        in_c = [[4, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]]
        tot = [[4, 4, 0, 0], [2, 3, 2, 0], [0, 0, 0, 3]]
        vis = vis_from_counts(in_c, tot)
        assert vis.rows.tolist() == [
            [True, True, False, False],
            [True, False, True, False],
            [False, False, False, False],
        ]
        # hand trace: t0 add {A,B} -> C = 4-3 = 1 > 0
        #             t1 add {A,B,C} -> C = 4-3+2 = 3 > 1
        #             t2 union adds nothing, tie keeps current
        sol = dp_refine(vis)
        assert sol.theta.tolist() == [True, True, True, False]
        assert sol.objective == 3
        # the greedy sweep is not globally optimal here: {A, C} scores 6
        best = brute_force_superpoints(vis)
        assert best.objective == 6
        assert best.theta.tolist() == [True, False, True, False]
        # and restricting to whole view subsets: view 1 alone gives {A, C}
        views_best = brute_force_views(vis)
        assert views_best.objective == 6

    def test_trace_is_nondecreasing_and_final_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vis = random_instance(rng)
            weights = vis.total_weights()
            theta = np.zeros(vis.superpoint_count, dtype=bool)
            best = 0
            trace = [0]
            for v in range(vis.view_count):
                merged = theta | vis.rows[v]
                score = int(weights @ merged)
                if score > best:
                    theta, best = merged, score
                trace.append(best)
            assert trace == sorted(trace)
            sol = dp_refine(vis)
            assert sol.objective == best >= 0
            first = int(weights @ vis.rows[0])
            assert sol.objective >= max(0, first)

    def test_selected_only_from_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vis = random_instance(rng)
            sol = dp_refine(vis)
            lifted = all_lifted(vis)
            assert not np.any(sol.theta & ~lifted.theta)


class TestBruteForce:
    def test_views_at_least_dp(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            vis = random_instance(rng)
            assert brute_force_views(vis).objective >= dp_refine(vis).objective

    def test_views_single_view_max_zero(self):
        neg = vis_from_counts([[4]], [[10]], tau=0.4)
        assert brute_force_views(neg).objective == 0
        pos = vis_from_counts([[9]], [[10]])
        assert brute_force_views(pos).objective == 8

    def test_views_matches_recursive_enumerator(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            vis = random_instance(rng, max_views=6)
            expected_score, expected_theta = oracle_enumerate_views(vis)
            sol = brute_force_views(vis)
            assert sol.objective == expected_score
            assert np.array_equal(sol.theta, expected_theta)

    def test_superpoints_dominate_views_dominate_dp(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            vis = random_instance(rng)
            sp = brute_force_superpoints(vis).objective
            vw = brute_force_views(vis).objective
            dp = dp_refine(vis).objective
            assert sp >= vw >= dp

    def test_single_candidate_included_iff_positive(self):
        pos = vis_from_counts([[5]], [[6]])
        sol = brute_force_superpoints(pos)
        assert sol.theta.tolist() == [True] and sol.objective == 4
        neg = vis_from_counts([[2]], [[5]], tau=0.4)
        sol = brute_force_superpoints(neg)
        assert not sol.theta.any() and sol.objective == 0

    def test_empty_matrix(self):
        vis = vis_from_counts(np.zeros((0, 3)), np.zeros((0, 3)))
        for sol in (brute_force_views(vis), brute_force_superpoints(vis), top_k_views_refine(vis, 2)):
            assert sol.theta.tolist() == [False] * 3 and sol.objective == 0

    def test_ties_across_enumeration_chunks(self):
        # view 0 and the last view tie with their union (A and B weigh 0, C
        # weighs 10); the last view's bit opens the second bitmask chunk, and
        # the smaller bitmask, view 0 alone, must win
        n = _ENUM_CHUNK.bit_length()
        rows = np.zeros((n, 3), dtype=bool)
        rows[0] = [True, False, True]
        rows[-1] = [False, True, True]
        inside = np.zeros((n, 3), dtype=np.int64)
        total = np.zeros((n, 3), dtype=np.int64)
        inside[[0, -1]] = [1, 1, 5]
        total[[0, -1]] = [2, 2, 5]
        sol = brute_force_views(VisibilityMatrix(np.arange(n), rows, inside, total))
        assert sol.objective == 10
        assert sol.theta.tolist() == [True, False, True]

    def test_enumeration_caps(self):
        vis = vis_from_counts(np.ones((21, 2)), np.ones((21, 2)))
        with pytest.raises(ValueError, match="dp_refine or top_k"):
            brute_force_views(vis)

    @given(visibility_matrices(max_views=6, max_superpoints=20))
    @example(VisibilityMatrix(np.arange(0), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))))
    @example(VisibilityMatrix([0], [[True, True, False]], [[2, 1, 3]], [[4, 2, 3]]))  # weights 0, 0, 3
    @example(VisibilityMatrix([0], np.ones((1, 20)), [np.arange(20) % 3], np.full((1, 20), 2)))  # -2, 0, 2, ...
    @settings(max_examples=80, deadline=None)
    def test_superpoints_match_the_enumerator(self, vis):
        expected_theta, expected_score = reference_superpoints(vis)
        sol = brute_force_superpoints(vis)
        assert np.array_equal(sol.theta, expected_theta)
        assert sol.objective == expected_score == objective_from_counts(sol.theta, vis)

    @given(visibility_matrices(max_views=6, max_superpoints=64).filter(lambda vis: len(vis.candidates()) > 20))
    @settings(max_examples=40, deadline=None)
    def test_superpoints_beyond_twenty_candidates(self, vis):
        weights = vis.total_weights()[vis.candidates()]
        sol = brute_force_superpoints(vis)
        assert sol.objective == int(weights[weights > 0].sum())
        assert sol.objective >= brute_force_views(vis).objective


class TestTopK:
    def test_k_equal_view_count_is_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            vis = random_instance(rng)
            full = brute_force_views(vis)
            topk = top_k_views_refine(vis, vis.view_count)
            assert topk.objective == full.objective
            assert np.array_equal(topk.theta, full.theta)

    def test_k1_best_single_view_or_empty(self):
        vis = vis_from_counts([[6, 0], [0, 4]], [[6, 0], [0, 6]])
        # solo objectives: view0 -> +6, view1 -> +2; k=1 keeps view 0
        sol = top_k_views_refine(vis, 1)
        assert sol.objective == 6
        assert sol.theta.tolist() == [True, False]
        neg = vis_from_counts([[1]], [[4]], tau=0.25)
        assert top_k_views_refine(neg, 1).objective == 0

    def test_crafted_strict_chain(self):
        # six views each lifting a distinct unit-weight superpoint: k=1 gets
        # one, k=5 gets five, the full search takes all six
        in_c = np.eye(6, dtype=int)
        tot = np.eye(6, dtype=int)
        vis = vis_from_counts(in_c, tot)
        o1 = top_k_views_refine(vis, 1).objective
        o5 = top_k_views_refine(vis, 5).objective
        ofull = brute_force_views(vis).objective
        assert o1 < o5 < ofull
        assert (o1, o5, ofull) == (1, 5, 6)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            vis = random_instance(rng)
            objs = [top_k_views_refine(vis, k).objective for k in (1, 2, 4, 8)]
            assert objs == sorted(objs)


class TestAllLifted:
    def test_empty_matrix(self):
        vis = vis_from_counts(np.zeros((0, 4)), np.zeros((0, 4)))
        sol = all_lifted(vis)
        assert not sol.theta.any() and sol.objective == 0

    def test_union_of_rows(self):
        in_c = [[2, 2, 0], [0, 2, 2]]
        tot = [[2, 2, 0], [0, 2, 2]]
        vis = vis_from_counts(in_c, tot)
        sol = all_lifted(vis)
        assert sol.theta.tolist() == [True, True, True]

    def test_contains_dp_selection(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            vis = random_instance(rng)
            assert not np.any(dp_refine(vis).theta & ~all_lifted(vis).theta)

    def test_never_beats_brute_views(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            vis = random_instance(rng)
            assert all_lifted(vis).objective <= brute_force_views(vis).objective
