"""The (view, superpoint) pixel index against the per-view code it replaced.

``reference_build_tracker_query`` and ``reference_visibility_matrix`` are the
earlier implementations, which restricted or re-bincounted every view's
whole-cloud projection; the index-based functions must give equal results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglift.errors import TrackingError
from seglift.geometry import PixelSet, estimate_normals, fps_sample, project_cloud
from seglift.optimize import VisibilityMatrix, visibility_matrix
from seglift.superpoints import SuperpointPartition, partition_superpoints
from seglift.tracks import MaskTrack, TrackerQuery, build_tracker_query
from seglift.view_select import PixelIndex, superpoint_view_counts

from conftest import make_frame, pose_from, rotation_z


# --- references: the per-view implementations -------------------------------


def reference_build_tracker_query(
    superpoint, partition, frames, pivot, memory_window, prompt_count, projections
):
    per_view = [_restrict(projections[t], partition.assignment, superpoint) for t in range(len(frames))]
    pivot_proj = per_view[pivot]
    if pivot_proj.is_empty:
        raise TrackingError("superpoint invisible in pivot")

    uniq = np.unique(pivot_proj.pixels(), axis=0)
    embedded = np.column_stack([uniq.astype(np.float64), np.zeros(len(uniq))])
    picks = fps_sample(embedded, min(prompt_count, len(uniq)))
    prompts = [(int(uniq[i, 0]), int(uniq[i, 1])) for i in picks]

    visible = [not ps.is_empty for ps in per_view]
    reprompts = {}
    prev = None
    for t, vis in enumerate(visible):
        if not vis:
            continue
        if prev is not None and (t - prev - 1) > memory_window:
            ps = per_view[t]
            reprompts[t] = (int(ps.rows[0]), int(ps.cols[0]))
        prev = t
    return TrackerQuery(pivot, prompts, reprompts)


def _restrict(ps, assignment, superpoint):
    keep = assignment[ps.indices] == superpoint
    return PixelSet(ps.rows[keep], ps.cols[keep], ps.indices[keep])


def reference_visibility_matrix(track, partition, tau, overlap_mode, projections):
    L = partition.count
    per_view = {t: projections[t] for t in track.views()}
    views = sorted(per_view)
    V = len(views)
    rows = np.zeros((V, L), dtype=bool)
    in_counts = np.zeros((V, L), dtype=np.int64)
    total_counts = np.zeros((V, L), dtype=np.int64)
    for v, t in enumerate(views):
        ps = per_view[t]
        if ps.is_empty:
            continue
        mask = track.masks[t]
        labels = partition.assignment[ps.indices]
        inside = mask[ps.rows, ps.cols]
        total_counts[v] = np.bincount(labels, minlength=L)
        in_counts[v] = np.bincount(labels[inside], minlength=L)
        if overlap_mode == "containment":
            with np.errstate(invalid="ignore"):
                ratio = in_counts[v] / total_counts[v]
            rows[v] = (total_counts[v] > 0) & (np.nan_to_num(ratio) >= tau)
        else:
            rows[v] = _reference_iou_row(ps, labels, mask, L) >= tau
    return VisibilityMatrix(np.asarray(views), rows, in_counts, total_counts)


def _reference_iou_row(ps, labels, mask, L):
    h, w = mask.shape
    pix = ps.rows * w + ps.cols
    pairs = np.unique(labels * (h * w) + pix)
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


# --- random scenes -----------------------------------------------------------


def random_scene(rng, n, labels, views, size=24):
    """Points near depth 2 seen by shifted cameras; some views see nothing.

    Superpoints are random bands along x, with a fifth of the points relabeled
    at random. Shifts push part of the cloud out of frame and depth jitter
    fails part of the occlusion test, so superpoints are invisible in some
    views, and the blank views open visibility gaps.
    """
    pts = np.column_stack(
        [rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n), rng.uniform(1.8, 2.2, n)]
    )
    bands = np.searchsorted(np.sort(rng.uniform(-0.5, 0.5, labels - 1)), pts[:, 0])
    relabel = rng.random(n) < 0.2
    bands[relabel] = rng.integers(0, labels, size=int(relabel.sum()))
    assignment = np.unique(bands, return_inverse=True)[1]
    partition = SuperpointPartition.from_assignment(assignment, pts)
    frames = []
    for _ in range(views):
        depth = np.full((size, size), 2.0) if rng.random() < 0.7 else np.zeros((size, size))
        shift = (rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0)
        extrinsics = pose_from(rotation_z(rng.uniform(-0.3, 0.3)), shift)
        frames.append(make_frame(depth, fx=40.0, fy=40.0, extrinsics=extrinsics))
    return pts, partition, frames


def random_track(rng, frames):
    """Random rectangle masks on a random subset of views, blank ones included."""
    views = sorted(rng.choice(len(frames), size=rng.integers(1, len(frames) + 1), replace=False))
    masks = {}
    for t in views:
        h, w = frames[t].height, frames[t].width
        mask = np.zeros((h, w), dtype=bool)
        r0, c0 = rng.integers(0, h), rng.integers(0, w)
        mask[r0 : r0 + rng.integers(1, h), c0 : c0 + rng.integers(1, w)] = True
        masks[int(t)] = mask
    return MaskTrack(0, 1.0, masks, int(views[0]), 0)


def assert_same_query(seed, partition, frames, pixels, projections, memory_window, prompt_count):
    for pivot in range(len(frames)):
        try:
            expected = reference_build_tracker_query(
                seed, partition, frames, pivot, memory_window, prompt_count, projections
            )
        except TrackingError:
            with pytest.raises(TrackingError):
                build_tracker_query(seed, partition, None, frames, pivot, pixels=pixels)
            continue
        query = build_tracker_query(
            seed,
            partition,
            None,
            frames,
            pivot,
            memory_window=memory_window,
            prompt_count=prompt_count,
            pixels=pixels,
        )
        assert query.point_prompts == expected.point_prompts
        assert query.reprompt_points == expected.reprompt_points


def assert_same_vis(track, partition, frames, pixels, projections, tau, mode):
    expected = reference_visibility_matrix(track, partition, tau, mode, projections)
    vis = visibility_matrix(track, None, partition, frames, tau=tau, overlap_mode=mode, pixels=pixels)
    for name in ("views", "rows", "in_counts", "total_counts"):
        np.testing.assert_array_equal(getattr(vis, name), getattr(expected, name), err_msg=name)


class TestMatchesPerViewReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        labels=st.integers(1, 12),
        views=st.integers(1, 14),
        memory_window=st.integers(1, 3),
        prompt_count=st.integers(1, 4),
        tau=st.sampled_from([0.05, 0.3, 0.5, 1.0]),
    )
    def test_random_partitions(self, seed, n, labels, views, memory_window, prompt_count, tau):
        rng = np.random.default_rng(seed)
        pts, partition, frames = random_scene(rng, n, labels, views)
        projections = project_cloud(pts, frames, 0.15)
        pixels = PixelIndex.build(partition, projections)
        np.testing.assert_array_equal(pixels.counts, superpoint_view_counts(partition, projections))
        for sp in range(partition.count):
            assert_same_query(sp, partition, frames, pixels, projections, memory_window, prompt_count)
        for _ in range(3):
            track = random_track(rng, frames)
            for mode in ("containment", "iou"):
                assert_same_vis(track, partition, frames, pixels, projections, tau, mode)

    def test_gaps_and_blank_views_occur(self):
        # the random scenes exercise what they claim: blank views, gaps longer
        # than the memory window, and superpoints invisible in some views
        blank = gaps = hidden = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts, partition, frames = random_scene(rng, 200, 8, 12)
            pixels = PixelIndex.build(partition, project_cloud(pts, frames, 0.15))
            seen = pixels.counts > 0
            blank += int(np.sum(~seen.any(axis=1)))
            hidden += int(np.sum(seen.any(axis=1)[:, None] & ~seen))
            for sp in range(partition.count):
                visible = np.flatnonzero(seen[:, sp])
                gaps += int(np.sum(np.diff(visible) - 1 > 1))
        assert blank > 0 and gaps > 0 and hidden > 0

    def test_synthetic_scene(self, small_scene):
        cloud = small_scene.cloud
        partition = partition_superpoints(cloud, estimate_normals(cloud.positions, 12))
        frames = small_scene.frames[::4]
        projections = project_cloud(cloud.positions, frames, 0.1)
        pixels = PixelIndex.build(partition, projections)
        for sp in range(0, partition.count, 3):
            assert_same_query(sp, partition, frames, pixels, projections, 2, 3)
        for oid in range(3):
            masks = {t: r == oid for t, r in enumerate(small_scene.instances[::4]) if np.any(r == oid)}
            masks[len(frames) - 1] = np.zeros_like(small_scene.instances[0], dtype=bool)
            track = MaskTrack(oid, 1.0, masks, min(masks), -1)
            for mode in ("containment", "iou"):
                assert_same_vis(track, partition, frames, pixels, projections, 0.5, mode)


class TestLayout:
    def test_cells_hold_each_view_by_superpoint_then_point_id(self):
        rng = np.random.default_rng(3)
        pts, partition, frames = random_scene(rng, 150, 5, 6)
        projections = project_cloud(pts, frames, 0.15)
        pixels = PixelIndex.build(partition, projections)
        assert pixels.offsets[-1] == sum(len(ps) for ps in projections)
        for array in (pixels.rows, pixels.cols, pixels.labels):
            assert array.dtype == np.int32
        for t, ps in enumerate(projections):
            for sp in range(partition.count):
                keep = partition.assignment[ps.indices] == sp
                cell = pixels.cell(t, sp)
                np.testing.assert_array_equal(pixels.rows[cell], ps.rows[keep])
                np.testing.assert_array_equal(pixels.cols[cell], ps.cols[keep])
                assert np.all(pixels.labels[cell] == sp)
            assert pixels.view(t) == slice(pixels.cell(t, 0).start, pixels.cell(t, partition.count - 1).stop)
