"""The (view, superpoint) pixel index against the per-view code it replaced.

``reference_build_tracker_query`` and ``reference_visibility_matrix`` are the
earlier implementations, which restricted or re-bincounted every view's
whole-cloud projection; the index-based functions must give equal results.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglift.errors import InvariantViolation, TrackingError
from seglift.geometry import PixelSet, estimate_normals, fps_sample, project_cloud
from seglift.optimize import VisibilityMatrix, visibility_matrix
from seglift.pipeline import PipelineConfig, prepare_state, subsample_views
from seglift.superpoints import SuperpointPartition, partition_superpoints
from seglift.tracks import (
    MaskTrack,
    NoiseSpec,
    TrackerQuery,
    build_tracker_query,
    noisy_track,
    oracle_track,
    read_tracks,
    track_intervals,
    write_tracks,
)
from seglift.view_select import NoPivotViewError, PixelIndex, pivot_view, superpoint_view_counts

from conftest import examples, make_frame, pixel_index, pose_from, rotation_z


# --- references: the per-view implementations -------------------------------


def reference_build_tracker_query(
    superpoint, partition, frames, pivot, memory_window, prompt_count, projections
):
    per_view = [_restrict(projections[t], partition.assignment, superpoint) for t in range(len(frames))]
    pivot_proj = per_view[pivot]
    if len(pivot_proj) == 0:
        raise TrackingError("superpoint invisible in pivot")

    uniq = np.unique(np.stack([pivot_proj.rows, pivot_proj.cols], axis=1), axis=0)
    embedded = np.column_stack([uniq.astype(np.float64), np.zeros(len(uniq))])
    picks = fps_sample(embedded, min(prompt_count, len(uniq)))
    prompts = [(int(uniq[i, 0]), int(uniq[i, 1])) for i in picks]

    reprompts = set()
    prev = None
    for t, ps in enumerate(per_view):
        if len(ps) == 0:
            continue
        if prev is not None and (t - prev - 1) > memory_window:
            reprompts.add(t)
        prev = t
    return TrackerQuery(pivot, prompts, frozenset(reprompts))


def _restrict(ps, assignment, superpoint):
    keep = assignment[ps.indices] == superpoint
    return PixelSet(ps.rows[keep], ps.cols[keep], ps.indices[keep])


def reference_visibility_matrix(track, partition, tau, projections):
    L = partition.count
    per_view = {t: projections[t] for t in track.views()}
    views = sorted(per_view)
    V = len(views)
    rows = np.zeros((V, L), dtype=bool)
    in_counts = np.zeros((V, L), dtype=np.int64)
    total_counts = np.zeros((V, L), dtype=np.int64)
    for v, t in enumerate(views):
        ps = per_view[t]
        if len(ps) == 0:
            continue
        mask = track.masks[t]
        labels = partition.assignment[ps.indices]
        inside = mask[ps.rows, ps.cols]
        total_counts[v] = np.bincount(labels, minlength=L)
        in_counts[v] = np.bincount(labels[inside], minlength=L)
        with np.errstate(invalid="ignore"):
            ratio = in_counts[v] / total_counts[v]
        rows[v] = (total_counts[v] > 0) & (np.nan_to_num(ratio) >= tau)
    return VisibilityMatrix(np.asarray(views), rows, in_counts, total_counts)


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
                build_tracker_query(seed, pixels, pivot)
            continue
        query = build_tracker_query(
            seed, pixels, pivot, memory_window=memory_window, prompt_count=prompt_count
        )
        assert query.point_prompts == expected.point_prompts
        assert query.reprompt_views == expected.reprompt_views


def assert_same_vis(track, partition, frames, pixels, projections, tau):
    expected = reference_visibility_matrix(track, partition, tau, projections)
    vis = visibility_matrix(track, pixels, tau=tau)
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
        pixels = PixelIndex.build(partition, projections, (frames[0].height, frames[0].width))
        np.testing.assert_array_equal(pixels.counts, superpoint_view_counts(partition, projections))
        for sp in range(partition.count):
            assert_same_query(sp, partition, frames, pixels, projections, memory_window, prompt_count)
        for _ in range(3):
            track = random_track(rng, frames)
            assert_same_vis(track, partition, frames, pixels, projections, tau)

    def test_gaps_and_blank_views_occur(self):
        # the random scenes exercise what they claim: blank views, gaps longer
        # than the memory window, and superpoints invisible in some views
        blank = gaps = hidden = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts, partition, frames = random_scene(rng, 200, 8, 12)
            pixels = pixel_index(partition, pts, frames, 0.15)
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
        pixels = PixelIndex.build(partition, projections, (frames[0].height, frames[0].width))
        for sp in range(0, partition.count, 3):
            assert_same_query(sp, partition, frames, pixels, projections, 2, 3)
        for oid in range(3):
            masks = {t: r == oid for t, r in enumerate(small_scene.instances[::4]) if np.any(r == oid)}
            masks[len(frames) - 1] = np.zeros_like(small_scene.instances[0], dtype=bool)
            track = MaskTrack(oid, 1.0, masks, min(masks), -1)
            assert_same_vis(track, partition, frames, pixels, projections, 0.5)

    def test_empty_cells_and_a_mask_on_the_view_ends(self):
        # view 0 sees superpoints 1 and 3 only: its cells 0, 2 and 4 are empty,
        # and the mask covers its first entry (point 0) and last entry (point 3)
        assignment = np.array([1, 3, 1, 3, 0, 2, 4])
        partition = SuperpointPartition.from_assignment(assignment, np.zeros((7, 3)))
        frames = [make_frame(np.full((4, 5), 2.0)) for _ in range(2)]
        projections = [
            PixelSet(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 4]), np.array([0, 1, 2, 3])),
            PixelSet(np.array([0, 0, 1, 1, 2, 2, 3]), np.array([0, 1, 0, 1, 0, 1, 0]), np.arange(7)),
        ]
        pixels = PixelIndex.build(partition, projections, (4, 5))
        mask = np.zeros((4, 5), dtype=bool)
        mask[0, 0] = mask[3, 4] = True
        track = MaskTrack(0, 1.0, {0: mask, 1: mask}, 0, 1)
        for tau in (0.5, 1.0):
            assert_same_vis(track, partition, frames, pixels, projections, tau)
        np.testing.assert_array_equal(visibility_matrix(track, pixels).in_counts[0], [0, 1, 0, 1, 0])
        for sp in range(partition.count):
            assert_same_query(sp, partition, frames, pixels, projections, 1, 2)


class TestStreamedBuild:
    """build reads its views from any iterable, in one pass."""

    @staticmethod
    def assert_same_index(got, want):
        assert got.shape == want.shape
        for name in ("counts", "starts", "keys"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("views", [0, 1, 9])
    def test_generator_gives_the_list_index(self, views):
        rng = np.random.default_rng(views)
        pts, partition, frames = random_scene(rng, 200, 6, max(views, 1))
        frames = frames[:views]
        shape = (24, 24)  # random_scene's image size
        projections = project_cloud(pts, frames, 0.15)
        if views:
            projections[0] = PixelSet(*np.empty((3, 0), dtype=np.int64))  # a view that sees nothing
        want = PixelIndex.build(partition, projections, shape)
        self.assert_same_index(PixelIndex.build(partition, iter(projections), shape), want)
        self.assert_same_index(PixelIndex.build(partition, (ps for ps in projections), shape), want)
        assert want.counts.shape == (views, partition.count)
        assert want.starts.shape == (views + 1,) and want.keys.dtype == np.int32

    def test_prepare_state_indexes_the_working_views(self, small_scene):
        config = PipelineConfig(view_stride=3)
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, config)
        working = subsample_views(small_scene.frames, config.view_stride)
        want = pixel_index(state.partition, small_scene.cloud.positions, working, config.depth_tolerance)
        assert len(working) > 1 and want.starts[-1] > 0
        self.assert_same_index(state.pixels, want)


def assert_layout(pixels, partition, projections, dtype):
    """Each view's entries are the sorted keys ``pixel * L + superpoint`` of
    its projected points, and each superpoint's pixels are those of its points."""
    L, width = partition.count, pixels.shape[1]
    assert pixels.keys.dtype == dtype
    assert pixels.starts[0] == 0 and pixels.starts[-1] == len(pixels.keys) == sum(len(ps) for ps in projections)
    for t, ps in enumerate(projections):
        labels = partition.assignment[ps.indices]
        pixel = ps.rows.astype(np.int64) * width + ps.cols
        np.testing.assert_array_equal(pixels.keys[pixels.view(t)], np.sort(pixel * L + labels))
        assert pixels.starts[t + 1] - pixels.starts[t] == len(ps)
        for sp in range(L):
            np.testing.assert_array_equal(pixels.pixels_of(t, sp), np.sort(pixel[labels == sp]))


class TestLayout:
    def test_views_hold_keys_by_pixel_then_superpoint(self):
        rng = np.random.default_rng(3)
        pts, partition, frames = random_scene(rng, 150, 5, 6)
        projections = project_cloud(pts, frames, 0.15)
        pixels = PixelIndex.build(partition, projections, (frames[0].height, frames[0].width))
        assert_layout(pixels, partition, projections, np.int32)
        assert pixels.starts.dtype == np.int64

    @pytest.mark.parametrize("labels", [255, 256, 257])
    def test_matches_int64_sort_where_the_key_widens(self, labels):
        # at 2048 x 4096 pixels, H * W * L is 2**31 at 256 superpoints: the largest key, 2**31 - 1,
        # still fits int32, and from 257 superpoints the keys are int64
        height, width = 2048, 4096
        rng = np.random.default_rng(labels)
        n = 40 * labels
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        partition = SuperpointPartition.from_assignment(rng.permutation(np.arange(n) % labels), pts)
        projections = []
        for _ in range(4):
            ids = np.flatnonzero(rng.random(n) < 0.6)
            rows, cols = rng.integers(0, height, ids.size), rng.integers(0, width, ids.size)
            # the last pixel, taken by the last superpoint: the largest key
            last = np.flatnonzero(partition.assignment[ids] == labels - 1)[-1]
            rows[last], cols[last] = height - 1, width - 1
            projections.append(PixelSet(rows, cols, ids))
        pixels = PixelIndex.build(partition, projections, (height, width))
        assert_layout(pixels, partition, projections, np.int32 if labels <= 256 else np.int64)
        assert pixels.keys.max() == height * width * labels - 1
        mask = np.zeros((height, width), dtype=bool)
        for t, ps in enumerate(projections):
            own = partition.assignment[ps.indices]
            # the first row, the last row, the last pixel alone, and a band reaching the last row
            for rows, cols in ((0, slice(None)), (height - 1, slice(None)), (height - 1, width - 1), (slice(5, None), 7)):
                mask[rows, cols] = True
                want = np.bincount(own[mask[ps.rows, ps.cols]], minlength=labels)
                np.testing.assert_array_equal(pixels.count_inside(t, mask), want)
                mask[rows, cols] = False


@st.composite
def band_cases(draw):
    """Random views of a small image, some with no entries, and a track whose
    masks sit on the first row, the last row, one pixel, anywhere, or nowhere."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    views = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assignment = rng.permutation(np.arange(n) % draw(st.integers(1, min(n, 5))))
    projections = []
    for _ in range(views):
        ids = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])))
        # rows drawn from both image edges more often than a uniform draw would
        rows = np.where(rng.random(ids.size) < 0.5, rng.choice([0, height - 1], ids.size),
                        rng.integers(0, height, ids.size))
        projections.append(PixelSet(rows, rng.integers(0, width, ids.size), ids))
    masks = {}
    for t in range(views):
        mask = np.zeros((height, width), dtype=bool)
        kind = draw(st.sampled_from(["first-row", "last-row", "one-pixel", "random", "empty"]))
        if kind == "first-row":
            mask[0] = rng.random(width) < 0.5
        elif kind == "last-row":
            mask[height - 1] = rng.random(width) < 0.5
        elif kind == "one-pixel":
            mask[rng.integers(height), rng.integers(width)] = True
        elif kind == "random":
            mask = rng.random((height, width)) < 0.4
        masks[t] = mask
    partition = SuperpointPartition.from_assignment(assignment, np.zeros((n, 3)))
    return partition, projections, MaskTrack(0, 1.0, masks, 0, 0), (height, width)


class TestBandEdges:
    """Masks on the image's first and last rows give the dense per-point counts."""

    @settings(max_examples=examples(200), deadline=None)
    @given(band_cases(), st.sampled_from([0.05, 0.5, 1.0]))
    def test_band_counts_equal_dense_reference(self, case, tau):
        partition, projections, track, shape = case
        pixels = PixelIndex.build(partition, projections, shape)
        assert_same_vis(track, partition, None, pixels, projections, tau)


@st.composite
def run_cases(draw):
    """Random views and a track over them whose masks are empty, full, one
    pixel, a run from or to a row's end, or a few random runs; on a small
    image, or on a wide one where H * W * L > 2**31 and the keys are int64."""
    if draw(st.booleans()):
        height, width, labels = 2, 2**20, 1025
    else:
        height, width, labels = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 5))
    size = height * width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = labels + draw(st.integers(0, 40))
    assignment = rng.permutation(np.arange(n) % labels)
    views = draw(st.integers(1, 4))
    projections = []
    for _ in range(views):
        ids = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])))
        # columns drawn from both row ends more often than a uniform draw would
        cols = np.where(rng.random(ids.size) < 0.5, rng.choice([0, width - 1], ids.size), rng.integers(0, width, ids.size))
        projections.append(PixelSet(rng.integers(0, height, ids.size), cols, ids))
    masks = {}
    for t in range(views):
        flat = np.zeros(size, dtype=bool)
        kind = draw(st.sampled_from(["empty", "full", "one-pixel", "row-ends", "random"]))
        if kind == "full":
            flat[:] = True
        elif kind == "one-pixel":
            flat[rng.integers(size)] = True
        elif kind == "row-ends":  # each end a row's first or last pixel, or one past it
            ends = np.clip(rng.integers(0, height + 1, 2) * width + rng.integers(-1, 2, 2), 0, size)
            flat[ends.min() : ends.max()] = True
        elif kind == "random":
            cuts = np.sort(rng.integers(0, size + 1, 2 * rng.integers(1, 5)))
            for start, end in cuts.reshape(-1, 2):
                flat[start:end] = True
        masks[t] = flat.reshape(height, width)
    partition = SuperpointPartition.from_assignment(assignment, np.zeros((n, 3)))
    return partition, projections, MaskTrack(0, 1.0, masks, 0, 0), (height, width), rng.permutation(views).tolist()


class TestCountIntervals:
    """A track's intervals, from its file's runs or from its dense masks, counted at once."""

    @settings(max_examples=examples(100), deadline=None)
    @given(run_cases())
    def test_runs_count_as_count_inside_of_each_decoded_view(self, tmp_path_factory, case):
        partition, projections, track, shape, order = case
        pixels = PixelIndex.build(partition, projections, shape)
        assert pixels.keys.dtype == (np.int64 if shape[0] * shape[1] * partition.count > 2**31 else np.int32)
        path = tmp_path_factory.getbasetemp() / "runs.tracks"
        write_tracks([track], path)
        (read,) = read_tracks(path)
        # the file's views in order, and in any order
        for views in (read.views(), order):
            from_runs = pixels.count_intervals(views, *track_intervals(read, views, shape))
            from_masks = pixels.count_intervals(views, *track_intervals(track, views, shape))
            assert from_runs.shape == (len(views), partition.count)
            for v, t in enumerate(views):
                ps = projections[t]
                dense = np.bincount(partition.assignment[ps.indices][track.masks[t][ps.rows, ps.cols]],
                                    minlength=partition.count)
                np.testing.assert_array_equal(from_runs[v], pixels.count_inside(t, read.masks[t]))
                np.testing.assert_array_equal(from_runs[v], dense)
                np.testing.assert_array_equal(from_masks[v], dense)


@st.composite
def table_cases(draw):
    """Random views of a small image, some with no entries, each with an
    instance render whose ids come from a few values spread over int32."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    views = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assignment = rng.permutation(np.arange(n) % draw(st.integers(1, min(n, 5))))
    palette = draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=5)) + [-1]
    projections, renders = [], []
    for _ in range(views):
        ids = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])))
        projections.append(PixelSet(rng.integers(0, height, ids.size), rng.integers(0, width, ids.size), ids))
        renders.append(rng.choice(np.array(palette, dtype=np.int32), size=(height, width)))
    partition = SuperpointPartition.from_assignment(assignment, np.zeros((n, 3)))
    return partition, projections, renders, (height, width)


@pytest.fixture(scope="module")
def oracle_state(small_scene):
    return prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, PipelineConfig(view_stride=3))


def oracle_tracks(state):
    """The oracle track of every seed that has a pivot view and whose prompts hit an object."""
    tracks = []
    for seed in range(state.partition.count):
        try:
            pivot = pivot_view(seed, state.pixels.counts, state.partition.sizes, state.neighbors)
            tracks.append(oracle_track(build_tracker_query(seed, state.pixels, pivot), state.instances, seed, seed))
        except (NoPivotViewError, TrackingError):
            continue
    assert len(tracks) > 3
    return tracks


class TestInstanceTable:
    """Each view's projected points counted per render id, and oracle tracks lifted from those counts."""

    @settings(max_examples=examples(200), deadline=None)
    @given(table_cases())
    def test_rows_equal_count_inside_of_the_id_mask(self, case):
        partition, projections, renders, shape = case
        pixels = PixelIndex.build(partition, projections, shape, renders)
        views, ids = [], []
        for t, render in enumerate(renders):
            present = np.unique(render)
            views += [t] * len(present)
            ids += present.tolist()
        np.testing.assert_array_equal(pixels.instance_views, views)
        np.testing.assert_array_equal(pixels.instance_ids, ids)
        assert pixels.instance_counts.dtype == np.int32
        assert pixels.instance_counts.shape == (len(ids), partition.count)
        for row, (t, g) in enumerate(zip(views, ids)):
            np.testing.assert_array_equal(pixels.instance_counts[row], pixels.count_inside(t, renders[t] == g))
        TestStreamedBuild.assert_same_index(pixels, PixelIndex.build(partition, projections, shape))

    def test_a_views_rows_sum_to_its_counts(self, oracle_state):
        pixels = oracle_state.pixels
        assert len(pixels.counts) > 1
        for t in range(len(pixels.counts)):
            np.testing.assert_array_equal(pixels.instance_counts[pixels.instance_views == t].sum(axis=0), pixels.counts[t])

    def test_a_state_without_renders_has_no_table(self, small_scene):
        state = prepare_state(small_scene.cloud, small_scene.frames, None, PipelineConfig(view_stride=3))
        assert state.pixels.instance_views is state.pixels.instance_ids is state.pixels.instance_counts is None

    def test_oracle_lift_equals_the_lift_of_its_masks(self, oracle_state):
        for track in oracle_tracks(oracle_state):
            assert track.instance is not None
            by_table = visibility_matrix(track, oracle_state.pixels)
            by_masks = visibility_matrix(dataclasses.replace(track, instance=None), oracle_state.pixels)
            for name in ("views", "rows", "in_counts", "total_counts"):
                np.testing.assert_array_equal(getattr(by_table, name), getattr(by_masks, name), err_msg=name)

    def test_only_tracks_without_an_instance_count_their_masks(self, oracle_state, monkeypatch, tmp_path):
        oracle = max(oracle_tracks(oracle_state), key=lambda track: len(track.masks))
        prompt = divmod(int(np.flatnonzero(oracle.masks[oracle.pivot_view])[0]), oracle_state.pixels.shape[1])
        noisy = noisy_track(TrackerQuery(oracle.pivot_view, [prompt]), oracle_state.instances, NoiseSpec(p_flip=0.3), 0)
        write_tracks([oracle], tmp_path / "tracks.txt")
        (from_file,) = read_tracks(tmp_path / "tracks.txt")
        assert noisy.instance is None and from_file.instance is None
        without_table = dataclasses.replace(oracle_state.pixels, instance_views=None, instance_ids=None,
                                            instance_counts=None)
        calls = []
        count_intervals = PixelIndex.count_intervals
        monkeypatch.setattr(PixelIndex, "count_intervals",
                            lambda self, views, *packed: calls.extend(views) or count_intervals(self, views, *packed))
        for track, pixels, counted in ((oracle, oracle_state.pixels, []), (noisy, oracle_state.pixels, noisy.views()),
                                       (from_file, oracle_state.pixels, oracle.views()),
                                       (oracle, without_table, oracle.views())):
            calls.clear()
            visibility_matrix(track, pixels)
            assert calls == counted and len(track.masks) > 1

    def test_instance_rows_over_other_views_are_an_invariant_violation(self, oracle_state):
        track = max(oracle_tracks(oracle_state), key=lambda track: len(track.masks))
        dropped = next(t for t in track.views() if t != track.pivot_view)
        fewer = {t: mask for t, mask in track.masks.items() if t != dropped}
        for masks, instance in ((fewer, track.instance), (track.masks, 10**6)):
            broken = MaskTrack(track.track_id, 1.0, masks, track.pivot_view, track.seed_superpoint, instance)
            with pytest.raises(InvariantViolation, match="are not its mask views"):
                visibility_matrix(broken, oracle_state.pixels)
