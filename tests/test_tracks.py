"""Tracker query, oracle/noisy providers, and track file round-trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from seglift import tracks as tracks_module
from seglift.errors import DataError, TrackingError
from seglift.optimize import visibility_matrix
from seglift.superpoints import SuperpointPartition
from seglift.tracks import (
    MaskTrack,
    NoiseSpec,
    TrackerQuery,
    build_tracker_query,
    decode_rle,
    encode_rle,
    noisy_track,
    oracle_track,
    read_tracks,
    write_tracks,
)
from seglift.tracks import _packed_line

from conftest import examples, make_frame, pixel_index, reference_noisy_track, reference_parse_views, render_index


def tight_cluster(n, z=1.0):
    """n points that all land near the image center at depth z."""
    offsets = np.linspace(-0.02, 0.02, n)
    return np.column_stack([offsets, np.zeros(n), np.full(n, z)])


def visible_pattern_frames(pattern, size=32):
    """One frame per entry; False entries have all-invalid depth."""
    frames = []
    for visible in pattern:
        depth = np.full((size, size), 1.0) if visible else np.zeros((size, size))
        frames.append(make_frame(depth, cx=(size - 1) / 2, cy=(size - 1) / 2))
    return frames


def single_superpoint_partition(points):
    return SuperpointPartition.from_assignment(np.zeros(len(points), dtype=int), points)


class TestBuildTrackerQuery:
    def test_three_distinct_prompts_inside_projection(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [rng.uniform(-0.1, 0.1, 100), rng.uniform(-0.1, 0.1, 100), np.ones(100)]
        )
        partition = single_superpoint_partition(pts)
        frames = visible_pattern_frames([True])
        query = build_tracker_query(0, pixel_index(partition, pts, frames), pivot=0)
        assert len(query.point_prompts) == 3
        assert len(set(query.point_prompts)) == 3
        from seglift.geometry import project_points

        ps = project_points(pts, frames[0], 0.1)
        projected = set(zip(ps.rows.tolist(), ps.cols.tolist()))
        assert set(query.point_prompts) <= projected

    def test_two_pixel_projection_clamps_prompts(self):
        pts = np.array([[-0.05, 0.0, 1.0], [0.05, 0.0, 1.0]])
        partition = single_superpoint_partition(pts)
        frames = visible_pattern_frames([True])
        query = build_tracker_query(0, pixel_index(partition, pts, frames), pivot=0)
        assert len(query.point_prompts) == 2

    def test_reprompt_after_long_gap(self):
        # visible 0-3, gone 4-12 (nine views > memory window 7), visible 13-20
        pattern = [t <= 3 or t >= 13 for t in range(21)]
        pts = tight_cluster(4)
        partition = single_superpoint_partition(pts)
        frames = visible_pattern_frames(pattern)
        query = build_tracker_query(0, pixel_index(partition, pts, frames), pivot=1, memory_window=7)
        assert query.reprompt_views == {13}

    def test_short_gap_needs_no_reprompt(self):
        # gap of exactly memory_window views is still remembered
        pattern = [t <= 3 or t >= 11 for t in range(21)]
        pts = tight_cluster(4)
        partition = single_superpoint_partition(pts)
        frames = visible_pattern_frames(pattern)
        query = build_tracker_query(0, pixel_index(partition, pts, frames), pivot=1, memory_window=7)
        assert query.reprompt_views == frozenset()

    def test_invisible_pivot_errors(self):
        pts = tight_cluster(4)
        partition = single_superpoint_partition(pts)
        frames = visible_pattern_frames([False, True])
        with pytest.raises(TrackingError, match="superpoint invisible in pivot"):
            build_tracker_query(0, pixel_index(partition, pts, frames), pivot=0)


def block_renders(pattern, instance_id=2, size=32):
    """Instance renders showing a 5x5 block of instance_id when visible."""
    renders = []
    for visible in pattern:
        r = np.full((size, size), -1, dtype=np.int32)
        if visible:
            r[14:19, 14:19] = instance_id
        renders.append(r)
    return renders


def center_query(pivot, reprompts=()):
    return TrackerQuery(pivot, [(15, 15), (16, 16), (15, 16)], frozenset(reprompts))


class TestOracleTrack:
    def test_masks_equal_instance_renders(self):
        pattern = [True, True, False, True]
        renders = block_renders(pattern)
        track = oracle_track(center_query(0), render_index(renders), track_id=5, seed_superpoint=9)
        assert track.views() == [0, 1, 3]
        for t in track.views():
            np.testing.assert_array_equal(track.masks[t], renders[t] == 2)
        assert track.score == 1.0
        assert track.track_id == 5 and track.seed_superpoint == 9

    def test_object_visible_in_single_view(self):
        renders = block_renders([False, True, False])
        track = oracle_track(center_query(1), render_index(renders))
        assert track.views() == [1]

    def test_majority_vote_follows_two_of_three(self):
        render = np.full((32, 32), -1, dtype=np.int32)
        render[15, 15] = 4
        render[16, 16] = 4
        render[15, 16] = 8
        track = oracle_track(center_query(0), render_index([render]))
        np.testing.assert_array_equal(track.masks[0], render == 4)

    def test_background_prompts_error(self):
        renders = [np.full((32, 32), -1, dtype=np.int32)]
        with pytest.raises(TrackingError, match="prompts hit no instance"):
            oracle_track(center_query(0), render_index(renders))


class TestNoisyTrack:
    def test_zero_noise_is_identity(self):
        pattern = [True, True, True, False, True, True]
        pixels = render_index(block_renders(pattern))
        base = oracle_track(center_query(1), pixels)
        noised = noisy_track(center_query(1), pixels, NoiseSpec(), rng_seed=3)
        assert noised.views() == base.views()
        for t in base.views():
            np.testing.assert_array_equal(noised.masks[t], base.masks[t])
        assert noised.score == 1.0

    def test_full_drop_keeps_only_pivot(self):
        pattern = [True] * 6
        renders = block_renders(pattern)
        track = noisy_track(center_query(2), render_index(renders), NoiseSpec(p_drop=1.0), rng_seed=3)
        assert track.views() == [2]
        assert track.score == pytest.approx(1 / 6)

    def test_forgetting_after_gap_without_reprompt(self):
        # object visible 0-2, gone 3-12 (ten > window 7), visible 13-19
        pattern = [t <= 2 or t >= 13 for t in range(20)]
        renders = block_renders(pattern)
        track = noisy_track(center_query(0), render_index(renders), NoiseSpec(), rng_seed=0)
        # all post-gap masks are forgotten
        assert track.views() == [0, 1, 2]

    def test_reprompt_restores_after_gap(self):
        pattern = [t <= 2 or t >= 13 for t in range(20)]
        renders = block_renders(pattern)
        query = center_query(0, reprompts={13})
        track = noisy_track(query, render_index(renders), NoiseSpec(), rng_seed=0)
        assert track.views() == list(range(3)) + list(range(13, 20))

    def test_reproducible_per_seed(self):
        pixels = render_index(block_renders([True] * 8))
        spec = NoiseSpec(p_drop=0.3, r_morph=1, p_flip=0.2)
        a = noisy_track(center_query(0), pixels, spec, rng_seed=7)
        b = noisy_track(center_query(0), pixels, spec, rng_seed=7)
        assert a.views() == b.views()
        for t in a.views():
            np.testing.assert_array_equal(a.masks[t], b.masks[t])
        c = noisy_track(center_query(0), pixels, spec, rng_seed=8)
        assert a.views() != c.views() or any(
            not np.array_equal(a.masks[t], c.masks[t]) for t in a.views()
        )

    def test_noise_rates_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_drop=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(p_flip=-0.1)


def object_renders(boxes, pivot, other):
    """Renders of instance 0 filling ``boxes`` (r0, r1, c0, c1, fill), one per
    view, over a background of instance 1 where ``other`` is set; the query
    prompts the pivot's first object pixel."""
    renders = []
    for (r0, r1, c0, c1, fill), others in zip(boxes, other):
        render = np.where(others, 1, -1)
        render[r0:r1, c0:c1][fill] = 0
        renders.append(render)
    prompt = tuple(int(x) for x in np.argwhere(renders[pivot] == 0)[0])
    return renders, TrackerQuery(pivot, [prompt])


@st.composite
def noisy_cases(draw):
    height, width = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    views = draw(st.integers(1, 5))
    pivot = draw(st.integers(0, views - 1))
    boxes = []
    for t in range(views):
        r0 = draw(st.integers(0, height - 1))
        r1 = draw(st.integers(r0 + 1, height))
        c0 = draw(st.integers(0, width - 1))
        c1 = draw(st.integers(c0 + 1, width))
        fill = draw(arrays(bool, (r1 - r0, c1 - c0)))
        if t == pivot:
            fill.flat[draw(st.integers(0, fill.size - 1))] = True
        boxes.append((r0, r1, c0, c1, fill))
    other = [draw(arrays(bool, (height, width))) for _ in range(views)]
    renders, query = object_renders(boxes, pivot, other)
    noise = NoiseSpec(
        p_drop=draw(st.sampled_from([0.0, 0.5])),
        r_morph=draw(st.integers(0, 3)),
        p_flip=draw(st.sampled_from([0.0, 0.3, 1.0])),
        flip_band=draw(st.integers(0, 3)),
        memory_window=draw(st.integers(1, 3)),
    )
    return renders, query, noise, draw(st.integers(0, 2**32 - 1))


def corner_case(height, width, views, noise, seed, size=2):
    """Objects of ``size`` pixels square in each corner in turn, then one filling the image."""
    corners = [(0, 0), (0, width - size), (height - size, 0), (height - size, width - size)]
    boxes = [(r, r + size, c, c + size, np.ones((size, size), bool)) for r, c in corners[:views]]
    boxes.append((0, height, 0, width, np.ones((height, width), bool)))
    renders, query = object_renders(boxes, 0, [np.zeros((height, width), bool)] * len(boxes))
    return renders, query, noise, seed


class TestNoisyTrackBoundingBox:
    """noisy_track on each mask's bounding box equals the whole-image tracker."""

    @settings(max_examples=300, deadline=None)
    @given(noisy_cases())
    @example(corner_case(9, 11, 4, NoiseSpec(r_morph=3, p_flip=1.0, flip_band=3), 0))
    @example(corner_case(9, 11, 4, NoiseSpec(r_morph=1, p_flip=0.3, flip_band=2), 5))
    @example(corner_case(6, 6, 4, NoiseSpec(p_drop=0.5, r_morph=2, p_flip=1.0, flip_band=1), 1))
    # a one-pixel pivot eroded to empty (seed 0 draws erosion for view 0)
    @example(corner_case(8, 8, 1, NoiseSpec(r_morph=1, p_flip=0.3, flip_band=1), 0, size=1))
    def test_equals_whole_image_tracker(self, case):
        renders, query, noise, seed = case
        got = noisy_track(query, render_index(renders), noise, seed, track_id=3, seed_superpoint=4)
        want = reference_noisy_track(query, renders, noise, seed, track_id=3, seed_superpoint=4)
        assert list(got.masks) == list(want.masks)
        assert got.score == want.score
        for t in want.masks:
            assert got.masks[t].dtype == want.masks[t].dtype and got.masks[t].shape == want.masks[t].shape
            assert got.masks[t].tobytes() == want.masks[t].tobytes()

    @pytest.mark.ci_examples
    @settings(max_examples=examples(200), deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.data(),
        st.integers(0, 2**64 - 1),
    )
    def test_box_draw_equals_whole_image_draw(self, height, width, data, seed):
        # boxes as noisy_track cuts them: starts clipped at 0, stops possibly past the image
        r0 = data.draw(st.integers(0, height - 1))
        c0 = data.draw(st.integers(0, width - 1))
        box = np.s_[r0 : data.draw(st.integers(r0 + 1, height + 3)), c0 : data.draw(st.integers(c0 + 1, width + 3))]
        whole, part = np.random.default_rng(seed), np.random.default_rng(seed)
        want = whole.random((height, width))[box]
        got = tracks_module._box_uniforms(part, (height, width), box)
        assert got.tobytes() == want.tobytes()
        assert part.random(3).tobytes() == whole.random(3).tobytes()  # the draws after it are the same

    def test_cross_is_the_default_structure(self):
        from scipy import ndimage

        cross = tracks_module._CROSS
        assert cross.dtype == bool
        np.testing.assert_array_equal(cross, ndimage.generate_binary_structure(2, 1))

    def test_pivot_eroded_to_empty_is_kept(self):
        renders, query, noise, seed = corner_case(8, 8, 1, NoiseSpec(r_morph=1), 0, size=1)
        track = noisy_track(query, render_index(renders), noise, seed)
        assert query.pivot_view in track.masks and not track.masks[query.pivot_view].any()


class TestRle:
    def test_fixture_5_3_8(self):
        # 4x4 mask, runs "5 3 8": five zeros, three ones, eight zeros
        mask = decode_rle([5, 3, 8], 4, 4)
        assert np.flatnonzero(mask.reshape(-1)).tolist() == [5, 6, 7]

    def test_empty_and_full(self):
        assert encode_rle(np.zeros((3, 3), dtype=bool)) == [9]
        assert encode_rle(np.ones((3, 3), dtype=bool)) == [0, 9]

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to 7"):
            decode_rle([3, 4], 4, 4)

    @given(st.binary(min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_masks(self, raw):
        mask = np.frombuffer(raw, dtype=np.uint8).reshape(3, 4) % 2 == 0
        runs = encode_rle(mask)
        assert runs[0] >= 0 and all(r > 0 for r in runs[1:])
        np.testing.assert_array_equal(decode_rle(runs, 3, 4), mask)


    @given(arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)))
    @settings(max_examples=100, deadline=None)
    @example(np.ones((1, 1), dtype=bool))
    @example(np.zeros((1, 1), dtype=bool))
    @example(np.ones((4, 7), dtype=bool))
    @example(np.zeros((4, 7), dtype=bool))
    def test_round_trip_any_shape(self, mask):
        runs = encode_rle(mask)
        np.testing.assert_array_equal(decode_rle(runs, *mask.shape), mask)
        np.testing.assert_array_equal(decode_rle(np.array(runs, dtype=np.int64), *mask.shape), mask)

    @given(st.lists(st.integers(-5, 12), max_size=8), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    @example([2**70, 16 - 2**70], 4, 4)  # sums right, one run negative
    @example([2**62] * 4 + [16], 4, 4)  # an int64 sum wraps to 16
    def test_bad_runs_raise_value_error(self, runs, height, width):
        if sum(runs) != height * width:
            with pytest.raises(ValueError, match="sum to"):
                decode_rle(runs, height, width)
        elif any(r < 0 for r in runs):
            with pytest.raises(ValueError, match="nonnegative"):
                decode_rle(runs, height, width)
        else:
            mask = decode_rle(runs, height, width)
            assert mask.shape == (height, width)
            assert int(mask.sum()) == sum(runs[1::2])


# tokens of a track line after its fixed fields: good and bad view entries and runs
_LINE_TOKENS = st.one_of(
    st.integers(-3, 20).map(str),
    st.sampled_from(
        ["0:16", "1:0", "2:", ":3", "0:5", "1:2:3", "x", "1.5", "-0", "+4", "1_0", "9" * 25, "0:" + "9" * 25, "9" * 25 + ":16",
         "3:4:5", "3:", "+", "-", str(2**63 - 1), str(2**63), "0:" + str(2**63), str(2**63 - 1) + ":16", str(2**63) + ":16"]
    ),
    st.text(alphabet="0123456789:-+x.", min_size=1, max_size=6),
)


@st.composite
def _entry_tokens(draw):
    """Whole view entries of a 4 x 4 image, whose runs sum to 16, over views
    that may repeat or come out of order; one token may be swapped for any
    other."""
    tokens = []
    for view in draw(st.lists(st.integers(0, 5), max_size=5)):
        cuts = sorted(draw(st.lists(st.integers(0, 16), max_size=5)))
        runs = np.diff([0, *cuts, 16]).tolist()
        tokens += [f"{view}:{runs[0]}", *map(str, runs[1:])]
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_LINE_TOKENS)
    return tokens


class TestTrackLineFuzz:
    @given(
        st.sampled_from(["0 1.0 0", "0 1.0 0 -1", "3 0.5 2 7", "1 nan 0", "x 1 0"]),
        st.lists(_LINE_TOKENS, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    @example("0 1.0 0 -1", ["0:16"])
    @example("0 1.0 0 -1", ["0:5", "3", "8", "2:16"])
    @example("0 1.0 0", ["0:5", "3", "x8"])
    def test_lines_parse_or_raise_data_error(self, tmp_path_factory, fields, tokens):
        path = tmp_path_factory.getbasetemp() / "fuzz.tracks"
        path.write_text("tracks 1 4 4\n" + " ".join([fields, *tokens]) + "\n")
        try:
            tracks = read_tracks(path)
        except DataError:
            return
        assert len(tracks) == 1
        assert all(mask.shape == (4, 4) and mask.dtype == bool for mask in tracks[0].masks.values())

    @pytest.mark.ci_examples
    @given(st.one_of(st.lists(_LINE_TOKENS, max_size=12), _entry_tokens()), st.sampled_from([" ", "  ", "\t", " \t "]),
           st.booleans(), st.sampled_from(["", " ", "  \t"]))
    @settings(max_examples=examples(300), deadline=None)
    @example(["0:5", "3", "x8", "1:9"], " ", True, "")  # the bad run, not the later entry, is named
    @example(["0:5", "1:16", "x"], " ", True, "")  # the first entry's bad sum comes before the bad run
    @example(["0:" + "9" * 25], " ", True, "")  # beyond int64: the token loop's message
    @example(["9" * 25 + ":16"], " ", True, "")  # a view id beyond int64 is a data error as the file is read
    @example(["1:16", "1:5", "x"], " ", True, "")  # a view listed twice is named before the later entry's bad run
    @example(["9" * 25 + ":16", "9" * 25 + ":16"], " ", True, "")  # twice, and beyond int64
    @example(["0:" + str(2**63)], " ", True, "")  # a run numpy would read as int64's limit
    @example(["0:16", str(2**63) + ":16"], " ", True, "")  # a view id numpy would read as int64's limit
    @example([str(2**63 - 1) + ":16", "2:16"], " ", True, "")  # the limit itself is a view id
    @example(["0:0", str(2**63 - 1), "9223372036854775793"], " ", True, "")  # runs at the limit whose int64 sum wraps to 16
    @example(["3:4:5"], " ", True, "")  # two colons in one token
    @example(["3:4:16"], " ", True, "")  # and numbers that would make a full mask of view 4
    @example(["0", "0:16"], " ", True, "")  # a run before any view entry, which would make a full mask of view 0
    @example(["0:16", "3:4:5"], " ", True, "")
    @example(["3:", "4:16"], " ", True, "")  # an entry without runs before the next entry
    @example(["0:16", "3:"], " ", True, "")  # and at the line's end
    @example(["0:16", "1:16", "+"], " ", True, "")  # numpy reads a lone sign as 0
    @example(["0:5", "3", "8", "2:0", "16"], "\t", True, "")  # tabs
    @example(["0:5", "3", "8", "2:0", "16"], "  ", False, "")  # repeated spaces, no seed field
    @example(["2:16", "0:4", "12"], " \t ", False, "")  # views out of order
    @example(["0:5", "3", "8", "2:0", "16"], " ", True, "  ")  # trailing blanks
    def test_batched_numbers_match_token_loop(self, tmp_path_factory, tokens, blank, seed_field, trailing):
        try:
            want = {t: runs.tobytes() for t, runs in reference_parse_views(tokens, 4, 4, "p", 2).items()}
        except DataError as exc:
            want = str(exc)
        if isinstance(want, dict) and any(not -(2**63) <= t < 2**63 for t in want):
            want = "p: line 2: a view id beyond int64"  # the one case the token loop accepts
        packed = _packed_line(" ".join(tokens), 16)
        if packed is not None:  # a line the one conversion accepts gives the token loop's runs
            views, runs, offsets = packed
            assert want == {t: runs[offsets[i] : offsets[i + 1]].tobytes() for i, t in enumerate(views.tolist())}

        # the same entries on a whole line, single-spaced and between the other blanks and trailing
        # blanks, with the seed field or, where the first entry could not be read as one, without it
        if seed_field or tokens and ":" in tokens[0]:
            path = tmp_path_factory.getbasetemp() / "line.tracks"
            pivot = next(iter(want), 0) if isinstance(want, dict) else 0
            fields = ["0", "1.0", str(pivot), *["-1"] * seed_field, *tokens]
            for text in (" ".join(fields), blank.join(fields) + trailing):
                path.write_text("tracks 1 4 4\n" + text + "\n")
                try:
                    (track,) = read_tracks(path)
                    line = {t: track.masks[t].tobytes() for t in track.masks}
                except DataError as exc:
                    line = str(exc).replace(str(path), "p", 1)
                if isinstance(want, str):
                    assert line == want
                elif not want:
                    assert line == "p: line 2: pivot view must be present in the track"
                else:
                    assert line == {t: decode_rle(np.frombuffer(runs, np.int64), 4, 4).tobytes() for t, runs in want.items()}

    def test_runs_whose_int64_sum_wraps_are_rejected(self, tmp_path):
        # five runs of 2**62, none beyond the image's 2**62 pixels, sum to 2**62 + 2**64: 2**62 in int64
        path = tmp_path / "wrap.tracks"
        path.write_text(f"tracks 1 {2**31} {2**31}\n0 1.0 0 -1 0:" + " ".join([str(2**62)] * 5) + "\n")
        with pytest.raises(DataError, match=f"line 2: run lengths sum to {5 * 2**62}, expected {2**62}"):
            read_tracks(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 1.0 0 -1 0:5 3 x8", "bad run length 'x8'"),
            ("0 1.0 0 -1 0:5 3 8 y:16", "bad view entry 'y:16'"),
            ("0 1.0 0 -1 0:5 3 8 1:16 2:4", "line 2: run lengths sum to 4"),
            ("0 1.0 0 -1 0:5 -3 14", "nonnegative"),
            ("0 1.0 2 -1 2:0 8 8 3:0 8 8 2:0 16", "line 2: view 2 listed twice"),
        ],
    )
    def test_errors_name_the_bad_token(self, tmp_path, line, message):
        path = tmp_path / "bad.tracks"
        path.write_text("tracks 1 4 4\n" + line + "\n")
        with pytest.raises(DataError, match=message):
            read_tracks(path)


class TestTrackFiles:
    def _sample_tracks(self):
        pixels = render_index(block_renders([True, True, False, True]))
        a = oracle_track(center_query(0), pixels, track_id=0, seed_superpoint=3)
        b = noisy_track(center_query(1), pixels, NoiseSpec(p_drop=0.5), 11, track_id=1, seed_superpoint=5)
        return [a, b]

    def test_round_trip(self, tmp_path):
        tracks = self._sample_tracks()
        path = tmp_path / "t.tracks"
        write_tracks(tracks, path)
        back = read_tracks(path)
        assert len(back) == len(tracks)
        for orig, loaded in zip(tracks, back):
            assert loaded.track_id == orig.track_id
            assert loaded.score == orig.score
            assert loaded.pivot_view == orig.pivot_view
            assert loaded.seed_superpoint == orig.seed_superpoint
            assert loaded.views() == orig.views()
            for t in orig.views():
                np.testing.assert_array_equal(loaded.masks[t], orig.masks[t])

    def test_empty_track_list_header_only(self, tmp_path):
        path = tmp_path / "empty.tracks"
        write_tracks([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("tracks 1")
        assert read_tracks(path) == []

    def test_handwritten_fixture(self, tmp_path):
        path = tmp_path / "hand.tracks"
        path.write_text("tracks 1 4 4\n3 0.75 2 -1 2:5 3 8\n")
        (track,) = read_tracks(path)
        assert track.track_id == 3
        assert track.score == 0.75
        assert track.pivot_view == 2
        assert np.flatnonzero(track.masks[2].reshape(-1)).tolist() == [5, 6, 7]

    def test_seed_field_optional_for_external_files(self, tmp_path):
        path = tmp_path / "external.tracks"
        path.write_text("tracks 1 4 4\n3 0.75 2 2:5 3 8\n")
        (track,) = read_tracks(path)
        assert track.seed_superpoint == -1
        assert np.flatnonzero(track.masks[2].reshape(-1)).tolist() == [5, 6, 7]

    def test_tabs_and_repeated_spaces_read_as_single_spaces(self, tmp_path):
        # numpy reads a tab as a blank: one conversion of the first line's numbers, counting its
        # spaces, would take view 1's last run, 0, as view 0's first, and fill view 0
        path = tmp_path / "blanks.tracks"
        path.write_text("tracks 1 1 5\n0 1.0 1 -1 1:5\t0 0:5  2:5\n0 1.0 1 -1 1:5 0 0:5 2:5\n")
        blanks, single = read_tracks(path)
        assert blanks.views() == single.views() == [0, 1, 2]
        for t in single.views():
            np.testing.assert_array_equal(blanks.masks[t], single.masks[t])
        assert not single.masks[0].any()

    def test_malformed_rle_names_line(self, tmp_path):
        path = tmp_path / "bad.tracks"
        path.write_text("tracks 1 4 4\n0 1.0 0 -1 0:5 3 8\n1 1.0 0 -1 0:5 3 9\n")
        with pytest.raises(DataError, match="line 3"):
            read_tracks(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.tracks"
        path.write_text("0 1.0 0 -1 0:16\n")
        with pytest.raises(DataError, match="line 1"):
            read_tracks(path)

    def test_pivot_must_be_present(self):
        with pytest.raises(ValueError):
            MaskTrack(0, 1.0, {1: np.zeros((2, 2), dtype=bool)}, pivot_view=0, seed_superpoint=0)


@st.composite
def same_shape_masks(draw):
    """One to four boolean masks of one shape, each side 1 to 9."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return [draw(arrays(bool, shape)) for _ in range(draw(st.integers(1, 4)))]


class TestLazyMasks:
    """A track read from a file holds run lengths and decodes one view per index."""

    @given(same_shape_masks())
    @settings(max_examples=100, deadline=None)
    @example([np.ones((1, 1), dtype=bool)])
    @example([np.zeros((1, 1), dtype=bool)])
    @example([np.ones((4, 7), dtype=bool), np.zeros((4, 7), dtype=bool)])
    def test_file_round_trip_keeps_every_mask(self, tmp_path_factory, masks):
        path = tmp_path_factory.getbasetemp() / "lazy.tracks"
        track = MaskTrack(0, 1.0, dict(enumerate(masks)), pivot_view=0, seed_superpoint=2)
        write_tracks([track], path)
        (loaded,) = read_tracks(path)
        assert loaded.views() == track.views()
        for t, mask in enumerate(masks):
            got = loaded.masks[t]
            assert (got.shape, got.dtype) == (mask.shape, mask.dtype)
            assert got.tobytes() == mask.tobytes()

    def test_keys_and_lifting_decode_nothing(self, tmp_path, monkeypatch):
        renders = block_renders([True] * 4)
        dense = oracle_track(center_query(1), render_index(renders), track_id=0, seed_superpoint=0)
        path = tmp_path / "spy.tracks"
        write_tracks([dense], path)
        decoded, checked = [], []
        real_decode, real_check = tracks_module._repeat_runs, tracks_module._check_runs
        monkeypatch.setattr(tracks_module, "_repeat_runs", lambda runs, h, w: decoded.append(1) or real_decode(runs, h, w))
        monkeypatch.setattr(tracks_module, "_check_runs", lambda runs, h, w: checked.append(1) or real_check(runs, h, w))

        (track,) = read_tracks(path)  # MaskTrack.__post_init__ checks the pivot with `in`
        assert 1 in track.masks and 7 not in track.masks
        assert len(track.masks) == 4 and track.views() == [0, 1, 2, 3] and list(track.masks) == [0, 1, 2, 3]
        assert decoded == [] and checked == []  # the line's runs are checked at once, not view by view

        pts = tight_cluster(4)
        pixels = pixel_index(single_superpoint_partition(pts), pts, visible_pattern_frames([True] * 4))
        lazy = visibility_matrix(track, pixels)
        assert decoded == []  # lifting counts each view's runs as they are
        eager = visibility_matrix(dense, pixels)
        for name in ("views", "rows", "in_counts", "total_counts"):
            np.testing.assert_array_equal(getattr(lazy, name), getattr(eager, name))
        np.testing.assert_array_equal(track.masks[2], dense.masks[2])
        assert len(decoded) == 1 and checked == []  # indexing decodes the view, and does not check its runs again

    @pytest.mark.parametrize("runs, message", [("5 3 7", "run lengths sum to 15, expected 16"),
                                               ("5 -3 14", "run lengths must be nonnegative")])
    def test_bad_runs_fail_at_read_tracks(self, tmp_path, runs, message):
        """Masks decode unchecked, so a bad view must stop the read itself."""
        path = tmp_path / "bad.tracks"
        path.write_text(f"tracks 1 4 4\n0 1.0 0 -1 0:16\n1 1.0 1 -1 0:16 1:{runs}\n")
        with pytest.raises(DataError) as info:
            read_tracks(path)
        assert str(info.value) == f"{path}: line 3: {message}"
