"""Round loop, dedup, file-tracker mode, and config handling."""

import gc
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seglift import cli, pipeline
from seglift.errors import DataError
from seglift.evaluation import mask_iou
from seglift.geometry import PointCloud
from seglift.optimize import VisibilityMatrix
from seglift.superpoints import SuperpointPartition
from seglift.pipeline import (
    STRATEGY_NAMES,
    PipelineConfig,
    parse_strategy,
    prepare_state,
    read_proposal_points,
    read_proposals,
    run_pipeline,
    run_round,
    run_rounds,
    subsample_views,
    write_proposal_points,
    write_proposals,
)
from seglift.tracks import MaskTrack, NoiseSpec, TrackerQuery, noisy_track, oracle_track, read_tracks, write_tracks

from conftest import examples, make_frame


class TestSubsampleViews:
    def test_interval_of_ten(self):
        views = subsample_views(list(range(100)), 10)
        assert views == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]

    def test_stride_one_keeps_all(self):
        assert subsample_views(list(range(7)), 1) == list(range(7))

    def test_stride_beyond_length(self):
        assert subsample_views(list(range(5)), 50) == [0]

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            subsample_views([1, 2], 0)


class TestConfig:
    def test_defaults_match_contract(self):
        config = PipelineConfig()
        assert config.tau == 0.5
        assert config.depth_tolerance == 0.1
        assert config.view_stride == 10
        assert config.kappa == 8
        assert config.dedup_iou == 0.9
        assert config.strategy == "dp"

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(tau=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(tau=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(view_stride=0)
        with pytest.raises(ValueError):
            PipelineConfig(strategy="magic")

    def test_strategy_parsing(self):
        assert parse_strategy("dp").__name__ == "dp_refine"
        assert parse_strategy("all_lifted").__name__ == "all_lifted"
        assert parse_strategy("top_k:5") is not None
        for spelling in ("top_k:0", "top_k:5)", "top_k(5", "top_k(5)", "top_k5"):
            with pytest.raises(ValueError):
                parse_strategy(spelling)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau = 0.4\nview_stride = 5\nstrategy = top_k:3\n# comment\n\n")
        config = PipelineConfig.from_file(path)
        assert config.tau == 0.4
        assert config.view_stride == 5
        assert config.strategy == "top_k:3"
        assert config.kappa == 8  # untouched default

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tau 0.4\n")
        with pytest.raises(DataError, match="line 1"):
            PipelineConfig.from_file(bad)
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("banana = 3\n")
        with pytest.raises(DataError, match="banana"):
            PipelineConfig.from_file(unknown)


def point_mask(partition, prop):
    """A proposal's dense point mask: the points of its superpoints."""
    return np.isin(partition.assignment, prop.superpoint_ids)


def quick_config(**kwargs):
    base = dict(samples_per_round=64, view_stride=10)
    base.update(kwargs)
    return PipelineConfig(**base)


class TestRunRound:
    def test_single_round_emits_proposals_and_consumes_seeds(self, small_scene):
        from seglift.optimize import dp_refine

        config = quick_config(samples_per_round=3)
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, config)
        free = np.ones(state.partition.count, dtype=bool)
        proposals, stats = run_round(state, free, "oracle", dp_refine, 0, 0)
        assert stats.seeds_used == 3
        assert stats.proposals_emitted == len(proposals)
        # every emitted proposal nails some ground-truth object exactly
        gt = small_scene.cloud.gt_instance
        for prop in proposals:
            best = max(mask_iou(point_mask(state.partition, prop), gt == g) for g in np.unique(gt[gt >= 0]))
            assert best == 1.0
        # attempted seeds and proposal members are no longer free
        consumed = int((~free).sum())
        assert consumed >= 3
        for prop in proposals:
            assert not free[prop.superpoint_ids].any()

    def test_empty_round_output_is_legal(self, small_scene):
        from seglift.optimize import dp_refine

        config = quick_config(samples_per_round=1)
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, config)
        # restrict the pool to one wall superpoint: its prompts hit no
        # instance, so the round consumes the seed without a proposal
        gt = small_scene.cloud.gt_instance
        free = np.zeros(state.partition.count, dtype=bool)
        for sp in range(state.partition.count):
            members = state.partition.members[sp]
            if np.all(gt[members] == -1):
                free[sp] = True
                break
        assert free.any()
        proposals, stats = run_round(state, free, "oracle", dp_refine, 0, 0)
        assert proposals == []
        assert stats.unliftable_seeds == 1
        assert not free.any()


class TestRunPipeline:
    def test_oracle_recovers_all_objects(self, small_scene):
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(),
            tracker="oracle",
            instances=small_scene.instances,
        )
        gt = small_scene.cloud.gt_instance
        object_ids = np.unique(gt[gt >= 0])
        assert len(result.proposals) == len(object_ids)
        for oid in object_ids:
            best = max(mask_iou(point_mask(result.partition, p), gt == oid) for p in result.proposals)
            assert best >= 0.9

    def test_proposals_are_superpoint_unions(self, small_scene):
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(),
            tracker="oracle",
            instances=small_scene.instances,
        )
        assignment = result.partition.assignment
        for prop in result.proposals:
            rebuilt = np.isin(assignment, prop.superpoint_ids)
            np.testing.assert_array_equal(np.flatnonzero(rebuilt), result.partition.point_ids(prop.superpoint_ids))
            assert prop.point_count == np.count_nonzero(rebuilt)
            assert len(prop.superpoint_ids) > 0

    def test_deterministic_across_reruns(self, small_scene):
        runs = []
        for _ in range(2):
            result = run_pipeline(
                small_scene.cloud,
                small_scene.frames,
                quick_config(noise_p_flip=0.2),
                tracker="noisy",
                instances=small_scene.instances,
            )
            runs.append(result)
        a, b = runs
        assert len(a.proposals) == len(b.proposals)
        for pa, pb in zip(a.proposals, b.proposals):
            np.testing.assert_array_equal(point_mask(a.partition, pa), point_mask(b.partition, pb))
            assert pa.score == pb.score and pa.objective == pb.objective

    def test_dedup_collapses_same_object(self, small_scene):
        # tiny rounds force several seeds of the same object across rounds
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(samples_per_round=2),
            tracker="oracle",
            instances=small_scene.instances,
        )
        gt = small_scene.cloud.gt_instance
        assert len(result.proposals) == len(np.unique(gt[gt >= 0]))
        for i, a in enumerate(result.proposals):
            for b in result.proposals[i + 1 :]:
                assert mask_iou(point_mask(result.partition, a), point_mask(result.partition, b)) <= 0.9

    def test_one_seed_per_round_leaves_nothing_free(self, small_scene, monkeypatch):
        # rounds run until every superpoint is consumed, each round taking at least its one seed
        frees = []

        def spy(state, free, *args):
            frees.append(free)
            return run_round(state, free, *args)

        monkeypatch.setattr(pipeline, "run_round", spy)
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(samples_per_round=1),
            tracker="oracle",
            instances=small_scene.instances,
        )
        assert 1 < len(result.rounds) <= result.superpoint_count
        assert all(stats.seeds_used == 1 for stats in result.rounds)
        assert not frees[-1].any()

    def test_rounds_consume_failed_seeds(self):
        # a scene whose second cluster is invisible in every frame: its seeds
        # must be consumed without proposals and the loop must terminate; at
        # 80 points the graph cut splits each cluster into two superpoints
        rng = np.random.default_rng(0)
        visible = rng.uniform(-0.05, 0.05, size=(80, 3)) + (0.0, 0.0, 1.0)
        hidden = rng.uniform(-0.05, 0.05, size=(80, 3)) + (5.0, 5.0, 5.0)
        pts = np.concatenate([visible, hidden])
        cloud = PointCloud(pts, np.array([0] * 80 + [-1] * 80))
        depth = np.full((32, 32), 1.0)
        frames = [make_frame(depth, cx=15.5, cy=15.5) for _ in range(3)]
        renders = []
        for frame in frames:
            from seglift.geometry import project_points

            ps = project_points(visible, frame, 0.1)
            render = np.full((32, 32), -1, dtype=np.int32)
            render[ps.rows, ps.cols] = 0
            renders.append(render)
        config = PipelineConfig(view_stride=1, samples_per_round=8, kappa=1)
        result = run_pipeline(cloud, frames, config, tracker="oracle", instances=renders)
        assert sum(r.unliftable_seeds for r in result.rounds) > 0
        assert sum(r.no_pivot for r in result.rounds) > 0
        gt_mask = cloud.gt_instance == 0
        assert any(mask_iou(point_mask(result.partition, p), gt_mask) > 0.9 for p in result.proposals)

    def test_deduped_counted_in_the_round_of_each_removed_proposal(self, small_scene, monkeypatch):
        emitted = []

        def spy(*args):
            result = run_round(*args)
            emitted.extend(result[0])
            return result

        monkeypatch.setattr(pipeline, "run_round", spy)
        config = quick_config(samples_per_round=3, dedup_iou=0.05)
        result = run_pipeline(small_scene.cloud, small_scene.frames, config, "oracle", small_scene.instances)
        assert len(result.rounds) > 1 and len(result.proposals) < len(emitted)
        kept = {id(p) for p in result.proposals}
        for stats in result.rounds:
            removed = [p for p in emitted if p.round_index == stats.round_index and id(p) not in kept]
            assert stats.deduped == len(removed)
            assert stats.unliftable_seeds + stats.proposals_emitted == stats.seeds_used

    def test_frame_mismatch_rejected_before_work(self, small_scene):
        frames = list(small_scene.frames)
        bad = make_frame(np.zeros((16, 16)))
        frames[-1] = bad
        with pytest.raises(DataError, match="image size"):
            run_pipeline(
                small_scene.cloud,
                frames,
                PipelineConfig(view_stride=1),
                tracker="oracle",
                instances=small_scene.instances,
            )

    def test_oracle_requires_instances(self, small_scene):
        with pytest.raises(DataError, match="instance renders"):
            run_pipeline(small_scene.cloud, small_scene.frames, quick_config(), tracker="oracle")

    def test_proposals_sorted_by_score_then_provenance(self, small_scene):
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(noise_p_drop=0.4, samples_per_round=8),
            tracker="noisy",
            instances=small_scene.instances,
        )
        keys = [(-p.score, p.round_index, p.seed_superpoint) for p in result.proposals]
        assert keys == sorted(keys)
        assert [p.proposal_id for p in result.proposals] == list(range(len(result.proposals)))


class TestSharedState:
    def test_one_state_serves_both_trackers(self, small_scene):
        config = quick_config(samples_per_round=4, noise_p_flip=0.3, noise_r_morph=2)
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, config)
        objectives = {}
        for tracker in ("oracle", "noisy"):
            shared = run_rounds(state, config.strategy, tracker)
            fresh = run_pipeline(
                small_scene.cloud, small_scene.frames, config, tracker=tracker, instances=small_scene.instances
            )
            assert shared.rounds == fresh.rounds
            assert len(shared.proposals) == len(fresh.proposals)
            for a, b in zip(shared.proposals, fresh.proposals):
                np.testing.assert_array_equal(point_mask(shared.partition, a), point_mask(fresh.partition, b))
                np.testing.assert_array_equal(a.superpoint_ids, b.superpoint_ids)
                assert (a.score, a.objective, a.seed_superpoint, a.pivot_view, a.round_index, a.proposal_id) == (
                    b.score, b.objective, b.seed_superpoint, b.pivot_view, b.round_index, b.proposal_id
                )
            objectives[tracker] = [p.objective for p in shared.proposals]
        assert objectives["oracle"] != objectives["noisy"]
        assert {tracker for tracker, _, _ in state.lifted} == {"oracle", "noisy"}


class TestNarrowRenders:
    """prepare_state keeps each working instance render in the narrowest
    signed integer type that holds its ids; the trackers read the same
    masks from it as from the int32 renders."""

    def test_scene_ids_fit_int8(self, small_scene):
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, quick_config())
        assert {render.dtype for render in state.instances} == {np.dtype(np.int8)}

    def test_trackers_equal_on_int32_renders(self, small_scene):
        # ids on both sides of the int8 and int16 limits, and two views that are all -1
        views = [(5, 127), (), (128, 200), (300, 32767), (32768, 40000), (127, 40000)]
        ids = sorted({i for view in views for i in view})
        height, width = small_scene.frames[0].height, small_scene.frames[0].width
        renders = []
        for view in views:
            render = np.full((height, width), -1, dtype=np.int32)
            for i in view:  # one 3-row band per id, the same rows in every view
                render[3 * ids.index(i) : 3 * ids.index(i) + 3, 2:-2] = i
            renders.append(render)
        frames = small_scene.frames[: len(views)]
        state = prepare_state(small_scene.cloud, frames, renders, quick_config(view_stride=1))
        assert [render.dtype for render in state.instances] == [np.dtype(t) for t in "i1 i1 i2 i2 i4 i4".split()]
        for narrow, wide in zip(state.instances, renders):
            np.testing.assert_array_equal(narrow, wide)
        noise = NoiseSpec(p_drop=0.3, r_morph=1, p_flip=0.3, memory_window=2)
        for j, i in enumerate(ids):
            pivot = next(t for t, view in enumerate(views) if i in view)
            query = TrackerQuery(pivot, [(3 * j + 1, width // 2)])
            for track in (
                lambda r: oracle_track(query, r, track_id=j),
                lambda r: noisy_track(query, r, noise, rng_seed=j, track_id=j),
            ):
                got, want = track(state.instances), track(renders)
                assert list(got.masks) == list(want.masks) and got.score == want.score
                for t in want.masks:
                    np.testing.assert_array_equal(got.masks[t], want.masks[t])


@st.composite
def lifted_matrices(draw):
    """Full visibility matrices in which columns that no row marks, and
    rows that mark nothing, are common."""
    views = draw(st.integers(0, 6))
    count = draw(st.integers(1, 12))
    seen = np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)))

    def grid(elements):
        return np.array(draw(st.lists(elements, min_size=views * count, max_size=views * count))).reshape(views, count)

    inside = grid(st.integers(0, 3)).astype(np.int64)
    total = inside + grid(st.integers(0, 3)).astype(np.int64)
    rows = grid(st.booleans()).astype(bool) & seen
    return VisibilityMatrix(np.arange(views), rows, inside, total)


class TestNarrowMemo:
    """A lifted track keeps only its candidate columns; refined on them and
    scattered back, every strategy gives the full matrix's selection."""

    @settings(max_examples=examples(100), deadline=None)
    @given(
        full=lifted_matrices(),
        name=st.sampled_from(sorted(set(STRATEGY_NAMES) | set(cli.ABLATION_STRATEGIES))),
        k=st.integers(1, 8),
    )
    @example(  # no candidates, and one view that sees nothing
        full=VisibilityMatrix(np.arange(1), np.zeros((1, 3), bool), np.ones((1, 3)), np.ones((1, 3))),
        name="dp",
        k=1,
    )
    @example(  # a track with no views
        full=VisibilityMatrix(np.arange(0), np.zeros((0, 4), bool), np.zeros((0, 4)), np.zeros((0, 4))),
        name="top_k:<k>",
        k=2,
    )
    def test_narrow_refine_equals_full(self, full, name, k):
        refine = parse_strategy(name.replace("<k>", str(k)))
        count = full.superpoint_count
        partition = SuperpointPartition.from_assignment(np.arange(2 * count) % count, np.zeros((2 * count, 3)))
        state = SimpleNamespace(config=PipelineConfig(), pixels=None, partition=partition)
        with mock.patch.object(pipeline, "visibility_matrix", return_value=full):
            lifted = pipeline._lift(state, SimpleNamespace(track_id=3, score=0.5, pivot_view=0, seed_superpoint=1))
        np.testing.assert_array_equal(lifted.superpoints, full.candidates())
        assert lifted.vis.rows.shape == (full.view_count, len(full.candidates()))
        want = refine(full)
        got = pipeline._refine(state, lifted, refine, round_index=0)
        if not want.theta.any():
            assert got is None
            return
        np.testing.assert_array_equal(got.superpoint_ids, want.selected())
        np.testing.assert_array_equal(point_mask(partition, got), want.theta[state.partition.assignment])
        assert got.objective == want.objective

    def test_memo_holds_candidate_columns(self, small_scene):
        """At stride 1 a track spans 40 views; the memo holds 17 B per view
        and candidate (two int64 counts and a bool), where every superpoint's
        column would take about ten times as much on this scene."""
        state = prepare_state(small_scene.cloud, small_scene.frames, small_scene.instances, quick_config(view_stride=1))
        run_rounds(state, "dp")
        state.lifted.clear()  # the first run's one-time allocations are not the memo's
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_rounds(state, "dp")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        lifted = [entry for entry in state.lifted.values() if not isinstance(entry, str)]
        assert lifted
        # 8 B per view index and candidate id; 1 KB per entry for its key, slot and Python objects
        shapes = [(e.vis.view_count, len(e.vis.candidates())) for e in lifted]
        bound = sum(17 * views * candidates + 8 * (views + candidates) for views, candidates in shapes)
        bound += 1024 * len(state.lifted)
        assert sum(17 * e.vis.view_count * state.partition.count for e in lifted) > bound  # full columns cannot pass
        assert held < bound


class TestFileTracker:
    def test_single_track_file_yields_one_proposal(self, small_scene, tmp_path):
        oracle = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(),
            tracker="oracle",
            instances=small_scene.instances,
        )
        # re-derive a genuine track from the oracle run: object 0's masks
        working = subsample_views(small_scene.instances, 10)
        masks = {t: inst == 0 for t, inst in enumerate(working) if np.any(inst == 0)}
        track = MaskTrack(0, 0.8, masks, min(masks), -1)
        path = tmp_path / "one.tracks"
        write_tracks([track], path)
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(),
            tracker="file",
            tracks=read_tracks(path),
        )
        assert len(result.proposals) == 1
        prop = result.proposals[0]
        assert prop.score == 0.8
        gt_mask = small_scene.cloud.gt_instance == 0
        assert mask_iou(point_mask(result.partition, prop), gt_mask) >= 0.9

    def test_empty_track_counts_as_empty_selection(self, small_scene):
        shape = (small_scene.frames[0].height, small_scene.frames[0].width)
        empty = MaskTrack(0, 0.5, {0: np.zeros(shape, dtype=bool)}, 0, -1)
        result = run_pipeline(small_scene.cloud, small_scene.frames, quick_config(), tracker="file", tracks=[empty])
        assert result.proposals == []
        (stats,) = result.rounds
        assert (stats.seeds_used, stats.proposals_emitted) == (1, 0)
        assert (stats.no_pivot, stats.prompt_on_background, stats.empty_selection) == (0, 0, 1)

    def test_dimension_mismatch_names_track_and_view(self, small_scene):
        bad = MaskTrack(7, 1.0, {2: np.ones((8, 8), dtype=bool)}, 2, -1)
        with pytest.raises(DataError, match=r"track 7 view 2"):
            run_pipeline(
                small_scene.cloud,
                small_scene.frames,
                quick_config(),
                tracker="file",
                tracks=[bad],
            )

    def test_view_index_out_of_range(self, small_scene):
        shape = (small_scene.frames[0].height, small_scene.frames[0].width)
        bad = MaskTrack(3, 1.0, {99: np.ones(shape, dtype=bool)}, 99, -1)
        with pytest.raises(DataError, match="track 3 view 99"):
            run_pipeline(
                small_scene.cloud,
                small_scene.frames,
                quick_config(),
                tracker="file",
                tracks=[bad],
            )


class TestProposalFiles:
    def test_round_trip(self, small_scene, tmp_path):
        result = run_pipeline(
            small_scene.cloud,
            small_scene.frames,
            quick_config(),
            tracker="oracle",
            instances=small_scene.instances,
        )
        ppath = tmp_path / "proposals.jsonl"
        write_proposals(result.proposals, ppath)
        records = read_proposals(ppath)
        assert [r["id"] for r in records] == [p.proposal_id for p in result.proposals]
        assert all(
            r["point_count"] == p.point_count for r, p in zip(records, result.proposals)
        )
        xpath = tmp_path / "points.txt"
        write_proposal_points(result.proposals, result.partition, xpath)
        ids = read_proposal_points(xpath, len(small_scene.cloud))
        for prop in result.proposals:
            np.testing.assert_array_equal(ids[prop.proposal_id], np.flatnonzero(point_mask(result.partition, prop)))

    def test_bad_point_indices_rejected(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("0 5 6 999\n")
        with pytest.raises(DataError, match="out of range"):
            read_proposal_points(path, 10)


_DIGITS = st.text("0123456789", min_size=1, max_size=25)
_TOKENS = st.one_of(
    _DIGITS,
    st.builds(lambda sign, digits: sign + digits, st.sampled_from(["-", "+", "--"]), _DIGITS),
    st.integers(18, 4400).map(lambda n: "9" * n),  # beyond int64, float and the 4300-digit str limit
    st.integers(1, 5000).map(lambda n: "[" * n),
    st.sampled_from(['{', '}', '[', ']', ',', ':', '"id"', '"score"', '"0"', "0.5", "1e400", "-0",
                     "NaN", "Infinity", "true", "null", '{"id": 0, "score": 1']),
)
_LINES = st.one_of(
    st.text(max_size=40),
    st.text(st.characters(max_codepoint=127), max_size=40),
    st.builds(lambda sep, tokens: sep.join(tokens), st.sampled_from(["", " "]), st.lists(_TOKENS, max_size=8)),
    st.builds('{{"id": {}, "score": {}}}'.format, _TOKENS, _TOKENS),
)


class TestProposalFileFuzz:
    """Any text either parses or raises DataError, never another exception."""

    @given(st.lists(_LINES, max_size=4))
    @settings(max_examples=300, deadline=None)
    @example(['{"id": 0, "score": ' + "9" * 400 + "}"])  # an int beyond the float range
    @example(['{"id": ' + "9" * 4400 + ', "score": 1}'])  # beyond the int str-conversion limit
    @example(["[" * 100_000])
    def test_proposals_parse_or_raise_data_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            records = read_proposals(path)
        except DataError:
            return
        for record in records:
            assert type(record["id"]) is int and math.isfinite(float(record["score"]))

    @given(st.lists(_LINES, max_size=4))
    @settings(max_examples=300, deadline=None)
    @example(["0 99999999999999999999"])
    @example(["0 " + "9" * 4400])
    @example(["+1 -0 +9 0"])
    def test_points_parse_or_raise_data_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.points"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            point_ids = read_proposal_points(path, 10)
        except DataError:
            return
        for ids in point_ids.values():
            assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0) and np.all((ids >= 0) & (ids < 10))
