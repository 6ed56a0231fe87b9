"""Generator and renderer self-consistency checks."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seglift import synth
from seglift.errors import DataError
from seglift.geometry import PointCloud, check_extrinsics, project_points
from seglift.pipeline import PipelineConfig, prepare_state, subsample_views
from seglift.synth import (
    Scene,
    SceneSpec,
    build_scene,
    generate_scene,
    load_scene,
    render_frames,
    save_scene,
)

from conftest import examples


class TestGenerateScene:
    def test_zero_objects_room_only(self):
        cloud, objects = generate_scene(SceneSpec(object_count=0, seed=1))
        assert objects == []
        assert np.all(cloud.gt_instance == -1)

    def test_point_budget_tracks_surface_area(self):
        # each object's point count should match round(area * density) closely
        cloud, objects = generate_scene(SceneSpec(object_count=6, seed=2, density=150.0))
        for oid, obj in enumerate(objects):
            expected = round(obj.area() * 150.0)
            actual = int(np.count_nonzero(cloud.gt_instance == oid))
            assert abs(actual - expected) <= max(1, 0.05 * expected)

    def test_same_seed_identical(self):
        a, _ = generate_scene(SceneSpec(object_count=4, seed=9))
        b, _ = generate_scene(SceneSpec(object_count=4, seed=9))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.gt_instance, b.gt_instance)

    def test_different_seed_differs(self):
        a, _ = generate_scene(SceneSpec(object_count=4, seed=9))
        b, _ = generate_scene(SceneSpec(object_count=4, seed=10))
        assert a.positions.shape != b.positions.shape or not np.allclose(
            a.positions, b.positions
        )

    def test_objects_fit_inside_room(self):
        cloud, _ = generate_scene(SceneSpec(object_count=8, seed=4))
        room = np.array([6.0, 6.0, 3.0])
        assert np.all(cloud.positions >= -1e-9)
        assert np.all(cloud.positions <= room + 1e-9)


class TestRenderFrames:
    def test_isolated_sphere_renders_filled_disc(self):
        from seglift.synth import Sphere

        sphere = Sphere(center=np.array([3.0, 3.0, 1.5]), rotation=np.eye(3), radius=0.4)
        # odd image size puts the principal point exactly on a pixel center
        spec = SceneSpec(
            object_count=0,
            frame_count=1,
            image_size=(65, 65),
            camera=[((1.0, 3.0, 1.5), (3.0, 3.0, 1.5))],
        )
        (rendered,) = render_frames([sphere], spec)
        inst = rendered.instance
        h, w = inst.shape
        assert inst[h // 2, w // 2] == 0  # center pixel hits the sphere
        # silhouette radius in pixels: fx * r / sqrt(d^2 - r^2)
        fx = rendered.frame.fx
        dist = 2.0
        radius_px = fx * 0.4 / np.sqrt(dist**2 - 0.4**2)
        ys, xs = np.nonzero(inst == 0)
        spread = np.hypot(ys - (h - 1) / 2, xs - (w - 1) / 2)
        assert spread.max() <= radius_px + 1.0
        # interior of the disc is fully covered
        rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        inside = np.hypot(rr - (h - 1) / 2, cc - (w - 1) / 2) <= radius_px - 1.0
        assert np.all(inst[inside] == 0)
        # depth at the center equals distance minus radius
        assert rendered.frame.depth[h // 2, w // 2] == pytest.approx(dist - 0.4, abs=1e-6)

    def test_rays_missing_everything(self):
        # camera placed outside the room looking away from it
        spec = SceneSpec(
            object_count=0,
            frame_count=1,
            camera=[((-10.0, 3.0, 1.5), (-20.0, 3.0, 1.5))],
        )
        scene = build_scene(spec)
        assert np.all(scene.frames[0].depth == 0.0)
        assert np.all(scene.instances[0] == -1)

    def test_degenerate_pose_rejected(self):
        spec = SceneSpec(object_count=0, frame_count=1, camera=[((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))])
        with pytest.raises(ValueError, match="degenerate camera pose"):
            build_scene(spec)

    def test_waypoints_are_one_pose_or_one_per_frame(self):
        poses = [((1.0 + t, 3.0, 1.5), (5.0, 3.0, 1.5)) for t in range(3)]
        for camera in (poses[:1], poses):
            assert len(build_scene(SceneSpec(object_count=0, frame_count=3, camera=camera, density=5.0)).frames) == 3
        with pytest.raises(ValueError, match="one waypoint or one per frame"):
            build_scene(SceneSpec(object_count=0, frame_count=3, camera=poses[:2], density=5.0))

    def test_reprojection_consistency(self):
        # sampled surface points that pass the occlusion test land on pixels
        # whose instance render matches their label for >= 99% of points
        scene = build_scene(SceneSpec(object_count=5, frame_count=12, seed=6))
        agree = 0
        total = 0
        for rendered in scene.rendered:
            ps = project_points(scene.cloud.positions, rendered.frame, 0.1)
            labels = scene.cloud.gt_instance[ps.indices]
            rendered_ids = rendered.instance[ps.rows, ps.cols]
            agree += int(np.count_nonzero(labels == rendered_ids))
            total += len(ps)
        assert total > 1000
        assert agree / total >= 0.99

    def test_every_object_visible_somewhere(self):
        scene = build_scene(SceneSpec(object_count=8, frame_count=60, seed=4))
        for oid in range(8):
            best = max(int((inst == oid).sum()) for inst in scene.instances)
            assert best >= 50, f"object {oid} best visibility {best} px"

    def test_depth_instance_coverage_agreement(self):
        scene = build_scene(SceneSpec(object_count=3, frame_count=6, seed=11))
        for rendered in scene.rendered:
            has_instance = rendered.instance >= 0
            assert np.all(rendered.frame.depth[has_instance] > 0)


class TestSceneIO:
    def test_round_trip(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        save_scene(small_scene, path)
        loaded = load_scene(path, require_instances=True)
        assert len(loaded.cloud) == len(small_scene.cloud)
        np.testing.assert_allclose(loaded.cloud.positions, small_scene.cloud.positions)
        np.testing.assert_array_equal(loaded.cloud.gt_instance, small_scene.cloud.gt_instance)
        assert len(loaded.frames) == len(small_scene.frames)
        f0, g0 = loaded.frames[0], small_scene.frames[0]
        assert (f0.fx, f0.fy, f0.cx, f0.cy) == (g0.fx, g0.fy, g0.cx, g0.cy)
        np.testing.assert_allclose(f0.extrinsics, g0.extrinsics)
        np.testing.assert_allclose(f0.depth, g0.depth, atol=1e-6)
        np.testing.assert_array_equal(loaded.instances[3], small_scene.instances[3])

    def test_loaded_depth_stays_float32(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        save_scene(small_scene, path)
        loaded = load_scene(path)
        for frame, original in zip(loaded.frames, small_scene.frames):
            assert frame.depth.dtype == np.float32
            np.testing.assert_array_equal(frame.depth, original.depth.astype(np.float32))

    def test_loaded_positions_do_not_hold_the_parse(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        save_scene(small_scene, path)
        positions = synth.load_cloud(path).positions
        assert positions.flags.c_contiguous
        base = positions
        while base is not None:  # no array under the positions is the (N, 7) parse
            assert base.shape == positions.shape
            base = base.base
        np.testing.assert_allclose(positions, small_scene.cloud.positions)

    def test_saved_bytes_are_pinned(self, tmp_path):
        """Every file of a saved scene, hashed in path order: the digest was
        recorded while the cloud still held per-point colours (numpy 2.4.6)."""
        save_scene(build_scene(SceneSpec(object_count=3, frame_count=3, seed=7, density=40.0, image_size=(16, 12))),
                   tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == "128fc4120e42c397536cfafa31242497f3e88efd54a8e5e7c128412b0c6ca984"

    def test_colour_columns_follow_the_label(self, tmp_path, small_scene):
        labels = np.array([-1, 0, 3, 7, 8, 17])
        cloud = PointCloud(np.arange(18.0).reshape(6, 3), labels)
        save_scene(Scene(cloud, small_scene.rendered[:1]), tmp_path)
        raw = np.loadtxt(tmp_path / "cloud.txt")
        np.testing.assert_array_equal(raw[:, 6], labels)
        expected = [synth._ROOM_COLOR if g < 0 else synth._PALETTE[g % 8] for g in labels]
        np.testing.assert_array_equal(raw[:, 3:6], expected)

    def test_load_cloud_ignores_colour_values(self, tmp_path, small_scene):
        save_scene(small_scene, tmp_path)
        cloud_file = tmp_path / "cloud.txt"
        rows = [line.split() for line in cloud_file.read_text().splitlines()]
        for row, colour in zip(rows, itertools.cycle(["-5", "2.5", "1e300", "0"])):
            row[3:6] = [colour] * 3
        cloud_file.write_text("".join(" ".join(row) + "\n" for row in rows))
        loaded = synth.load_cloud(tmp_path)
        np.testing.assert_array_equal(loaded.positions, small_scene.cloud.positions)
        np.testing.assert_array_equal(loaded.gt_instance, small_scene.cloud.gt_instance)
        rows[0][4] = "nan"
        cloud_file.write_text("".join(" ".join(row) + "\n" for row in rows))
        with pytest.raises(DataError, match="values must be finite"):
            synth.load_cloud(tmp_path)

    def test_refuses_nonempty_dir(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        path.mkdir()
        (path / "junk.txt").write_text("x")
        with pytest.raises(DataError, match="not empty"):
            save_scene(small_scene, path)
        save_scene(small_scene, path, force=True)

    def test_force_replaces_an_old_scene_with_more_views(self, tmp_path):
        old = build_scene(SceneSpec(object_count=1, frame_count=5, image_size=(8, 6), density=5.0, seed=1))
        new = build_scene(SceneSpec(object_count=2, frame_count=3, image_size=(10, 7), density=5.0, seed=2))
        save_scene(old, tmp_path / "scene")
        save_scene(new, tmp_path / "scene", force=True)
        save_scene(new, tmp_path / "fresh")
        assert len(load_scene(tmp_path / "scene", require_instances=True).frames) == 3

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(tmp_path / "scene") == files(tmp_path / "fresh")

    def test_truncated_depth_rejected(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        save_scene(small_scene, path)
        victim = path / "frames" / "0000.depth"
        victim.write_bytes(victim.read_bytes()[:100])
        with pytest.raises(DataError, match="do not match"):
            load_scene(path)

    def test_missing_instances_optional(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        save_scene(small_scene, path)
        for f in (path / "frames").glob("*.inst"):
            f.unlink()
        loaded = load_scene(path)
        assert np.all(loaded.instances[0] == -1)
        with pytest.raises(DataError, match="missing instance render"):
            load_scene(path, require_instances=True)


_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "-0", "1e-300", "1e300", "-1e300", "1e400", "nan", "-inf", "inf",
                     "9" * 30, "0x10", "1_0", "+3", ".", "e", "a", "\xe9"]),
    st.integers(-10, 10).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_TEXTS = st.one_of(
    st.text(max_size=60),
    st.text(st.characters(max_codepoint=127), max_size=60),
    st.lists(st.lists(_TOKENS, max_size=9).map(" ".join), max_size=5).map("\n".join),
)


@pytest.fixture(scope="module")
def tiny_scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "scene"
    save_scene(build_scene(SceneSpec(object_count=1, frame_count=2, image_size=(8, 6), density=5.0, seed=1)), path)
    return path


class TestSceneFileFuzz:
    """Any cloud.txt or intrinsics.txt text either loads or raises DataError."""

    @given(name=st.sampled_from(["cloud.txt", "intrinsics.txt"]), text=_TEXTS)
    @settings(max_examples=300, deadline=None)
    @example(name="cloud.txt", text="")
    @example(name="cloud.txt", text="0 0 0 0 0 0 1e300")
    @example(name="cloud.txt", text="0 0 0 0 0 0 0.5")
    @example(name="intrinsics.txt", text="nan 1 1 1 8 6")
    @example(name="intrinsics.txt", text="1 1 1 1 8 " + "9" * 30)
    def test_loads_or_raises_data_error(self, tiny_scene_dir, name, text):
        target = tiny_scene_dir / name
        original = target.read_bytes()
        target.write_text(text, encoding="utf-8")
        try:
            scene = load_scene(tiny_scene_dir)
        except DataError:
            return
        finally:
            target.write_bytes(original)
        frame = scene.frames[0]
        assert np.all(np.isfinite(scene.cloud.positions))
        assert np.all(np.isfinite((frame.fx, frame.fy, frame.cx, frame.cy)))

    @given(text=_TEXTS)
    @settings(max_examples=300, deadline=None)
    @example(text="")
    @example(text="0 0 0 0 0 0 1e300")
    @example(text="0 0 0 0 0 0 0.5")
    @example(text="0 0 0 0 0 0 -2")
    @example(text="nan 0 0 0 0 0 1")
    @example(text="0 0 0 0 0 0 1 0")
    def test_instance_ids_load_or_raise_data_error(self, tiny_scene_dir, text):
        # any cloud.txt text gives int64 ids from -1 up or a DataError; where
        # the whole cloud loads, the ids are its ids
        target = tiny_scene_dir / "cloud.txt"
        original = target.read_bytes()
        target.write_text(text, encoding="utf-8")
        loaded = {}
        try:
            for name, load in (("ids", synth.load_instance_ids), ("cloud", synth.load_cloud)):
                try:
                    loaded[name] = load(tiny_scene_dir)
                except DataError:
                    pass
        finally:
            target.write_bytes(original)
        if "ids" in loaded:
            ids = loaded["ids"]
            assert ids.dtype == np.int64 and ids.ndim == 1 and len(ids) > 0 and np.all(ids >= -1)
        if "cloud" in loaded:
            np.testing.assert_array_equal(loaded["ids"], loaded["cloud"].gt_instance)


# round-trip formats, then ones too coarse for a rigid rotation
_POSE_FORMATS = ("{!r}", "{:.17g}", "{:.25f}", "{:+.16E}", "{:e}", "{:+.3E}", "{:g}", "{:.0f}")
# tokens float() reads and np.loadtxt refuses, ones np.loadtxt reads and the loader refuses, ones neither reads
_POSE_GARBAGE = ("1_0", "\u0661", "nan", "inf", "-inf", "0x1", "1e", ".", "+-1", "1#", "#", "1d5", "1,0", "1e400", "")


@st.composite
def pose_texts(draw):
    """A rigid pose, each entry in one of several formats, in one of
    several layouts, sometimes with one token or character spoiled."""
    quat = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
    w, x, y, z = quat / np.linalg.norm(quat) if np.linalg.norm(quat) > 1e-3 else (1.0, 0.0, 0.0, 0.0)
    pose = np.eye(4)
    pose[:3, :3] = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    pose[:3, 3] = draw(st.tuples(*[st.floats(-1e6, 1e6)] * 3))
    formats = st.sampled_from(_POSE_FORMATS[: draw(st.sampled_from([4, 4, 4, 8]))])
    tokens = [draw(formats).format(float(v)) for v in pose.flat]
    if draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, 15))] = draw(st.sampled_from(_POSE_GARBAGE))
    width = draw(st.sampled_from([4, 4, 4, 2, 8, 16]))
    space = st.sampled_from([" ", "  ", "\t", " \t"])
    end = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \t\n"])
    lines = [draw(space).join(tokens[i : i + width]) for i in range(0, 16, width)]
    text = draw(st.sampled_from(["", " ", "\n"])) + "".join(line + draw(end) for line in lines)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from("0123456789+-.eE_ \t\n#")) * (1 - cut) + text[at + cut :]
    return text


class TestPoseFiles:
    """A pose file loads to the bits np.loadtxt and check_extrinsics give,
    or is a DataError; on the characters of numbers and whitespace alone,
    it loads whenever they accept it."""

    @given(text=pose_texts())
    @settings(max_examples=examples(300), deadline=None)
    @example(text="1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    @example(text="1 0 0 0\n\n0 1 0 0\r\n 0 0 1 1e400\n0 0 0 1")
    @example(text="1 0 0 1_0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    @example(text="1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1\n")
    @example(text="1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1 # comment\n")
    @example(text="")
    @example(text="1e400 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")  # inf in the rotation: rejected without a warning
    def test_equals_loadtxt_or_raises_data_error(self, tiny_scene_dir, text):
        target = tiny_scene_dir / "frames" / "0000.pose"
        original = target.read_bytes()
        target.write_bytes(text.encode("utf-8"))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns about a file without data
                want = check_extrinsics(np.loadtxt(target, dtype=np.float64))
        except (ValueError, UserWarning):
            want = None
        try:
            got = load_scene(tiny_scene_dir).frames[0].extrinsics
        except DataError:
            got = None
        finally:
            target.write_bytes(original)
        if got is not None:
            assert want is not None and got.tobytes() == want.tobytes()
        if want is not None and set(text) <= set("0123456789+-.eE \t\r\n"):
            assert got is not None


@pytest.fixture
def read_log(monkeypatch):
    """The frame files read through the scene loader, in order."""
    log = []
    read = synth._read_view_file

    def spy(path, dtype, shape):
        log.append(path.name)
        return read(path, dtype, shape)

    monkeypatch.setattr(synth, "_read_view_file", spy)
    return log


class TestLazyViews:
    """A loaded scene reads a view's files when that view is indexed."""

    @pytest.fixture
    def scene_dir(self, tmp_path, small_scene):
        path = tmp_path / "scene"
        save_scene(small_scene, path)
        return path

    def test_load_and_slices_read_nothing(self, scene_dir, read_log):
        scene = load_scene(scene_dir, require_instances=True)
        working = subsample_views(scene.frames, 10)
        assert len(working) == 4 and len(scene.instances[1::5]) == 8
        assert read_log == []
        assert working[1].depth.shape == (64, 64)
        assert read_log == ["0010.depth"]

    def test_views_equal_the_saved_scene(self, scene_dir, small_scene, read_log):
        scene = load_scene(scene_dir, require_instances=True)
        for t in (0, 17, -1):
            np.testing.assert_array_equal(scene.frames[t].depth, small_scene.frames[t].depth.astype(np.float32))
            np.testing.assert_array_equal(scene.instances[t], small_scene.instances[t])
            np.testing.assert_array_equal(scene.rendered[t].instance, small_scene.instances[t])
        # an instance render is checked against the depth map just read, not a second read of it
        assert read_log == ["0000.depth", "0000.inst", "0000.inst", "0017.depth", "0017.inst", "0017.inst",
                            "0039.depth", "0039.inst", "0039.inst"]
        with pytest.raises(IndexError):
            scene.frames[40]
        assert isinstance(scene.frames[::2][1:], type(scene.frames))

    def test_built_scenes_keep_lists(self, small_scene):
        assert type(small_scene.frames) is list and type(small_scene.instances) is list

    def test_nan_depth_surfaces_when_its_view_is_read(self, scene_dir):
        depth_file = scene_dir / "frames" / "0003.depth"
        depth = np.fromfile(depth_file, dtype="<f4")
        depth[5] = np.nan
        depth.tofile(depth_file)
        scene = load_scene(scene_dir)
        scene.frames[2]
        with pytest.raises(DataError, match=r"0003\.depth: depth values must be finite and nonnegative"):
            scene.frames[3]

    def test_instance_without_depth_names_its_file(self, scene_dir):
        """An instance id on a pixel without valid depth is a DataError, not a ValueError."""
        for name, value in (("0002.depth", np.float32(0)), ("0002.inst", np.int32(0))):
            path = scene_dir / "frames" / name
            path.write_bytes(value.tobytes() + path.read_bytes()[4:])
        scene = load_scene(scene_dir)
        scene.frames[2]  # the depth map alone is valid
        with pytest.raises(DataError, match=r"0002\.inst: instance pixels must have valid surface depth"):
            scene.instances[2]

    def test_prepare_state_reads_each_working_view_once(self, scene_dir, read_log):
        scene = load_scene(scene_dir, require_instances=True)
        state = prepare_state(scene.cloud, scene.frames, scene.instances, PipelineConfig(view_stride=3))
        working = range(0, 40, 3)
        assert sorted(read_log) == sorted([f"{t:04d}.depth" for t in working] + [f"{t:04d}.inst" for t in working])
        assert len(state.pixels.renders) == len(working)

    def test_file_tracker_setup_reads_no_instance_render(self, scene_dir, read_log):
        scene = load_scene(scene_dir)
        prepare_state(scene.cloud, scene.frames, None, PipelineConfig(view_stride=3))
        assert read_log == [f"{t:04d}.depth" for t in range(0, 40, 3)]
