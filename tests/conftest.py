import numpy as np
import pytest
from hypothesis import settings
from scipy import ndimage

from seglift.geometry import CameraFrame, project_cloud, project_points
from seglift.synth import SceneSpec, build_scene
from seglift.errors import DataError
from seglift.tracks import MaskTrack, _apply_forgetting, _line_runs, oracle_track
from seglift.view_select import PixelIndex

# `pytest --hypothesis-profile ci` runs property tests at five times their
# examples: the default's, or the count a test passes through examples()
_CI_SCALE = 5
settings.register_profile("ci", max_examples=_CI_SCALE * settings.get_profile("default").max_examples)


def examples(count):
    """A property test's example count, scaled up under the ``ci`` profile."""
    return _CI_SCALE * count if settings.get_current_profile_name() == "ci" else count


def make_frame(depth, fx=100.0, fy=100.0, cx=None, cy=None, extrinsics=None):
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    if cx is None:
        cx = (w - 1) / 2.0
    if cy is None:
        cy = (h - 1) / 2.0
    if extrinsics is None:
        extrinsics = np.eye(4)
    return CameraFrame(fx, fy, cx, cy, extrinsics, depth, w, h)


def pixel_index(partition, positions, frames, depth_tolerance=0.1):
    """The pixel index of ``positions`` seen by ``frames``, as prepare_state
    builds it: each view is projected as the index reads it."""
    projections = (project_cloud(positions, [f], depth_tolerance)[0] for f in frames)
    return PixelIndex.build(partition, projections, (frames[0].height, frames[0].width))


def objective_value(theta, track, positions, partition, frames, depth_tolerance=0.1):
    """Inside-minus-outside projected-point count of a selection, summed
    over the track's views. Points are counted with multiplicity; the
    projection of the selection is the union of its member superpoints'
    pixel sets. Reprojects the points, independently of the pixel index."""
    theta = np.asarray(theta, dtype=bool)
    if theta.shape != (partition.count,):
        raise ValueError("theta must have one entry per superpoint")
    selected_points = theta[partition.assignment]
    total = 0
    for t in track.views():
        mask = track.masks[t]
        if mask.shape != (frames[t].height, frames[t].width):
            raise ValueError(f"track {track.track_id} view {t}: mask shape does not match frame")
        ps = project_points(positions, frames[t], depth_tolerance)
        chosen = selected_points[ps.indices]
        inside = int(np.count_nonzero(mask[ps.rows, ps.cols] & chosen))
        outside = int(np.count_nonzero(chosen)) - inside
        total += inside - outside
    return total


def reference_noisy_track(query, instance_renders, noise, rng_seed, track_id=0, seed_superpoint=-1):
    """The noisy tracker with its morphology, band and flips run over the
    whole image: the oracle for noisy_track, which runs them on each mask's
    bounding box."""
    base = oracle_track(query, instance_renders, track_id, seed_superpoint)
    rng = np.random.default_rng(rng_seed)
    noised = {}
    for t in sorted(base.masks):
        mask = base.masks[t]
        if t != query.pivot_view and noise.p_drop > 0 and rng.random() < noise.p_drop:
            continue
        if noise.r_morph > 0:
            if rng.random() < 0.5:
                mask = ndimage.binary_dilation(mask, iterations=noise.r_morph)
            else:
                mask = ndimage.binary_erosion(mask, iterations=noise.r_morph)
        if noise.p_flip > 0 and noise.flip_band > 0:
            band = ndimage.binary_dilation(mask, iterations=noise.flip_band) & ~ndimage.binary_erosion(
                mask, iterations=noise.flip_band
            )
            flips = band & (rng.random(mask.shape) < noise.p_flip)
            mask = mask ^ flips
        if t == query.pivot_view or mask.any():
            noised[t] = mask

    kept = _apply_forgetting(noised, query, len(instance_renders), noise.memory_window)
    score = len(kept) / len(base.masks)
    return MaskTrack(track_id, score, kept, query.pivot_view, seed_superpoint)


def reference_parse_views(rest, height, width, path, lineno):
    """A track line's ``t:r0 r1 ...`` entries parsed one token at a time,
    with Python ints: the oracle for the batched ``tracks._parse_views``.
    The first bad token is the one reported; a view listed a second time is
    bad as its id is read."""
    by_view = {}
    view = None
    runs = []
    for token in rest:
        if ":" in token:
            if view is not None:
                by_view[view] = _line_runs(runs, height, width, path, lineno)
            head, _, tail = token.partition(":")
            try:
                view = int(head)
                runs = [int(tail)] if tail else []
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad view entry {token!r}") from exc
            if view in by_view:
                raise DataError(f"{path}: line {lineno}: view {view} listed twice")
        else:
            if view is None:
                raise DataError(f"{path}: line {lineno}: run length before any view entry")
            try:
                runs.append(int(token))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad run length {token!r}") from exc
    if view is not None:
        by_view[view] = _line_runs(runs, height, width, path, lineno)
    return by_view


def backproject_pixels(frame, rows, cols, depths):
    """Lift pixels (row, col) at given camera depths to world coordinates."""
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    x = (cols - frame.cx) / frame.fx * depths
    y = (rows - frame.cy) / frame.fy * depths
    cam = np.stack([x, y, depths], axis=-1)
    return (cam - frame.translation) @ frame.rotation


def flat_depth(h, w, value):
    return np.full((h, w), float(value))


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def pose_from(rotation, translation):
    ext = np.eye(4)
    ext[:3, :3] = rotation
    ext[:3, 3] = translation
    return ext


@pytest.fixture(scope="session")
def small_scene():
    """A light synthetic scene shared by pipeline-level tests."""
    return build_scene(SceneSpec(object_count=3, frame_count=40, seed=7, density=100.0))


@pytest.fixture(scope="session")
def suite_scenes():
    """The default five-scene suite used by acceptance and CLI tests."""
    return [
        build_scene(SceneSpec(object_count=4 + s % 5, frame_count=60, seed=s))
        for s in range(5)
    ]
