import numpy as np
import pytest

from seglift.geometry import CameraFrame, project_cloud
from seglift.synth import SceneSpec, build_scene
from seglift.view_select import PixelIndex


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
    """The pixel index of ``positions`` seen by ``frames``, as prepare_state builds it."""
    projections = project_cloud(positions, frames, depth_tolerance)
    return PixelIndex.build(partition, projections, (frames[0].height, frames[0].width))


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
