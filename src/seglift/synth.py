"""Deterministic synthetic RGB-D scenes with exact ground truth.

A scene is a closed room box plus floating primitive objects (boxes,
spheres, cylinders, randomly rotated). Points are sampled uniformly on all
surfaces; frames are rendered by analytic ray casting, so depth maps and
per-pixel instance ids are exact. Depth stores the hit distance along the
optical axis; 0 means the ray missed everything.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, read_text
from .geometry import CameraFrame, PointCloud, check_extrinsics, check_intrinsics

__all__ = [
    "SceneSpec",
    "RenderedFrame",
    "Scene",
    "generate_scene",
    "render_frames",
    "build_scene",
    "save_scene",
    "load_cloud",
    "load_instance_ids",
    "load_scene",
]

_EPS = 1e-9
_POSE_CHARS = frozenset("0123456789+-.eE \t\n")  # what a pose file may hold
_SHAPES = ("box", "sphere", "cylinder")  # object i is _SHAPES[i % 3]
_OBJECT_EXTENT = (0.28, 0.55)  # full-diameter range
_CLEARANCE = 0.2  # least gap between two objects' bounding spheres

# the r g b columns of cloud.txt, chosen by label: no stage reads them
_PALETTE = [
    (0.85, 0.30, 0.25),
    (0.25, 0.60, 0.85),
    (0.30, 0.75, 0.35),
    (0.90, 0.70, 0.20),
    (0.60, 0.35, 0.80),
    (0.20, 0.70, 0.70),
    (0.85, 0.45, 0.65),
    (0.55, 0.55, 0.25),
]
_ROOM_COLOR = (0.6, 0.6, 0.6)


@dataclass
class SceneSpec:
    """Knobs for one synthetic scene; every random choice flows from seed."""

    room_size: tuple[float, float, float] = (6.0, 6.0, 3.0)
    object_count: int = 5
    density: float = 120.0  # surface points per square meter
    frame_count: int = 60
    image_size: tuple[int, int] = (64, 64)  # (W, H)
    camera: object = "orbit"  # "orbit" or list of ((eye), (target)) waypoints
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(math.isfinite(s) and s > 0 for s in self.room_size):
            raise ValueError("room extents must be finite and positive")
        if self.frame_count < 1:
            raise ValueError("frame count must be at least 1")
        if self.object_count < 0:
            raise ValueError("object count must be nonnegative")
        if not (math.isfinite(self.density) and self.density > 0):
            raise ValueError("density must be finite and positive")
        if min(self.image_size) < 1:
            raise ValueError("image size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


# --- primitives -----------------------------------------------------------


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (Shoemake quaternion method)."""
    u1, u2, u3 = rng.random(3)
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    qx = a * math.sin(2.0 * math.pi * u2)
    qy = a * math.cos(2.0 * math.pi * u2)
    qz = b * math.sin(2.0 * math.pi * u3)
    qw = b * math.cos(2.0 * math.pi * u3)
    return np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )


@dataclass
class _Primitive:
    center: np.ndarray
    rotation: np.ndarray  # object-to-world

    def _to_local(self, origin: np.ndarray, dirs: np.ndarray):
        return self.rotation.T @ (origin - self.center), dirs @ self.rotation

    def _corners_world(self, local: np.ndarray) -> np.ndarray:
        return local @ self.rotation.T + self.center


@dataclass
class Box(_Primitive):
    half: np.ndarray

    def area(self) -> float:
        hx, hy, hz = self.half
        return 8.0 * (hx * hy + hy * hz + hx * hz)

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.half))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        hx, hy, hz = self.half
        face_areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy]) * 4.0
        faces = rng.choice(6, size=n, p=face_areas / face_areas.sum())
        u = rng.uniform(-1.0, 1.0, size=n)
        v = rng.uniform(-1.0, 1.0, size=n)
        pts = np.empty((n, 3))
        for f in range(6):
            sel = faces == f
            axis, sign = divmod(f, 2)
            other = [a for a in range(3) if a != axis]
            pts[sel, axis] = (1.0 if sign == 0 else -1.0) * self.half[axis]
            pts[sel, other[0]] = u[sel] * self.half[other[0]]
            pts[sel, other[1]] = v[sel] * self.half[other[1]]
        return self._corners_world(pts)

    def ray_depths(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        near, far = _slabs(*self._to_local(origin, dirs), self.half)
        return np.where((far >= near) & (near > _EPS), near, np.inf)


def _slabs(lo: np.ndarray, ld: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the rays ``lo + s * ld`` enter and leave the box ``|x| <= half``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / ld
        t1 = (-half - lo) * inv
        t2 = (half - lo) * inv
    return np.fmax.reduce(np.fmin(t1, t2), axis=1), np.fmin.reduce(np.fmax(t1, t2), axis=1)


@dataclass
class Sphere(_Primitive):
    radius: float

    def area(self) -> float:
        return 4.0 * math.pi * self.radius**2

    def bounding_radius(self) -> float:
        return self.radius

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        vec = rng.normal(size=(n, 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        return vec * self.radius + self.center

    def ray_depths(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        oc = origin - self.center
        a = np.einsum("ij,ij->i", dirs, dirs)
        b = 2.0 * dirs @ oc
        c = oc @ oc - self.radius**2
        disc = b * b - 4.0 * a * c
        ok = disc >= 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        s1 = (-b - sq) / (2.0 * a)
        s2 = (-b + sq) / (2.0 * a)
        s = np.where(s1 > _EPS, s1, s2)
        return np.where(ok & (s > _EPS), s, np.inf)


@dataclass
class Cylinder(_Primitive):
    radius: float
    half_height: float

    def area(self) -> float:
        return 2.0 * math.pi * self.radius * (2.0 * self.half_height) + 2.0 * math.pi * self.radius**2

    def bounding_radius(self) -> float:
        return math.sqrt(self.radius**2 + self.half_height**2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lateral = 2.0 * math.pi * self.radius * 2.0 * self.half_height
        cap = math.pi * self.radius**2
        part = rng.choice(3, size=n, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        pts = np.empty((n, 3))
        side = part == 0
        pts[side, 0] = self.radius * np.cos(angle[side])
        pts[side, 1] = self.radius * np.sin(angle[side])
        pts[side, 2] = rng.uniform(-self.half_height, self.half_height, size=int(side.sum()))
        for which, zsign in ((1, 1.0), (2, -1.0)):
            sel = part == which
            r = self.radius * np.sqrt(rng.random(int(sel.sum())))
            pts[sel, 0] = r * np.cos(angle[sel])
            pts[sel, 1] = r * np.sin(angle[sel])
            pts[sel, 2] = zsign * self.half_height
        return self._corners_world(pts)

    def ray_depths(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        lo, ld = self._to_local(origin, dirs)
        best = np.full(len(dirs), np.inf)
        a = ld[:, 0] ** 2 + ld[:, 1] ** 2
        b = 2.0 * (lo[0] * ld[:, 0] + lo[1] * ld[:, 1])
        c = lo[0] ** 2 + lo[1] ** 2 - self.radius**2
        disc = b * b - 4.0 * a * c
        ok = (disc >= 0) & (a > _EPS)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sign in (-1.0, 1.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (-b + sign * sq) / (2.0 * a)
            z = lo[2] + s * ld[:, 2]
            valid = ok & (s > _EPS) & (np.abs(z) <= self.half_height)
            best = np.where(valid & (s < best), s, best)
        with np.errstate(divide="ignore", invalid="ignore"):
            for zcap in (self.half_height, -self.half_height):
                s = (zcap - lo[2]) / ld[:, 2]
                x = lo[0] + s * ld[:, 0]
                y = lo[1] + s * ld[:, 1]
                valid = (np.abs(ld[:, 2]) > _EPS) & (s > _EPS) & (x * x + y * y <= self.radius**2)
                best = np.where(valid & (s < best), s, best)
        return best


class _RoomShell(Box):
    """Interior of an axis-aligned box; rays hit the exit face."""

    def ray_depths(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        near, far = _slabs(origin - self.center, dirs, self.half)
        return np.where((far >= near) & (far > _EPS), far, np.inf)


def _room(spec: SceneSpec) -> _RoomShell:
    half = np.asarray(spec.room_size) / 2.0
    return _RoomShell(center=half, rotation=np.eye(3), half=half)


# --- scene assembly -------------------------------------------------------


@dataclass
class RenderedFrame:
    """A posed depth frame plus its per-pixel instance render (-1 = none)."""

    frame: CameraFrame
    instance: np.ndarray

    def __post_init__(self) -> None:
        self.instance = np.asarray(self.instance, dtype=np.int32)
        if self.instance.shape != (self.frame.height, self.frame.width):
            raise ValueError("instance render shape must match the frame")
        surface = self.frame.depth > 0
        if not np.array_equal(self.instance >= 0, (self.instance >= 0) & surface):
            raise ValueError("instance pixels must have valid surface depth")


@dataclass
class Scene:
    """A cloud and its rendered views. A built scene holds its views in
    lists; a loaded one reads a view's files each time it is indexed (see
    :func:`load_scene`)."""

    cloud: PointCloud
    rendered: Sequence[RenderedFrame]

    @property
    def frames(self) -> Sequence[CameraFrame]:
        if isinstance(self.rendered, _Views):
            return self.rendered.reading("frame")
        return [r.frame for r in self.rendered]

    @property
    def instances(self) -> Sequence[np.ndarray]:
        if isinstance(self.rendered, _Views):
            return self.rendered.reading("instance")
        return [r.instance for r in self.rendered]


def _place_objects(spec: SceneSpec, rng: np.random.Generator) -> list:
    rx, ry, rz = spec.room_size
    center_xy = np.array([rx / 2.0, ry / 2.0])
    lateral_radius = 0.20 * min(rx, ry)
    z_low, z_high = 0.25 * rz, 0.70 * rz
    attempts = 500
    objects = []
    for i in range(spec.object_count):
        shape = _SHAPES[i % len(_SHAPES)]
        for attempt in range(attempts):
            # shrink gradually so crowded scenes still place
            shrink = 1.0 - 0.5 * attempt / attempts
            extent = rng.uniform(*_OBJECT_EXTENT) * shrink
            rotation = _random_rotation(rng)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radial = lateral_radius * math.sqrt(rng.random())
            cx, cy = center_xy + radial * np.array([math.cos(angle), math.sin(angle)])
            if shape == "box":
                half = np.array([extent / 2.0, extent / 2.0 * rng.uniform(0.6, 1.0), extent / 2.0 * rng.uniform(0.6, 1.0)])
                candidate = Box(center=np.zeros(3), rotation=rotation, half=half)
            elif shape == "sphere":
                candidate = Sphere(center=np.zeros(3), rotation=np.eye(3), radius=extent / 2.0)
            else:
                candidate = Cylinder(
                    center=np.zeros(3),
                    rotation=rotation,
                    radius=extent / 2.0 * rng.uniform(0.5, 0.8),
                    half_height=extent / 2.0,
                )
            rb = candidate.bounding_radius()
            if z_low + rb >= z_high - rb:
                continue
            cz = rng.uniform(z_low + rb, z_high - rb)
            candidate.center = np.array([cx, cy, cz])
            good = all(
                np.linalg.norm(candidate.center - other.center)
                >= rb + other.bounding_radius() + _CLEARANCE
                for other in objects
            )
            if good:
                objects.append(candidate)
                break
        else:
            raise DataError(f"could not place object {i} without overlap after {attempts} attempts")
    return objects


def generate_scene(spec: SceneSpec) -> tuple[PointCloud, list]:
    """Sample the room shell and object surfaces into a labeled point cloud."""
    rng = np.random.default_rng(spec.seed)
    objects = _place_objects(spec, rng)
    chunks, labels = [], []
    for oid, surface in enumerate([_room(spec)] + objects, start=-1):
        n = max(1, round(surface.area() * spec.density))
        chunks.append(surface.sample(n, rng))
        labels.append(np.full(n, oid, dtype=np.int64))
    return PointCloud(np.concatenate(chunks), np.concatenate(labels)), objects


def _camera_path(spec: SceneSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    if isinstance(spec.camera, str):
        if spec.camera != "orbit":
            raise ValueError(f"unknown camera path {spec.camera!r}")
        rx, ry, rz = spec.room_size
        center = np.array([rx / 2.0, ry / 2.0, 0.0])
        radius = 0.30 * min(rx, ry)
        target = center + np.array([0.0, 0.0, 0.40 * rz])
        path = []
        for t in range(spec.frame_count):
            phase = 2.0 * math.pi * t / spec.frame_count
            z = 0.5 * rz + 0.30 * rz * math.sin(2.0 * phase)
            eye = center + np.array([radius * math.cos(phase), radius * math.sin(phase), z])
            path.append((eye, target))
        return path

    waypoints = [(np.asarray(e, dtype=np.float64), np.asarray(g, dtype=np.float64)) for e, g in spec.camera]
    if not waypoints:
        raise ValueError("waypoint list must not be empty")
    if len(waypoints) == spec.frame_count:
        return waypoints
    if len(waypoints) == 1:
        return waypoints * spec.frame_count
    # resample the waypoint polyline uniformly to frame_count poses
    path = []
    for t in range(spec.frame_count):
        s = t / max(spec.frame_count - 1, 1) * (len(waypoints) - 1)
        i = min(int(s), len(waypoints) - 2)
        frac = s - i
        eye = (1 - frac) * waypoints[i][0] + frac * waypoints[i + 1][0]
        target = (1 - frac) * waypoints[i][1] + frac * waypoints[i + 1][1]
        path.append((eye, target))
    return path


def _look_at_extrinsics(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < _EPS:
        raise ValueError("degenerate camera pose: eye equals target")
    forward = forward / norm
    up_hint = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up_hint) > 0.999:
        up_hint = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up_hint)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward])
    ext = np.eye(4)
    ext[:3, :3] = rot
    ext[:3, 3] = -rot @ eye
    return ext


def _intrinsics(spec: SceneSpec) -> tuple[float, float, float, float]:
    width, height = spec.image_size
    focal = 0.75 * width
    return focal, focal, (width - 1) / 2.0, (height - 1) / 2.0


def render_frames(objects: list, spec: SceneSpec) -> list[RenderedFrame]:
    """Ray cast every camera pose against the room and objects."""
    width, height = spec.image_size
    fx, fy, cx, cy = _intrinsics(spec)
    room = _room(spec)
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    dir_cam = np.stack(
        [
            (cols.reshape(-1) - cx) / fx,
            (rows.reshape(-1) - cy) / fy,
            np.ones(height * width),
        ],
        axis=1,
    )
    rendered = []
    for eye, target in _camera_path(spec):
        ext = _look_at_extrinsics(eye, target)
        rot = ext[:3, :3]
        origin = eye.astype(np.float64)
        dirs = dir_cam @ rot  # rows of rot are camera axes, so this is R^T applied
        depth = room.ray_depths(origin, dirs)
        instance = np.full(height * width, -1, dtype=np.int32)
        for oid, obj in enumerate(objects):
            s = obj.ray_depths(origin, dirs)
            closer = s < depth
            depth = np.where(closer, s, depth)
            instance[closer] = oid
        depth = np.where(np.isfinite(depth), depth, 0.0)
        frame = CameraFrame(
            fx, fy, cx, cy, ext, depth.reshape(height, width), width, height
        )
        rendered.append(RenderedFrame(frame, instance.reshape(height, width)))
    return rendered


def build_scene(spec: SceneSpec) -> Scene:
    cloud, objects = generate_scene(spec)
    return Scene(cloud, render_frames(objects, spec))


# --- scene directory I/O ---------------------------------------------------
#
# cloud.txt        x y z r g b gt_instance, one point per line; r g b come
#                  from the label when written and are ignored when read
# intrinsics.txt   fx fy cx cy W H
# frames/%04d.pose  16 reals, row-major world-to-camera
# frames/%04d.depth little-endian float32, row-major H*W
# frames/%04d.inst  little-endian int32, row-major H*W


def save_scene(scene: Scene, path, force: bool = False) -> None:
    root = Path(path)
    if root.exists() and any(root.iterdir()) and not force:
        raise DataError(f"{root}: directory exists and is not empty (use force)")
    (root / "frames").mkdir(parents=True, exist_ok=True)

    cloud = scene.cloud
    gt = cloud.gt_instance.tolist() if cloud.gt_instance is not None else [-1] * len(cloud)
    room, *palette = (" ".join(f"{v:.6g}" for v in c) for c in (_ROOM_COLOR, *_PALETTE))
    with open(root / "cloud.txt", "w", encoding="ascii") as fh:
        for p, g in zip(cloud.positions, gt):
            rgb = room if g < 0 else palette[g % len(palette)]
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {rgb} {g}\n")
    first = scene.frames[0]
    with open(root / "intrinsics.txt", "w", encoding="ascii") as fh:
        fh.write(
            f"{first.fx:.17g} {first.fy:.17g} {first.cx:.17g} {first.cy:.17g} "
            f"{first.width} {first.height}\n"
        )
    for t, rendered in enumerate(scene.rendered):
        frame = rendered.frame
        with open(root / "frames" / f"{t:04d}.pose", "w", encoding="ascii") as fh:
            for row in frame.extrinsics:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        frame.depth.astype("<f4").tofile(root / "frames" / f"{t:04d}.depth")
        rendered.instance.astype("<i4").tofile(root / "frames" / f"{t:04d}.inst")


def _parse_cloud(path, usecols: int | None = None) -> tuple[Path, np.ndarray]:
    """(cloud.txt of a scene directory, its (N, columns) float parse); ``usecols`` parses one column alone."""
    root = Path(path)
    cloud_file = root / "cloud.txt"
    if not cloud_file.is_file() or not (root / "intrinsics.txt").is_file():
        raise DataError(f"{root}: not a scene directory (missing cloud.txt or intrinsics.txt)")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns about a file without data
            return cloud_file, np.loadtxt(cloud_file, dtype=np.float64, ndmin=2, usecols=usecols)
    except (ValueError, UserWarning) as exc:
        raise DataError(f"{cloud_file}: {exc}") from exc


def _instance_ids(column: np.ndarray, cloud_file: Path) -> np.ndarray:
    """The gt_instance column as int64, once every id is an integer from -1 up, below 2**63."""
    if not np.all((column == np.round(column)) & (np.abs(column) < 2.0**63)):
        raise DataError(f"{cloud_file}: instance ids must be int64 integers")
    if np.any(column < -1):
        raise DataError(f"{cloud_file}: gt_instance values must be -1 or nonnegative")
    return column.astype(np.int64)


def load_cloud(path) -> PointCloud:
    """The point cloud of a scene directory, without reading its frames."""
    cloud_file, raw = _parse_cloud(path)
    if raw.shape[1] != 7:
        raise DataError(f"{cloud_file}: expected 7 columns, found {raw.shape[1]}")
    if not np.all(np.isfinite(raw)):
        raise DataError(f"{cloud_file}: values must be finite")
    return PointCloud(np.ascontiguousarray(raw[:, :3]), _instance_ids(raw[:, 6], cloud_file))


def load_instance_ids(path) -> np.ndarray:
    """The gt_instance ids of a scene directory's cloud, parsed alone: no position or colour is checked."""
    cloud_file, column = _parse_cloud(path, usecols=6)
    return _instance_ids(column[:, 0], cloud_file)


def _read_view_file(path: Path, dtype: str, shape: tuple[int, int]) -> np.ndarray:
    """One view's depth map or instance render, as an (H, W) array."""
    try:
        values = np.fromfile(path, dtype=dtype)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if values.size != shape[0] * shape[1]:
        raise DataError(f"{path}: {values.size} values do not match {shape[1]}x{shape[0]} intrinsics")
    return values.reshape(shape)


class _FrameFiles:
    """The frames of a scene directory: intrinsics and poses checked at
    load, each view's depth map and instance render read when it is used."""

    def __init__(self, root: Path, intrinsics: tuple, poses: list[np.ndarray], has_instance: list[bool]):
        self._root = root
        self._intrinsics = intrinsics  # fx, fy, cx, cy, W, H
        self._poses = poses
        self._has_instance = has_instance
        # the last frame read, so a view's instance render is checked
        # against its depth map without reading the depth map again
        self._last: tuple[int, CameraFrame | None] = (-1, None)

    def _path(self, t: int, suffix: str) -> Path:
        return self._root / "frames" / f"{t:04d}.{suffix}"

    def frame(self, t: int) -> CameraFrame:
        if self._last[0] != t:
            fx, fy, cx, cy, width, height = self._intrinsics
            depth_file = self._path(t, "depth")
            depth = _read_view_file(depth_file, "<f4", (height, width))
            try:
                frame = CameraFrame(fx, fy, cx, cy, self._poses[t], depth, width, height)
            except ValueError as exc:
                raise DataError(f"{depth_file}: {exc}") from exc
            self._last = (t, frame)
        return self._last[1]

    def rendered(self, t: int) -> RenderedFrame:
        frame = self.frame(t)
        inst_file = self._path(t, "inst")
        if self._has_instance[t]:
            instance = _read_view_file(inst_file, "<i4", (frame.height, frame.width))
        else:
            instance = np.full((frame.height, frame.width), -1, dtype=np.int32)
        try:
            return RenderedFrame(frame, instance)
        except ValueError as exc:
            raise DataError(f"{inst_file}: {exc}") from exc

    def instance(self, t: int) -> np.ndarray:
        return self.rendered(t).instance


class _Views(Sequence):
    """Read-only views of a loaded scene: indexing one reads and checks its
    files; a slice is another ``_Views`` and reads nothing."""

    def __init__(self, files: _FrameFiles, kind: str, views: range):
        self._files = files
        self._kind = kind  # "frame", "instance" or "rendered": the _FrameFiles reader
        self._views = views

    def reading(self, kind: str) -> "_Views":
        return _Views(self._files, kind, self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Views(self._files, self._kind, self._views[index])
        return getattr(self._files, self._kind)(self._views[index])

    def __iter__(self):
        read = getattr(self._files, self._kind)
        return (read(t) for t in self._views)


def load_scene(path, require_instances: bool = False) -> Scene:
    """A scene directory whose views are read when they are used.

    At load, the cloud is parsed and checked, the intrinsics are checked,
    every pose is parsed and must be rigid, and every depth map and
    instance render must hold W·H values, read from its file size. A
    missing instance render is a ``DataError`` with ``require_instances``;
    without it, the view's render is all -1. The scene's ``frames``,
    ``instances`` and ``rendered`` are read-only sequences: indexing one
    reads that view's files and checks their content (finite, nonnegative
    depth; instance ids only where the depth is valid), raising a
    ``DataError`` that names the file. Slicing reads nothing, so views that
    are never used are never read.
    """
    root = Path(path)
    cloud = load_cloud(root)
    intr_file = root / "intrinsics.txt"
    tokens = read_text(intr_file).split()
    if len(tokens) != 6:
        raise DataError(f"{intr_file}: expected 6 values")
    try:
        fx, fy, cx, cy = map(float, tokens[:4])
        width, height = int(tokens[4]), int(tokens[5])
        check_intrinsics(fx, fy, cx, cy, width, height)
    except ValueError as exc:
        raise DataError(f"{intr_file}: {exc}") from exc

    poses, has_instance = [], []
    view_bytes = 4 * width * height  # one float32 or int32 per pixel
    while True:
        t = len(poses)
        pose_file = root / "frames" / f"{t:04d}.pose"
        if not pose_file.is_file():
            break
        text = read_text(pose_file)  # read as np.loadtxt reads a 4x4 file, to its bits, without its setup
        rows = [row.split() for row in text.split("\n") if row.strip()]
        if not _POSE_CHARS.issuperset(text):  # refused: 1_0, which float() reads, comments, nan and inf
            raise DataError(f"{pose_file}: expected 4 lines of 4 decimal numbers")
        try:  # any layout but 4x4 is a ragged array or a shape check_extrinsics rejects
            poses.append(check_extrinsics(np.array(rows, dtype=np.float64)))
        except ValueError as exc:
            raise DataError(f"{pose_file}: {exc}") from exc
        depth_file, inst_file = pose_file.with_suffix(".depth"), pose_file.with_suffix(".inst")
        if not depth_file.is_file():
            raise DataError(f"{depth_file}: missing depth map")
        has_instance.append(inst_file.is_file())
        if require_instances and not has_instance[-1]:
            raise DataError(f"{inst_file}: missing instance render")
        for view_file in (depth_file, inst_file) if has_instance[-1] else (depth_file,):
            size = view_file.stat().st_size
            if size != view_bytes:
                raise DataError(f"{view_file}: {size} bytes do not match {width}x{height} intrinsics")
    if not poses:
        raise DataError(f"{root}: no frames found")
    files = _FrameFiles(root, (fx, fy, cx, cy, width, height), poses, has_instance)
    return Scene(cloud, _Views(files, "rendered", range(len(poses))))
