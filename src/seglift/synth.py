"""Deterministic synthetic RGB-D scenes with exact ground truth.

A scene is a closed room box plus floating primitive objects (boxes,
spheres, cylinders, randomly rotated). Points are sampled uniformly on all
surfaces; frames are rendered by analytic ray casting, so depth maps and
per-pixel instance ids are exact. Depth stores the hit distance along the
optical axis; 0 means the ray missed everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, read_text
from .geometry import CameraFrame, PointCloud

__all__ = [
    "SceneSpec",
    "RenderedFrame",
    "Scene",
    "generate_scene",
    "render_frames",
    "build_scene",
    "save_scene",
    "load_scene",
]

_EPS = 1e-9

_PALETTE = np.array(
    [
        (0.85, 0.30, 0.25),
        (0.25, 0.60, 0.85),
        (0.30, 0.75, 0.35),
        (0.90, 0.70, 0.20),
        (0.60, 0.35, 0.80),
        (0.20, 0.70, 0.70),
        (0.85, 0.45, 0.65),
        (0.55, 0.55, 0.25),
    ]
)
_ROOM_COLOR = np.array([0.6, 0.6, 0.6])


@dataclass
class SceneSpec:
    """Knobs for one synthetic scene; every random choice flows from seed."""

    room_size: tuple[float, float, float] = (6.0, 6.0, 3.0)
    object_count: int = 5
    shapes: tuple[str, ...] = ("box", "sphere", "cylinder")
    density: float = 120.0  # surface points per square meter
    frame_count: int = 60
    image_size: tuple[int, int] = (64, 64)  # (W, H)
    camera: object = "orbit"  # "orbit" or list of ((eye), (target)) waypoints
    seed: int = 0
    object_extent: tuple[float, float] = (0.28, 0.55)  # full-diameter range
    clearance: float = 0.2

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.room_size):
            raise ValueError("room extents must be positive")
        if self.frame_count < 1:
            raise ValueError("frame count must be at least 1")
        if self.object_count < 0:
            raise ValueError("object count must be nonnegative")
        if self.density <= 0:
            raise ValueError("density must be positive")
        if min(self.image_size) < 1:
            raise ValueError("image size must be positive")
        if not self.shapes:
            raise ValueError("shape palette must not be empty")
        for shape in self.shapes:
            if shape not in ("box", "sphere", "cylinder"):
                raise ValueError(f"unknown shape {shape!r}")


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
        lo, ld = self._to_local(origin, dirs)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / ld
            t1 = (-self.half - lo) * inv
            t2 = (self.half - lo) * inv
        near = np.fmax.reduce(np.fmin(t1, t2), axis=1)
        far = np.fmin.reduce(np.fmax(t1, t2), axis=1)
        hit = (far >= near) & (near > _EPS)
        return np.where(hit, near, np.inf)


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


@dataclass
class _RoomShell:
    """Interior of an axis-aligned box; rays hit the exit face."""

    half: np.ndarray
    center: np.ndarray

    def area(self) -> float:
        hx, hy, hz = self.half
        return 8.0 * (hx * hy + hy * hz + hx * hz)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        box = Box(center=self.center, rotation=np.eye(3), half=self.half)
        return box.sample(n, rng)

    def ray_depths(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        lo = origin - self.center
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            t1 = (-self.half - lo) * inv
            t2 = (self.half - lo) * inv
        near = np.fmax.reduce(np.fmin(t1, t2), axis=1)
        far = np.fmin.reduce(np.fmax(t1, t2), axis=1)
        hit = (far >= near) & (far > _EPS)
        return np.where(hit, far, np.inf)


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
    cloud: PointCloud
    rendered: list[RenderedFrame]
    objects: list = field(default_factory=list)

    @property
    def frames(self) -> list[CameraFrame]:
        return [r.frame for r in self.rendered]

    @property
    def instances(self) -> list[np.ndarray]:
        return [r.instance for r in self.rendered]


def _place_objects(spec: SceneSpec, rng: np.random.Generator) -> list:
    rx, ry, rz = spec.room_size
    center_xy = np.array([rx / 2.0, ry / 2.0])
    lateral_radius = 0.20 * min(rx, ry)
    z_low, z_high = 0.25 * rz, 0.70 * rz
    attempts = 500
    objects = []
    for i in range(spec.object_count):
        shape = spec.shapes[i % len(spec.shapes)]
        for attempt in range(attempts):
            # shrink gradually so crowded scenes still place
            shrink = 1.0 - 0.5 * attempt / attempts
            extent = rng.uniform(*spec.object_extent) * shrink
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
                >= rb + other.bounding_radius() + spec.clearance
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
    room = _RoomShell(half=np.asarray(spec.room_size) / 2.0, center=np.asarray(spec.room_size) / 2.0)

    chunks, colors, labels = [], [], []
    n_room = max(1, round(room.area() * spec.density))
    chunks.append(room.sample(n_room, rng))
    colors.append(np.tile(_ROOM_COLOR, (n_room, 1)))
    labels.append(np.full(n_room, -1, dtype=np.int64))
    for oid, obj in enumerate(objects):
        n = max(1, round(obj.area() * spec.density))
        chunks.append(obj.sample(n, rng))
        colors.append(np.tile(_PALETTE[oid % len(_PALETTE)], (n, 1)))
        labels.append(np.full(n, oid, dtype=np.int64))
    cloud = PointCloud(
        np.concatenate(chunks), np.concatenate(colors), np.concatenate(labels)
    )
    return cloud, objects


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
    room = _RoomShell(half=np.asarray(spec.room_size) / 2.0, center=np.asarray(spec.room_size) / 2.0)
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
    return Scene(cloud, render_frames(objects, spec), objects)


# --- scene directory I/O ---------------------------------------------------
#
# cloud.txt        x y z r g b gt_instance, one point per line
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
    gt = cloud.gt_instance if cloud.gt_instance is not None else np.full(len(cloud), -1)
    with open(root / "cloud.txt", "w", encoding="ascii") as fh:
        for p, c, g in zip(cloud.positions, cloud.colors, gt):
            fh.write(
                f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} "
                f"{c[0]:.6g} {c[1]:.6g} {c[2]:.6g} {int(g)}\n"
            )
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


def load_scene(path, require_instances: bool = False) -> Scene:
    root = Path(path)
    cloud_file = root / "cloud.txt"
    intr_file = root / "intrinsics.txt"
    if not cloud_file.is_file() or not intr_file.is_file():
        raise DataError(f"{root}: not a scene directory (missing cloud.txt or intrinsics.txt)")
    try:
        raw = np.loadtxt(cloud_file, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{cloud_file}: {exc}") from exc
    if raw.shape[1] != 7:
        raise DataError(f"{cloud_file}: expected 7 columns, found {raw.shape[1]}")
    if not np.all(np.isfinite(raw)):
        raise DataError(f"{cloud_file}: values must be finite")
    try:
        cloud = PointCloud(raw[:, :3], np.clip(raw[:, 3:6], 0.0, 1.0), raw[:, 6].astype(np.int64))
    except ValueError as exc:
        raise DataError(f"{cloud_file}: {exc}") from exc

    tokens = read_text(intr_file).split()
    if len(tokens) != 6:
        raise DataError(f"{intr_file}: expected 6 values")
    try:
        fx, fy, cx, cy = map(float, tokens[:4])
        width, height = int(tokens[4]), int(tokens[5])
    except ValueError as exc:
        raise DataError(f"{intr_file}: {exc}") from exc
    if width <= 0 or height <= 0:
        raise DataError(f"{intr_file}: image size must be positive")

    rendered = []
    t = 0
    while True:
        pose_file = root / "frames" / f"{t:04d}.pose"
        if not pose_file.is_file():
            break
        try:
            pose = np.loadtxt(pose_file, dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{pose_file}: {exc}") from exc
        if pose.shape != (4, 4):
            raise DataError(f"{pose_file}: expected 16 values in 4 rows")
        depth_file = root / "frames" / f"{t:04d}.depth"
        if not depth_file.is_file():
            raise DataError(f"{depth_file}: missing depth map")
        depth = np.fromfile(depth_file, dtype="<f4")
        if depth.size != width * height:
            raise DataError(
                f"{depth_file}: {depth.size} values do not match {width}x{height} intrinsics"
            )
        inst_file = root / "frames" / f"{t:04d}.inst"
        if inst_file.is_file():
            instance = np.fromfile(inst_file, dtype="<i4")
            if instance.size != width * height:
                raise DataError(
                    f"{inst_file}: {instance.size} values do not match {width}x{height} intrinsics"
                )
            instance = instance.reshape(height, width)
        elif require_instances:
            raise DataError(f"{inst_file}: missing instance render")
        else:
            instance = np.full((height, width), -1, dtype=np.int32)
        try:
            frame = CameraFrame(fx, fy, cx, cy, pose, depth.astype(np.float64).reshape(height, width), width, height)
        except ValueError as exc:
            raise DataError(f"{root}: frame {t}: {exc}") from exc
        rendered.append(RenderedFrame(frame, instance))
        t += 1
    if not rendered:
        raise DataError(f"{root}: no frames found")
    return Scene(cloud, rendered)
