"""Deterministic, cached, content-hashed benchmark inputs.

Every input flows from the workload seed. Scenes come from
``seglift.synth``; the file-tracks track file is made here from the scene's
instance renders alone (the ``frames/*.inst`` files), never from the
partition or pivot code under test. Each input lives in its own cache
directory with a ``.sha256`` stamp over its bytes; a cached input is reused
only when its bytes still match the stamp.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

import workloads

_STAMP = ".sha256"
# A scene whose objects cannot be placed is redrawn from the next scene seed.
_PLACEMENT_TRIES = 20


def tree_sha256(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != _STAMP):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _cached(root: Path, build) -> tuple[str, dict]:
    """Reuse root if its stamp matches its bytes, else rebuild it via build(tmp)."""
    stamp = root / _STAMP
    if stamp.is_file():
        recorded = json.loads(stamp.read_text())
        if recorded["sha256"] == tree_sha256(root):
            return recorded["sha256"], recorded["meta"]
    tmp = root.with_name(root.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(root, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = build(tmp)
    digest = tree_sha256(tmp)
    (tmp / _STAMP).write_text(json.dumps({"sha256": digest, "meta": meta}, sort_keys=True))
    tmp.rename(root)
    return digest, meta


def _build_scene(spec_kwargs: dict):
    from seglift.errors import DataError
    from seglift.synth import SceneSpec, build_scene, save_scene

    def build(tmp: Path) -> dict:
        base = spec_kwargs["seed"]
        for seed in range(base, base + _PLACEMENT_TRIES):
            try:
                scene = build_scene(SceneSpec(**dict(spec_kwargs, seed=seed)))
            except DataError:
                continue
            save_scene(scene, tmp / "scene", force=True)
            return {"scene_seed": seed, "points": len(scene.cloud), "frames": len(scene.rendered)}
        raise RuntimeError(f"no placeable scene in seeds {base}..{base + _PLACEMENT_TRIES - 1}")

    return build


def _build_tracks(scene_dir: Path, seed: int):
    def build(tmp: Path) -> dict:
        count = write_noisy_tracks(scene_dir, tmp / "tracks.txt", seed)
        return {"tracks": count}

    return build


def prepare(workload: str, seed: int, scale: str, cache: Path) -> dict:
    """Generate (or reuse) the workload's inputs; return their paths and hashes."""
    scene_dirs, hashes, meta = [], {}, {}
    for key, spec in workloads.scenes(workload, seed, scale):
        digest, info = _cached(cache / key, _build_scene(spec))
        scene_dirs.append(str(cache / key / "scene"))
        hashes[key], meta[key] = digest, info
    tracks_path = None
    if workload == "file-tracks":
        scene_key = Path(scene_dirs[0]).parent.name
        key = f"{scene_key}-tracks-{seed}-{hashes[scene_key][:12]}"
        digest, info = _cached(cache / key, _build_tracks(Path(scene_dirs[0]), seed))
        tracks_path = str(cache / key / "tracks.txt")
        hashes[key], meta[key] = digest, info
    combined = hashlib.sha256("".join(f"{k}={hashes[k]}\n" for k in sorted(hashes)).encode()).hexdigest()
    return {"scenes": scene_dirs, "tracks": tracks_path, "sha256": combined, "parts": hashes, "meta": meta}


# --- the file-tracks track file --------------------------------------------


def _shift_or(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    for _ in range(radius):
        mask = _shift_or(mask)
    return mask


def _erode(mask: np.ndarray, radius: int) -> np.ndarray:
    return ~_dilate(~mask, radius)


def _perturb(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A tracker-like degradation: random morphology, then boundary flips."""
    radius = int(rng.integers(0, 3))
    if radius:
        mask = _dilate(mask, radius) if rng.random() < 0.5 else _erode(mask, radius)
    band = _dilate(mask, 2) & ~_erode(mask, 2)
    flips = band & (rng.random(mask.shape) < 0.2)
    return mask ^ flips


def _rle(mask: np.ndarray) -> list[int]:
    flat = mask.reshape(-1).astype(np.int8)
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], edges, [flat.size]])
    runs = np.diff(bounds).tolist()
    return runs if flat[0] == 0 else [0] + runs


def write_noisy_tracks(scene_dir: Path, path: Path, seed: int) -> int:
    """Write TRACKS_PER_OBJECT noisy near-duplicate tracks per visible object.

    Reads only intrinsics.txt and frames/*.inst. Views are the working views
    at FILE_TRACKS_STRIDE. Each track keeps the views where its object is
    visible, minus 10% random dropouts; its pivot is one of the object's
    largest views.
    """
    tokens = (scene_dir / "intrinsics.txt").read_text().split()
    width, height = int(tokens[4]), int(tokens[5])
    inst_files = sorted((scene_dir / "frames").glob("*.inst"))[:: workloads.FILE_TRACKS_STRIDE]
    renders = [np.fromfile(f, dtype="<i4").reshape(height, width) for f in inst_files]
    rng = np.random.default_rng([seed, 20241125])
    lines = [f"tracks 1 {height} {width}"]
    objects = np.unique(np.concatenate([r[r >= 0] for r in renders]))
    for obj in objects.tolist():
        visible = [r == obj for r in renders]
        areas = np.array([v.sum() for v in visible])
        largest = np.argsort(-areas, kind="stable")[: workloads.TRACKS_PER_OBJECT]
        for j in range(workloads.TRACKS_PER_OBJECT):
            pivot = int(largest[j % len(largest)])
            parts = [str(len(lines) - 1), repr(round(float(rng.uniform(0.5, 1.0)), 6)), str(pivot)]
            for t, mask in enumerate(visible):
                keep = t == pivot or (areas[t] > 0 and rng.random() >= 0.1)
                if keep:
                    parts.append(f"{t}:" + " ".join(map(str, _rle(_perturb(mask, rng)))))
            lines.append(" ".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(lines) - 1
