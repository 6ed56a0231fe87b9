"""Per-object 2D mask tracks and their providers.

Three sources of tracks exist:

* :func:`oracle_track` reads exact per-view instance renders and is the
  trusted fixture for everything downstream,
* :func:`noisy_track` degrades oracle output with drop / morphology /
  boundary-flip noise plus a forgetting rule after long invisibility gaps,
* :func:`read_tracks` ingests externally produced track files.

Masks are plain (H, W) boolean arrays keyed by working-view index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import DataError, TrackingError, read_text
from .geometry import CameraFrame, fps_sample, project_cloud
from .superpoints import SuperpointPartition
from .view_select import PixelIndex

__all__ = [
    "NoiseSpec",
    "TrackerQuery",
    "MaskTrack",
    "build_tracker_query",
    "oracle_track",
    "noisy_track",
    "encode_rle",
    "decode_rle",
    "write_tracks",
    "read_tracks",
]


@dataclass
class NoiseSpec:
    """Degradation model emulating 2D tracker failure modes.

    p_drop: per-view probability of losing the mask entirely
    r_morph: radius (taxicab) of a random dilation or erosion per view
    p_flip: per-pixel flip probability inside the boundary band
    flip_band: half-width of the boundary band subject to flips
    memory_window: gap length (in views) after which the tracker forgets
        the object until the next reprompt view
    """

    p_drop: float = 0.0
    r_morph: int = 0
    p_flip: float = 0.0
    flip_band: int = 2
    memory_window: int = 7

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.r_morph < 0 or self.flip_band < 0:
            raise ValueError("morphology radii must be nonnegative")
        if self.memory_window < 1:
            raise ValueError("memory_window must be at least 1")


@dataclass
class TrackerQuery:
    """Prompts handed to a tracker for one superpoint.

    point_prompts are (row, col) pixels inside the pivot-view projection;
    reprompt_points re-anchor the tracker at views where the superpoint
    reappears after an invisibility gap longer than the memory window.
    """

    pivot_view: int
    point_prompts: list[tuple[int, int]]
    reprompt_points: dict[int, tuple[int, int]] = field(default_factory=dict)


@dataclass
class MaskTrack:
    """One object's per-view binary masks plus a confidence score."""

    track_id: int
    score: float
    masks: dict[int, np.ndarray]
    pivot_view: int
    seed_superpoint: int

    def __post_init__(self) -> None:
        if self.pivot_view not in self.masks:
            raise ValueError("pivot view must be present in the track")
        if not np.isfinite(self.score):
            raise ValueError("score must be finite")

    def views(self) -> list[int]:
        return sorted(self.masks)


def build_tracker_query(
    superpoint: int,
    partition: SuperpointPartition,
    positions: np.ndarray,
    frames: list[CameraFrame],
    pivot: int,
    depth_tolerance: float = 0.1,
    memory_window: int = 7,
    prompt_count: int = 3,
    pixels: PixelIndex | None = None,
) -> TrackerQuery:
    """Choose point prompts in the pivot view and reprompt points after gaps.

    Prompts are picked by 2D farthest-point sampling over the superpoint's
    distinct pivot-view pixels (fewer than ``prompt_count`` when the
    projection is smaller). A reprompt pixel is placed at every view where
    the superpoint reappears after more than ``memory_window`` consecutive
    invisible views. ``pixels`` is the scene's pixel index; without it, one
    is built by projecting ``positions`` into ``frames``.
    """
    if not 0 <= superpoint < partition.count:
        raise ValueError("superpoint id out of range")
    if pixels is None:
        pixels = PixelIndex.build(partition, project_cloud(positions, frames, depth_tolerance))
    if pixels.counts[pivot, superpoint] == 0:
        raise TrackingError("superpoint invisible in pivot")

    cell = pixels.cell(pivot, superpoint)
    uniq = np.unique(np.stack([pixels.rows[cell], pixels.cols[cell]], axis=1), axis=0)
    embedded = np.column_stack([uniq.astype(np.float64), np.zeros(len(uniq))])
    picks = fps_sample(embedded, min(prompt_count, len(uniq)))
    prompts = [(int(uniq[i, 0]), int(uniq[i, 1])) for i in picks]

    visible = np.flatnonzero(pixels.counts[:, superpoint] > 0)
    reprompts: dict[int, tuple[int, int]] = {}
    for t in visible[1:][np.diff(visible) - 1 > memory_window]:
        first = pixels.cell(t, superpoint).start
        reprompts[int(t)] = (int(pixels.rows[first]), int(pixels.cols[first]))
    return TrackerQuery(pivot, prompts, reprompts)


def _majority_instance(render: np.ndarray, prompts: list[tuple[int, int]]) -> int:
    votes = [int(render[r, c]) for r, c in prompts]
    votes = [v for v in votes if v >= 0]
    if not votes:
        raise TrackingError("prompts hit no instance")
    ids, counts = np.unique(votes, return_counts=True)
    return int(ids[np.argmax(counts)])


def oracle_track(
    query: TrackerQuery,
    instance_renders: list[np.ndarray],
    track_id: int = 0,
    seed_superpoint: int = -1,
) -> MaskTrack:
    """Exact tracker: emits the ground-truth instance renders of the object
    the prompts land on (majority vote, ties to the lowest id)."""
    target = _majority_instance(instance_renders[query.pivot_view], query.point_prompts)
    masks: dict[int, np.ndarray] = {}
    for t, render in enumerate(instance_renders):
        mask = render == target
        if mask.any():
            masks[t] = mask
    return MaskTrack(track_id, 1.0, masks, query.pivot_view, seed_superpoint)


def noisy_track(
    query: TrackerQuery,
    instance_renders: list[np.ndarray],
    noise: NoiseSpec,
    rng_seed: int,
    track_id: int = 0,
    seed_superpoint: int = -1,
) -> MaskTrack:
    """Oracle track degraded per :class:`NoiseSpec`, reproducible per seed.

    Per view (ascending, pivot exempt from dropping): drop with p_drop,
    then randomly dilate or erode by r_morph, then flip boundary-band
    pixels with p_flip. Afterwards a forgetting pass erases masks following
    any gap longer than the memory window until the next reprompt view; the
    pivot always survives and resets the gap. Masks noised down to empty
    count as dropped. Score is the surviving fraction of oracle views.
    """
    base = oracle_track(query, instance_renders, track_id, seed_superpoint)
    rng = np.random.default_rng(rng_seed)
    noised: dict[int, np.ndarray] = {}
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


def _apply_forgetting(
    masks: dict[int, np.ndarray],
    query: TrackerQuery,
    view_count: int,
    memory_window: int,
) -> dict[int, np.ndarray]:
    kept: dict[int, np.ndarray] = {}
    gap = 0
    lost = False
    for t in range(view_count):
        if t == query.pivot_view:
            kept[t] = masks[t]
            gap = 0
            lost = False
            continue
        if t in masks:
            if lost and t not in query.reprompt_points:
                gap += 1  # forgotten views extend the gap
                continue
            kept[t] = masks[t]
            gap = 0
            lost = False
        else:
            gap += 1
            if gap > memory_window:
                lost = True
    return kept


# --- track file serialization -------------------------------------------
#
# Line-delimited text. First line: "tracks 1 <H> <W>". Each further line is
# one track: track_id, score, pivot_view, then per-view entries
# "t:r0 r1 r2 ..." whose run lengths alternate zero-runs/one-runs starting
# with zeros, row-major, and sum to H*W. A seed-superpoint integer may
# appear between pivot_view and the first view entry; the writer always
# emits it (round-trips must preserve every track field) and the reader
# treats it as optional, defaulting to -1 for externally produced files.

_HEADER = "tracks 1"


def encode_rle(mask: np.ndarray) -> list[int]:
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    if flat.size == 0:
        return [0]
    changes = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return [int(r) for r in runs]


def decode_rle(runs: list[int], height: int, width: int) -> np.ndarray:
    total = sum(runs)
    if total != height * width:
        raise ValueError(f"run lengths sum to {total}, expected {height * width}")
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if run < 0:
            raise ValueError("run lengths must be nonnegative")
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    return flat.reshape(height, width)


def write_tracks(
    tracks: list[MaskTrack],
    path,
    height: int | None = None,
    width: int | None = None,
) -> None:
    if height is None or width is None:
        for track in tracks:
            for mask in track.masks.values():
                height, width = mask.shape
                break
            if height is not None:
                break
    if height is None or width is None:
        height = width = 0
    lines = [f"{_HEADER} {height} {width}"]
    for track in tracks:
        parts = [str(track.track_id), repr(float(track.score)), str(track.pivot_view), str(track.seed_superpoint)]
        for t in sorted(track.masks):
            mask = track.masks[t]
            if mask.shape != (height, width):
                raise ValueError(f"track {track.track_id} view {t}: mask shape {mask.shape} != {(height, width)}")
            runs = encode_rle(mask)
            parts.append(f"{t}:" + " ".join(str(r) for r in runs))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_tracks(path) -> list[MaskTrack]:
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty track file (missing header)")
    header = lines[0].split()
    if len(header) != 4 or " ".join(header[:2]) != _HEADER:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    try:
        height, width = int(header[2]), int(header[3])
    except ValueError as exc:
        raise DataError(f"{path}: line 1: bad header dimensions") from exc

    tracks = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) < 4:
            raise DataError(f"{path}: line {lineno}: truncated track record")
        try:
            track_id = int(tokens[0])
            score = float(tokens[1])
            pivot = int(tokens[2])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad track fields") from exc
        rest = tokens[3:]
        seed = -1
        if rest and ":" not in rest[0]:
            try:
                seed = int(rest[0])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad seed field") from exc
            rest = rest[1:]
        masks: dict[int, np.ndarray] = {}
        view: int | None = None
        runs: list[int] = []
        for token in rest:
            if ":" in token:
                if view is not None:
                    masks[view] = _decode_checked(runs, height, width, path, lineno)
                head, _, tail = token.partition(":")
                try:
                    view = int(head)
                    runs = [int(tail)] if tail else []
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: bad view entry {token!r}") from exc
            else:
                if view is None:
                    raise DataError(f"{path}: line {lineno}: run length before any view entry")
                try:
                    runs.append(int(token))
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: bad run length {token!r}") from exc
        if view is not None:
            masks[view] = _decode_checked(runs, height, width, path, lineno)
        try:
            tracks.append(MaskTrack(track_id, score, masks, pivot, seed))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return tracks


def _decode_checked(runs: list[int], height: int, width: int, path, lineno: int) -> np.ndarray:
    try:
        return decode_rle(runs, height, width)
    except ValueError as exc:
        raise DataError(f"{path}: line {lineno}: {exc}") from exc
