"""End-to-end proposal generation: seed, pivot, track, lift, refine, repeat.

Each round farthest-point-samples seed superpoints from the free set, picks
their pivot views, queries the tracker, lifts each track to a visibility
matrix, and refines it into a proposal with the configured strategy. Every
superpoint contained in an accepted proposal (and every attempted seed) is
consumed; rounds repeat until the free set is empty or ``max_rounds`` is
hit. Near-duplicate proposals collapse to the highest-scoring one.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, InvariantViolation, TrackingError, read_text
from .geometry import CameraFrame, PointCloud, fps_sample, knn_centroids, estimate_normals, project_cloud
from .superpoints import SuperpointPartition, partition_superpoints
from .tracks import MaskTrack, NoiseSpec, build_tracker_query, noisy_track, oracle_track
from .optimize import (
    all_lifted,
    brute_force_superpoints,
    brute_force_views,
    dp_refine,
    objective_from_counts,
    top_k_views_refine,
    visibility_matrix,
)
from .view_select import NoPivotViewError, PixelIndex, pivot_view
from .evaluation import mask_iou

__all__ = [
    "PipelineConfig",
    "PipelineState",
    "Proposal",
    "RoundStats",
    "PipelineResult",
    "subsample_views",
    "prepare_state",
    "run_round",
    "run_rounds",
    "run_pipeline",
    "parse_strategy",
    "STRATEGY_NAMES",
    "write_proposals",
    "read_proposals",
    "write_proposal_points",
    "read_proposal_points",
]

STRATEGY_NAMES = ("dp", "all_lifted", "brute_views", "brute_superpoints", "top_k:<k>")

_TOP_K_RE = re.compile(r"^top_k[:(](\d+)\)?$")


def parse_strategy(name: str):
    """Map a strategy name to a solver over visibility matrices."""
    if name == "dp":
        return dp_refine
    if name == "all_lifted":
        return all_lifted
    if name == "brute_views":
        return brute_force_views
    if name == "brute_superpoints":
        return brute_force_superpoints
    match = _TOP_K_RE.match(name)
    if match:
        k = int(match.group(1))
        if k < 1:
            raise ValueError("top_k strategy needs k >= 1")
        return lambda vis: top_k_views_refine(vis, k)
    raise ValueError(f"unknown strategy {name!r}; expected one of {', '.join(STRATEGY_NAMES)}")


@dataclass
class PipelineConfig:
    """All pipeline knobs; mirrors the flat ``key = value`` config format."""

    tau: float = 0.5
    depth_tolerance: float = 0.1
    view_stride: int = 10
    kappa: int = 8
    samples_per_round: int = 30
    max_rounds: int = 50
    dedup_iou: float = 0.9
    strategy: str = "dp"
    overlap_mode: str = "containment"
    seed: int = 0
    prompt_count: int = 3
    memory_window: int = 7
    noise_p_drop: float = 0.0
    noise_r_morph: int = 0
    noise_p_flip: float = 0.0
    noise_flip_band: int = 2
    superpoint_knn: int = 10
    superpoint_threshold: float = 0.05
    superpoint_min_size: int = 20
    normals_k: int = 12

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.depth_tolerance <= 0:
            raise ValueError("depth_tolerance must be positive")
        if self.view_stride < 1:
            raise ValueError("view_stride must be at least 1")
        if self.kappa < 1:
            raise ValueError("kappa must be at least 1")
        if self.samples_per_round < 1:
            raise ValueError("samples_per_round must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if not 0.0 < self.dedup_iou <= 1.0:
            raise ValueError("dedup_iou must lie in (0, 1]")
        if self.overlap_mode not in ("containment", "iou"):
            raise ValueError("overlap_mode must be 'containment' or 'iou'")
        parse_strategy(self.strategy)
        self.noise_spec()  # validates the noise fields

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            p_drop=self.noise_p_drop,
            r_morph=self.noise_r_morph,
            p_flip=self.noise_p_flip,
            flip_band=self.noise_flip_band,
            memory_window=self.memory_window,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: dict, base: "PipelineConfig | None" = None) -> "PipelineConfig":
        known = {f.name: f.type for f in fields(cls)}
        values = (base.to_dict() if base is not None else {})
        for key, raw in mapping.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            current = getattr(base if base is not None else cls(), key)
            values[key] = _coerce(raw, type(current))
        return cls(**values)

    @classmethod
    def from_file(cls, path, base: "PipelineConfig | None" = None) -> "PipelineConfig":
        mapping = {}
        for lineno, line in enumerate(read_text(path).splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
        try:
            return cls.from_mapping(mapping, base=base)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _coerce(raw, target_type):
    if isinstance(raw, str):
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    return target_type(raw)


@dataclass
class Proposal:
    """A 3D instance proposal: the union of its member superpoints."""

    point_mask: np.ndarray
    superpoint_ids: np.ndarray
    score: float
    seed_superpoint: int
    pivot_view: int
    round_index: int
    objective: int
    proposal_id: int = -1

    @property
    def point_count(self) -> int:
        return int(np.count_nonzero(self.point_mask))


@dataclass
class RoundStats:
    round_index: int
    seeds_used: int
    proposals_emitted: int
    unliftable_seeds: int


@dataclass
class PipelineResult:
    proposals: list[Proposal]
    rounds: list[RoundStats]
    leftover_free_superpoints: int
    superpoint_count: int
    partition: SuperpointPartition = field(repr=False)
    timings_s: dict[str, float] = field(default_factory=dict, repr=False)


def subsample_views(frames: list, stride: int) -> list:
    """Every stride-th frame, starting at 0, order preserved."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    return list(frames[::stride])


@dataclass
class PipelineState:
    """Read-only context shared by every round of one pipeline run."""

    cloud: PointCloud
    frames: list[CameraFrame]
    instances: list[np.ndarray] | None
    partition: SuperpointPartition
    neighbors: list[np.ndarray]
    pixels: PixelIndex
    config: PipelineConfig


def _validate_frames(frames: list[CameraFrame], instances: list[np.ndarray] | None) -> None:
    if not frames:
        raise DataError("scene has no frames")
    shape = (frames[0].height, frames[0].width)
    for t, frame in enumerate(frames):
        if (frame.height, frame.width) != shape:
            raise DataError(
                f"frame {t}: image size {(frame.height, frame.width)} differs from {shape}"
            )
    if instances is not None:
        if len(instances) != len(frames):
            raise DataError("one instance render per frame required")
        for t, render in enumerate(instances):
            if render.shape != shape:
                raise DataError(f"instance render {t}: shape {render.shape} differs from {shape}")


def prepare_state(cloud, frames, instances, config) -> PipelineState:
    """Subsample views, partition the cloud, and index its projections."""
    working = subsample_views(frames, config.view_stride)
    winst = subsample_views(instances, config.view_stride) if instances is not None else None
    _validate_frames(working, winst)
    normals = estimate_normals(cloud.positions, k=min(config.normals_k, len(cloud) - 1))
    partition = partition_superpoints(
        cloud,
        normals,
        knn_k=config.superpoint_knn,
        merge_threshold=config.superpoint_threshold,
        min_size=config.superpoint_min_size,
    )
    neighbors = knn_centroids(partition.centroids, config.kappa)
    pixels = PixelIndex.build(partition, project_cloud(cloud.positions, working, config.depth_tolerance))
    return PipelineState(cloud, working, winst, partition, neighbors, pixels, config)


def _combine_seed(base_seed: int, track_id: int) -> int:
    return (base_seed * 1_000_003 + track_id) % (2**63)


def _process_seed(state: PipelineState, seed: int, track_id: int, tracker: str, refine, round_index: int):
    """Pivot, query, track, lift, refine one seed. Returns a Proposal or None."""
    cfg = state.config
    try:
        pivot, _ = pivot_view(seed, state.pixels.counts, state.partition.sizes, state.neighbors)
        query = build_tracker_query(
            seed,
            state.partition,
            state.cloud.positions,
            state.frames,
            pivot,
            memory_window=cfg.memory_window,
            prompt_count=cfg.prompt_count,
            pixels=state.pixels,
        )
        if tracker == "oracle":
            track = oracle_track(query, state.instances, track_id, seed)
        else:
            track = noisy_track(
                query,
                state.instances,
                cfg.noise_spec(),
                _combine_seed(cfg.seed, track_id),
                track_id,
                seed,
            )
    except (NoPivotViewError, TrackingError):
        return None
    return _lift(state, track, refine, round_index)


def _lift(state: PipelineState, track: MaskTrack, refine, round_index: int) -> Proposal | None:
    """Lift a track to a visibility matrix and refine it into a proposal."""
    cfg = state.config
    vis = visibility_matrix(
        track,
        state.cloud.positions,
        state.partition,
        state.frames,
        tau=cfg.tau,
        overlap_mode=cfg.overlap_mode,
        pixels=state.pixels,
    )
    solution = refine(vis)
    recount = objective_from_counts(solution.theta, vis)
    if solution.objective != recount:
        raise InvariantViolation(f"track {track.track_id}: refined objective {solution.objective} != recount {recount}")
    ids = solution.selected()
    if ids.size == 0:
        return None
    return Proposal(
        point_mask=solution.theta[state.partition.assignment],
        superpoint_ids=ids,
        score=float(track.score),
        seed_superpoint=track.seed_superpoint,
        pivot_view=track.pivot_view,
        round_index=round_index,
        objective=solution.objective,
    )


def _dedup(proposals: list[Proposal], dedup_iou: float) -> list[Proposal]:
    ordered = sorted(
        proposals, key=lambda p: (-p.score, p.round_index, p.seed_superpoint)
    )
    kept: list[Proposal] = []
    for prop in ordered:
        if all(mask_iou(prop.point_mask, other.point_mask) <= dedup_iou for other in kept):
            kept.append(prop)
    return kept


def run_round(
    state: PipelineState,
    free: np.ndarray,
    tracker: str,
    refine,
    round_index: int,
    track_id_start: int,
) -> tuple[list[Proposal], RoundStats]:
    """One sampling round: seed, track, lift, refine.

    Farthest-point-samples up to ``samples_per_round`` free superpoints and
    turns each into a proposal; seeds without a pivot view or whose refined
    selection is empty are consumed silently. ``free`` is updated in place:
    attempted seeds and the members of emitted proposals become non-free.
    """
    want = min(state.config.samples_per_round, int(free.sum()))
    seeds = fps_sample(state.partition.centroids, want, eligible=free)
    proposals = []
    for i, seed in enumerate(seeds):
        prop = _process_seed(state, seed, track_id_start + i, tracker, refine, round_index)
        if prop is None:
            continue
        proposals.append(prop)
        free[prop.superpoint_ids] = False
    free[seeds] = False  # failed seeds are consumed too
    stats = RoundStats(round_index, len(seeds), len(proposals), len(seeds) - len(proposals))
    return proposals, stats


def _check_tracker(tracker: str, instances, tracks) -> None:
    if tracker not in ("oracle", "noisy", "file"):
        raise ValueError(f"unknown tracker {tracker!r}")
    if tracker in ("oracle", "noisy") and instances is None:
        raise DataError(f"the {tracker} tracker needs per-frame instance renders")
    if tracker == "file" and tracks is None:
        raise DataError("the file tracker needs a track list")


def run_pipeline(
    cloud: PointCloud,
    frames: list[CameraFrame],
    config: PipelineConfig,
    tracker: str = "oracle",
    instances: list[np.ndarray] | None = None,
    tracks: list[MaskTrack] | None = None,
) -> PipelineResult:
    """Produce the deduplicated, score-sorted proposal bank for a scene.

    ``tracker`` is "oracle" or "noisy" (both need per-frame instance
    renders) or "file", in which case ``tracks`` supplies externally
    produced tracks indexed on the already-subsampled working views.
    ``timings_s`` of the result holds the seconds of both stages.
    """
    _check_tracker(tracker, instances, tracks)
    start = time.perf_counter()
    state = prepare_state(cloud, frames, instances, config)
    prepared = time.perf_counter()
    result = run_rounds(state, config.strategy, tracker, tracks)
    result.timings_s = {"prepare": prepared - start, "rounds": time.perf_counter() - prepared}
    return result


def run_rounds(
    state: PipelineState,
    strategy: str,
    tracker: str = "oracle",
    tracks: list[MaskTrack] | None = None,
) -> PipelineResult:
    """Proposals from a prepared state with one refinement strategy.

    The state is only read, so one state serves any number of strategies.
    """
    _check_tracker(tracker, state.instances, tracks)
    config = state.config
    refine = parse_strategy(strategy)

    proposals: list[Proposal] = []
    rounds: list[RoundStats] = []
    if tracker == "file":
        _validate_file_tracks(tracks, state.frames)
        emitted = 0
        for track in tracks:
            prop = _lift(state, track, refine, round_index=0)
            if prop is not None:
                proposals.append(prop)
                emitted += 1
        rounds.append(RoundStats(0, len(tracks), emitted, len(tracks) - emitted))
        leftover = 0
    else:
        free = np.ones(state.partition.count, dtype=bool)
        track_id = 0
        round_index = 0
        while free.any() and round_index < config.max_rounds:
            new_proposals, stats = run_round(
                state, free, tracker, refine, round_index, track_id
            )
            proposals.extend(new_proposals)
            rounds.append(stats)
            track_id += stats.seeds_used
            round_index += 1
        leftover = int(free.sum())

    deduped = _dedup(proposals, config.dedup_iou)
    for i, prop in enumerate(deduped):
        prop.proposal_id = i
    return PipelineResult(
        proposals=deduped,
        rounds=rounds,
        leftover_free_superpoints=leftover,
        superpoint_count=state.partition.count,
        partition=state.partition,
    )


def _validate_file_tracks(tracks: list[MaskTrack], frames: list[CameraFrame]) -> None:
    shape = (frames[0].height, frames[0].width)
    for track in tracks:
        for t, mask in track.masks.items():
            if not 0 <= t < len(frames):
                raise DataError(
                    f"track {track.track_id} view {t}: view index outside the "
                    f"{len(frames)} working views"
                )
            if mask.shape != shape:
                raise DataError(
                    f"track {track.track_id} view {t}: mask shape {mask.shape} "
                    f"does not match frames {shape}"
                )


# --- proposal files --------------------------------------------------------
#
# proposals: one JSON object per line with id, score, superpoints,
# point_count and provenance. An optional companion file carries explicit
# point indices per proposal for evaluators that lack the partition.


def write_proposals(proposals: list[Proposal], path) -> None:
    import json

    with open(path, "w", encoding="ascii") as fh:
        for prop in proposals:
            record = {
                "id": prop.proposal_id,
                "score": prop.score,
                "superpoints": [int(s) for s in prop.superpoint_ids],
                "point_count": prop.point_count,
                "provenance": {
                    "seed": int(prop.seed_superpoint),
                    "pivot": int(prop.pivot_view),
                    "round": int(prop.round_index),
                    "objective": int(prop.objective),
                },
            }
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def read_proposals(path) -> list[dict]:
    import json

    records = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        score = record.get("score") if isinstance(record, dict) else None
        if type(score) not in (int, float) or not math.isfinite(score) or type(record.get("id")) is not int:
            raise DataError(f"{path}: line {lineno}: needs an integer \"id\" and a finite \"score\"")
        records.append(record)
    return records


def write_proposal_points(proposals: list[Proposal], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for prop in proposals:
            indices = np.flatnonzero(prop.point_mask)
            fh.write(f"{prop.proposal_id} " + " ".join(str(int(i)) for i in indices) + "\n")


def read_proposal_points(path, point_count: int) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            pid = int(tokens[0])
            idx = np.array([int(t) for t in tokens[1:]], dtype=np.int64)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad point record") from exc
        if idx.size and (idx.min() < 0 or idx.max() >= point_count):
            raise DataError(f"{path}: line {lineno}: point index out of range")
        mask = np.zeros(point_count, dtype=bool)
        mask[idx] = True
        out[pid] = mask
    return out
