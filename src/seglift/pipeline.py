"""End-to-end proposal generation: seed, pivot, track, lift, refine, repeat.

Each round farthest-point-samples seed superpoints from the free set, picks
their pivot views, queries the tracker, lifts each track to a visibility
matrix, and refines it into a proposal with the configured strategy. Every
superpoint contained in an accepted proposal (and every attempted seed) is
consumed; rounds repeat until the free set is empty, which takes at most
one round per superpoint, since each round consumes its first seed.
Near-duplicate proposals collapse to the highest-scoring one. The state
keeps each seed's lifted track, so further strategies run on the same
state only refine.
"""

from __future__ import annotations

import math
import re
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, InvariantViolation, TrackingError, read_text
from .geometry import CameraFrame, PointCloud, fps_sample, knn_centroids, estimate_normals, project_cloud, shared_knn
from .superpoints import SuperpointPartition, partition_superpoints
from .tracks import MaskTrack, NoiseSpec, build_tracker_query, noisy_track, oracle_track
from .optimize import (
    VisibilityMatrix,
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
    "LiftedTrack",
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

_TOP_K_RE = re.compile(r"top_k:(\d+)")


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
    match = _TOP_K_RE.fullmatch(name)
    if match:
        k = int(match.group(1))
        if k < 1:
            raise ValueError("top_k strategy needs k >= 1")
        return lambda vis: top_k_views_refine(vis, k)
    raise ValueError(f"unknown strategy {name!r}; expected one of {', '.join(STRATEGY_NAMES)}")


@dataclass
class PipelineConfig:
    """The pipeline's knobs, each with a ``segment``/``ablate`` flag; mirrors
    the flat ``key = value`` config format."""

    tau: float = 0.5
    depth_tolerance: float = 0.1
    view_stride: int = 10
    kappa: int = 8
    samples_per_round: int = 30
    dedup_iou: float = 0.9
    strategy: str = "dp"
    seed: int = 0
    memory_window: int = 7
    noise_p_drop: float = 0.0
    noise_r_morph: int = 0
    noise_p_flip: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not (math.isfinite(self.depth_tolerance) and self.depth_tolerance > 0):
            raise ValueError("depth_tolerance must be finite and positive")
        if self.view_stride < 1:
            raise ValueError("view_stride must be at least 1")
        if self.kappa < 1:
            raise ValueError("kappa must be at least 1")
        if self.samples_per_round < 1:
            raise ValueError("samples_per_round must be at least 1")
        if not 0.0 < self.dedup_iou <= 1.0:
            raise ValueError("dedup_iou must lie in (0, 1]")
        parse_strategy(self.strategy)
        self.noise_spec()  # validates the noise fields

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            p_drop=self.noise_p_drop,
            r_morph=self.noise_r_morph,
            p_flip=self.noise_p_flip,
            memory_window=self.memory_window,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: dict, base: "PipelineConfig | None" = None) -> "PipelineConfig":
        values = (base if base is not None else cls()).to_dict()
        for key, raw in mapping.items():
            if key not in values:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = type(values[key])(raw)  # int, float or str, as the field's value
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
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
            return cls.from_mapping(mapping)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


@dataclass
class Proposal:
    """A 3D instance proposal: the union of its member superpoints, sorted
    ids into the partition, which hold ``point_count`` points."""

    superpoint_ids: np.ndarray
    point_count: int
    score: float
    seed_superpoint: int
    pivot_view: int
    round_index: int
    objective: int
    proposal_id: int = -1


@dataclass
class RoundStats:
    """Seeds of one round: each made a proposal or failed for one cause."""

    round_index: int
    seeds_used: int
    proposals_emitted: int
    no_pivot: int = 0
    prompt_on_background: int = 0
    empty_selection: int = 0
    deduped: int = 0  # of the proposals emitted, those that dedup removed

    @property
    def unliftable_seeds(self) -> int:
        return self.no_pivot + self.prompt_on_background + self.empty_selection


@dataclass
class PipelineResult:
    proposals: list[Proposal]
    rounds: list[RoundStats]
    superpoint_count: int
    partition: SuperpointPartition = field(repr=False)
    timings_s: dict[str, float] = field(default_factory=dict, repr=False)


def subsample_views(frames: Sequence, stride: int) -> Sequence:
    """Every stride-th frame, starting at 0, order preserved: a slice, so a
    loaded scene's views stay unread."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    return frames[::stride]


@dataclass
class PipelineState:
    """Context shared by every round and every strategy run on one scene.

    Everything but ``lifted`` is read-only. ``pixels`` keeps the working
    views' instance renders, which the oracle and noisy trackers read.
    ``lifted`` memoises the strategy-independent half of each track: its
    ``LiftedTrack`` or its failure cause. A seed's key is (tracker, seed,
    track id); the pivot, the query and the noisy tracker's RNG seed depend
    only on the state, its config and that key, so every strategy reads the
    same entry. A file track's key is ("file", its position in the track
    list, its track id), so a state serves one track list.
    """

    partition: SuperpointPartition
    neighbors: np.ndarray
    pixels: PixelIndex
    config: PipelineConfig
    lifted: dict[tuple[str, int, int], LiftedTrack | str] = field(default_factory=dict, repr=False)


NORMALS_K = 12  # neighbours of the PCA normal fit
SUPERPOINT_KNN = 10  # neighbours per point in the k-NN graph that the graph cut runs on


def prepare_state(cloud, frames, instances, config) -> PipelineState:
    """Subsample views, partition the cloud, and index its projections.

    Each working view is read once, as it is projected, after the
    partition: no depth map is held while the normals and the graph cut
    run, and only one while views are projected. The index reads the
    working instance renders in the same pass, keeps them, and counts them
    per id.
    """
    working = subsample_views(frames, config.view_stride)
    winst = subsample_views(instances, config.view_stride) if instances is not None else None
    if not working:
        raise DataError("scene has no frames")
    if winst is not None and len(winst) != len(working):
        raise DataError("one instance render per frame required")
    if len(cloud) < 4:  # estimate_normals fits planes to at least 3 neighbours
        raise DataError(f"the cloud has {len(cloud)} points; at least 4 are needed")
    # one query serves both; each reads its k from its array's width
    normal_nbr, graph_nbr = shared_knn(cloud.positions, (min(NORMALS_K, len(cloud) - 1), SUPERPOINT_KNN))
    normals = estimate_normals(cloud.positions, normal_nbr)
    partition = partition_superpoints(cloud, normals, graph_nbr)
    del normal_nbr, graph_nbr, normals  # the k-NN and normals are not needed past the partition
    neighbors = knn_centroids(partition.centroids, config.kappa)
    shape = (working[0].height, working[0].width)

    def projections():
        # one view read and projected at a time: only the index is kept, never every view's points at once
        for t, frame in enumerate(working):
            if (frame.height, frame.width) != shape:
                raise DataError(f"frame {t}: image size {(frame.height, frame.width)} differs from {shape}")
            yield project_cloud(cloud.positions, [frame], config.depth_tolerance)[0]

    pixels = PixelIndex.build(partition, projections(), shape, winst)
    return PipelineState(partition, neighbors, pixels, config)


def _combine_seed(base_seed: int, track_id: int) -> int:
    return (base_seed * 1_000_003 + track_id) % (2**63)


@dataclass(frozen=True)
class LiftedTrack:
    """A track lifted to its visibility matrix, with the fields a Proposal
    keeps; the masks themselves are dropped. ``vis`` keeps only the columns
    of ``superpoints``, the track's sorted candidates: no strategy selects
    a superpoint outside every visibility row."""

    vis: VisibilityMatrix
    superpoints: np.ndarray
    track_id: int
    score: float
    pivot_view: int
    seed_superpoint: int


def _lift(state: PipelineState, track: MaskTrack) -> LiftedTrack:
    cfg = state.config
    vis = visibility_matrix(track, state.pixels, tau=cfg.tau)
    cand = vis.candidates()
    vis = VisibilityMatrix(vis.views, vis.rows[:, cand], vis.in_counts[:, cand], vis.total_counts[:, cand])
    return LiftedTrack(vis, cand, track.track_id, float(track.score), track.pivot_view, track.seed_superpoint)


def _track_and_lift(state: PipelineState, seed: int, track_id: int, tracker: str) -> LiftedTrack | str:
    """Pivot, query, track and lift one seed, once per state; a failed seed
    gives its cause, ``no_pivot`` or ``prompt_on_background``."""
    key = (tracker, seed, track_id)
    if key in state.lifted:
        return state.lifted[key]
    cfg = state.config
    try:
        pivot = pivot_view(seed, state.pixels.counts, state.partition.sizes, state.neighbors)
        query = build_tracker_query(seed, state.pixels, pivot, memory_window=cfg.memory_window)
        if tracker == "oracle":
            track = oracle_track(query, state.pixels, track_id, seed)
        else:
            track = noisy_track(query, state.pixels, cfg.noise_spec(), _combine_seed(cfg.seed, track_id), track_id, seed)
    except NoPivotViewError:
        lifted = "no_pivot"
    except TrackingError:
        lifted = "prompt_on_background"
    else:
        lifted = _lift(state, track)
    state.lifted[key] = lifted
    return lifted


def _refine(state: PipelineState, lifted: LiftedTrack, refine, round_index: int) -> Proposal | None:
    """Refine a lifted track into a proposal; None when the selection is empty."""
    vis = lifted.vis
    try:
        solution = refine(vis)  # over the candidate columns, scattered back to every superpoint below
    except ValueError as exc:  # a view enumerator's cap
        raise DataError(f"track {lifted.track_id}: {exc}") from exc
    recount = objective_from_counts(solution.theta, vis)
    if solution.objective != recount:
        raise InvariantViolation(f"track {lifted.track_id}: refined objective {solution.objective} != recount {recount}")
    ids = lifted.superpoints[solution.selected()]
    if ids.size == 0:
        return None
    return Proposal(
        superpoint_ids=ids,
        point_count=int(state.partition.sizes[ids].sum()),
        score=lifted.score,
        seed_superpoint=lifted.seed_superpoint,
        pivot_view=lifted.pivot_view,
        round_index=round_index,
        objective=solution.objective,
    )


def _dedup(proposals: list[Proposal], sizes: np.ndarray, dedup_iou: float) -> list[Proposal]:
    """The proposals, best first, without any whose IoU with a better one
    passes ``dedup_iou``. Each proposal is weighed as its superpoints' sizes,
    0 elsewhere, so ``mask_iou`` divides the point counts of overlap and union."""
    ordered = sorted(
        proposals, key=lambda p: (-p.score, p.round_index, p.seed_superpoint)
    )
    kept: list[tuple[Proposal, np.ndarray]] = []
    for prop in ordered:
        weights = np.zeros_like(sizes)
        weights[prop.superpoint_ids] = sizes[prop.superpoint_ids]
        if all(mask_iou(weights, other) <= dedup_iou for _, other in kept):
            kept.append((prop, weights))
    return [prop for prop, _ in kept]


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
    turns each into a proposal; seeds without a pivot view, whose prompts
    hit background or whose refined selection is empty are counted by
    cause. ``free`` is updated in place: attempted seeds and the members of
    emitted proposals become non-free.
    """
    want = min(state.config.samples_per_round, int(free.sum()))
    seeds = fps_sample(state.partition.centroids, want, eligible=free)
    proposals = []
    stats = RoundStats(round_index, len(seeds), 0)
    for i, seed in enumerate(seeds):
        lifted = _track_and_lift(state, seed, track_id_start + i, tracker)
        if isinstance(lifted, str):
            setattr(stats, lifted, getattr(stats, lifted) + 1)  # the cause names its counter
            continue
        prop = _refine(state, lifted, refine, round_index)
        if prop is None:
            stats.empty_selection += 1
            continue
        proposals.append(prop)
        free[prop.superpoint_ids] = False
    free[seeds] = False  # failed seeds are consumed too
    stats.proposals_emitted = len(proposals)
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
    frames: Sequence[CameraFrame],
    config: PipelineConfig,
    tracker: str = "oracle",
    instances: Sequence[np.ndarray] | None = None,
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

    Each seed, and each file track, is lifted once per state (see
    ``PipelineState``), so one state serves any number of strategies and
    only refinement runs again.
    """
    _check_tracker(tracker, state.pixels.renders, tracks)
    config = state.config
    refine = parse_strategy(strategy)

    proposals: list[Proposal] = []
    rounds: list[RoundStats] = []
    if tracker == "file":
        for position, track in enumerate(tracks):
            key = ("file", position, track.track_id)
            if key not in state.lifted:
                try:
                    state.lifted[key] = _lift(state, track)
                except ValueError as exc:  # a view outside the index or a mask of the wrong shape
                    raise DataError(str(exc)) from exc
            prop = _refine(state, state.lifted[key], refine, round_index=0)
            if prop is not None:
                proposals.append(prop)
        empty = len(tracks) - len(proposals)
        rounds.append(RoundStats(0, len(tracks), len(proposals), empty_selection=empty))
    else:
        free = np.ones(state.partition.count, dtype=bool)
        track_id = 0
        while free.any():  # each round consumes at least one free superpoint
            new_proposals, stats = run_round(state, free, tracker, refine, len(rounds), track_id)
            proposals.extend(new_proposals)
            rounds.append(stats)
            track_id += stats.seeds_used

    kept = _dedup(proposals, state.partition.sizes, config.dedup_iou)
    for prop in proposals:
        rounds[prop.round_index].deduped += 1
    for i, prop in enumerate(kept):
        prop.proposal_id = i
        rounds[prop.round_index].deduped -= 1
    return PipelineResult(
        proposals=kept,
        rounds=rounds,
        superpoint_count=state.partition.count,
        partition=state.partition,
    )


# --- proposal files --------------------------------------------------------
#
# proposals: one JSON object per line with id, score, superpoints,
# point_count and provenance. An optional companion file carries each
# proposal's sorted point ids, for evaluators that lack the partition.


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

    records: dict[int, dict] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            score = record.get("score") if isinstance(record, dict) else None
            finite = type(score) in (int, float) and math.isfinite(score)
        except (ValueError, OverflowError, RecursionError) as exc:  # bad JSON, over-long or deeply nested values
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        if not finite or type(record.get("id")) is not int:
            raise DataError(f"{path}: line {lineno}: needs an integer \"id\" and a finite \"score\"")
        if record["id"] in records:
            raise DataError(f"{path}: line {lineno}: repeated id {record['id']}")
        records[record["id"]] = record
    return list(records.values())


def write_proposal_points(proposals: list[Proposal], partition: SuperpointPartition, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for prop in proposals:
            indices = partition.point_ids(prop.superpoint_ids)
            fh.write(f"{prop.proposal_id} " + " ".join(str(int(i)) for i in indices) + "\n")


def read_proposal_points(path, point_count: int) -> dict[int, np.ndarray]:
    """Each line's proposal id and its sorted, unique point ids; repeated ids count once."""
    out: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            pid = int(tokens[0])
            idx = np.array([int(t) for t in tokens[1:]], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: line {lineno}: bad point record") from exc
        if idx.size and (idx.min() < 0 or idx.max() >= point_count):
            raise DataError(f"{path}: line {lineno}: point index out of range")
        if pid in out:
            raise DataError(f"{path}: line {lineno}: repeated id {pid}")
        out[pid] = np.unique(idx)
    return out
