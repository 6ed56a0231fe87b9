"""Command-line entry point: generate | segment | eval | ablate.

Flag precedence is command line > config file > built-in default. Exit
codes: 0 success, 2 usage error, 3 data/format error, 4 internal invariant
violation. Every segment/ablate run writes a manifest capturing the exact
configuration needed to reproduce it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import DataError, InvariantViolation
from .evaluation import evaluate
from .pipeline import (
    PipelineConfig,
    prepare_state,
    read_proposal_points,
    read_proposals,
    run_pipeline,
    run_rounds,
    write_proposal_points,
    write_proposals,
)
from .synth import SceneSpec, build_scene, load_scene, save_scene
from .tracks import read_tracks

ABLATION_STRATEGIES = ("all_lifted", "top_k:1", "top_k:5", "top_k:10", "dp")


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seglift")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic scene directory")
    gen.add_argument("--out", required=True)
    gen.add_argument("--objects", type=int, default=5)
    gen.add_argument("--frames", type=int, default=60)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", default="64x64", help="image size WxH")
    gen.add_argument("--density", type=float, default=120.0)
    gen.add_argument("--room", default="6x6x3", help="room extents XxYxZ in meters")
    gen.add_argument("--force", action="store_true")

    def add_segment_flags(p):
        p.add_argument("--scene", required=True)
        p.add_argument("--tracker", default="oracle", help="oracle | noisy | file:PATH")
        p.add_argument("--out", required=True)
        p.add_argument("--config")
        p.add_argument("--tau", type=float)
        p.add_argument("--depth-tol", type=float, dest="depth_tol")
        p.add_argument("--stride", type=int)
        p.add_argument("--kappa", type=int)
        p.add_argument("--strategy")
        p.add_argument("--samples-per-round", type=int, dest="samples_per_round")
        p.add_argument("--max-rounds", type=int, dest="max_rounds")
        p.add_argument("--seed", type=int)
        p.add_argument("--overlap-mode", dest="overlap_mode")
        p.add_argument("--dedup-iou", type=float, dest="dedup_iou")
        p.add_argument("--noise-p-drop", type=float, dest="noise_p_drop")
        p.add_argument("--noise-r-morph", type=int, dest="noise_r_morph")
        p.add_argument("--noise-p-flip", type=float, dest="noise_p_flip")
        p.add_argument("--memory-window", type=int, dest="memory_window")
        p.add_argument("--no-points", action="store_true", help="skip the point index companion file")

    seg = sub.add_parser("segment", help="run the proposal pipeline on a scene")
    add_segment_flags(seg)

    ev = sub.add_parser("eval", help="score a proposal file against scene ground truth")
    ev.add_argument("--scene", required=True)
    ev.add_argument("--proposals", required=True)
    ev.add_argument("--out")

    abl = sub.add_parser("ablate", help="compare refinement strategies on one scene")
    add_segment_flags(abl)
    return parser


_FLAG_TO_FIELD = {
    "tau": "tau",
    "depth_tol": "depth_tolerance",
    "stride": "view_stride",
    "kappa": "kappa",
    "strategy": "strategy",
    "samples_per_round": "samples_per_round",
    "max_rounds": "max_rounds",
    "seed": "seed",
    "overlap_mode": "overlap_mode",
    "dedup_iou": "dedup_iou",
    "noise_p_drop": "noise_p_drop",
    "noise_r_morph": "noise_r_morph",
    "noise_p_flip": "noise_p_flip",
    "memory_window": "memory_window",
}


def _resolve_config(args) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        config = PipelineConfig.from_file(args.config, base=config)
    overrides = {}
    for flag, field_name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    if overrides:
        try:
            config = PipelineConfig.from_mapping(overrides, base=config)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return config


def _parse_dims(text: str, n: int, flag: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != n:
        raise UsageError(f"{flag} expects {n} values separated by 'x'")
    try:
        return tuple(float(p) if "." in p else int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad {flag} value {text!r}") from exc


def cmd_generate(args) -> int:
    width, height = _parse_dims(args.size, 2, "--size")
    room = _parse_dims(args.room, 3, "--room")
    try:
        spec = SceneSpec(
            room_size=tuple(float(v) for v in room),
            object_count=args.objects,
            frame_count=args.frames,
            image_size=(int(width), int(height)),
            density=args.density,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    scene = build_scene(spec)
    save_scene(scene, args.out, force=args.force)
    print(f"scene written to {args.out}: {args.objects} objects, {args.frames} frames")
    return 0


def _load_tracker(args):
    tracker = args.tracker
    if tracker in ("oracle", "noisy"):
        return tracker, None
    if tracker.startswith("file:"):
        return "file", read_tracks(tracker[len("file:") :])
    raise UsageError(f"unknown tracker {tracker!r}; expected oracle, noisy or file:PATH")


def _run_segment(scene_dir, args, config):
    t0 = time.perf_counter()
    scene = load_scene(scene_dir, require_instances=args.tracker in ("oracle", "noisy"))
    load_s = time.perf_counter() - t0
    tracker, tracks = _load_tracker(args)
    result = run_pipeline(
        scene.cloud,
        scene.frames,
        config,
        tracker=tracker,
        instances=scene.instances if tracker in ("oracle", "noisy") else None,
        tracks=tracks,
    )
    return scene, result, {"load": load_s, **result.timings_s}


def _write_manifest(path, command, args, config, result, timings, outputs):
    manifest = {
        "command": command,
        "inputs": {"scene": str(args.scene), "tracker": args.tracker},
        "outputs": outputs,
        "config": config.to_dict(),
        "seed": config.seed,
        "rounds": [
            {
                "round": r.round_index,
                "seeds_used": r.seeds_used,
                "proposals_emitted": r.proposals_emitted,
                "unliftable_seeds": r.unliftable_seeds,
            }
            for r in result.rounds
        ],
        "superpoint_count": result.superpoint_count,
        "leftover_free_superpoints": result.leftover_free_superpoints,
        "warnings": (
            [f"{result.leftover_free_superpoints} superpoints left free at max_rounds"]
            if result.leftover_free_superpoints
            else []
        ),
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_segment(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene, result, timings = _run_segment(args.scene, args, config)
    proposals_path = out_dir / "proposals.jsonl"
    write_proposals(result.proposals, proposals_path)
    outputs = {"proposals": str(proposals_path)}
    if not args.no_points:
        points_path = out_dir / "points.txt"
        write_proposal_points(result.proposals, points_path)
        outputs["points"] = str(points_path)
    _write_manifest(out_dir / "manifest.json", "segment", args, config, result, timings, outputs)
    print(
        f"{len(result.proposals)} proposals over {result.superpoint_count} superpoints "
        f"({len(result.rounds)} rounds, {result.leftover_free_superpoints} superpoints left free)"
    )
    return 0


def cmd_eval(args) -> int:
    scene = load_scene(args.scene)
    if scene.cloud.gt_instance is None or not np.any(scene.cloud.gt_instance >= 0):
        raise DataError(f"{args.scene}: scene has no ground-truth instances")
    records = read_proposals(args.proposals)
    points_path = Path(args.proposals).with_name("points.txt")
    if records and not points_path.is_file():
        raise DataError(f"{points_path}: point index companion file is required for eval")
    point_masks = read_proposal_points(points_path, len(scene.cloud)) if records else {}
    records = sorted(records, key=lambda r: (-r["score"], r["id"]))
    masks, scores = [], []
    for record in records:
        if record["id"] not in point_masks:
            raise DataError(f"proposal {record['id']}: missing point indices")
        masks.append(point_masks[record["id"]])
        scores.append(float(record["score"]))
    if masks:
        report = evaluate(masks, scores, scene.cloud.gt_instance)
        text = report.text()
    else:
        text = "\n".join(f"{name}\t{0.0:.6f}" for name in ("ap", "ap50", "ap25", "rc", "rc50", "rc25"))
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    return 0


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene = load_scene(args.scene, require_instances=args.tracker in ("oracle", "noisy"))
    if scene.cloud.gt_instance is None or not np.any(scene.cloud.gt_instance >= 0):
        raise DataError(f"{args.scene}: ablation needs ground-truth instances")
    tracker, tracks = _load_tracker(args)
    instances = scene.instances if tracker in ("oracle", "noisy") else None
    state = prepare_state(scene.cloud, scene.frames, instances, config)

    header = ["strategy", "ap", "ap50", "ap25", "rc", "rc50", "rc25", "mean_objective", "seed"]
    lines = ["\t".join(header)]
    for strategy in ABLATION_STRATEGIES:
        result = run_rounds(state, strategy, tracker, tracks)
        masks = [p.point_mask for p in result.proposals]
        scores = [p.score for p in result.proposals]
        if masks:
            report = evaluate(masks, scores, scene.cloud.gt_instance)
            metrics = [report.ap, report.ap50, report.ap25, report.rc, report.rc50, report.rc25]
        else:
            metrics = [0.0] * 6
        mean_obj = float(np.mean([p.objective for p in result.proposals])) if result.proposals else 0.0
        lines.append(
            "\t".join(
                [strategy]
                + [f"{m:.6f}" for m in metrics]
                + [f"{mean_obj:.3f}", str(config.seed)]
            )
        )
    table = "\n".join(lines)
    print(table)
    (out_dir / "ablation.tsv").write_text(table + "\n", encoding="ascii")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "segment": cmd_segment,
        "eval": cmd_eval,
        "ablate": cmd_ablate,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
