"""Command-line entry point: generate | segment | eval | ablate.

Flag precedence is command line > config file > built-in default. Exit
codes: 0 success, 2 usage error, 3 data/format error, 4 internal invariant
violation; a run whose stdout was closed early (``seglift eval ... | head -1``)
exits 1 without a message. Every segment run writes a manifest capturing the exact
configuration needed to reproduce it; ablate writes only its table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
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
from .synth import SceneSpec, build_scene, load_instance_ids, load_scene, save_scene
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
        # every other flag's dest is the PipelineConfig field it overrides
        p.add_argument("--tau", type=float)
        p.add_argument("--depth-tol", type=float, dest="depth_tolerance")
        p.add_argument("--stride", type=int, dest="view_stride")
        p.add_argument("--kappa", type=int)
        p.add_argument("--strategy")
        p.add_argument("--samples-per-round", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--dedup-iou", type=float)
        p.add_argument("--noise-p-drop", type=float)
        p.add_argument("--noise-r-morph", type=int)
        p.add_argument("--noise-p-flip", type=float)
        p.add_argument("--memory-window", type=int)

    seg = sub.add_parser("segment", help="run the proposal pipeline on a scene")
    add_segment_flags(seg)

    ev = sub.add_parser("eval", help="score a proposal file against scene ground truth")
    ev.add_argument("--scene", required=True)
    ev.add_argument("--proposals", required=True)
    ev.add_argument("--out")

    abl = sub.add_parser("ablate", help="compare refinement strategies on one scene")
    add_segment_flags(abl)
    return parser


def _resolve_config(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    flags = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    try:
        return PipelineConfig.from_mapping({k: v for k, v in flags.items() if v is not None}, base=config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_dims(text: str, n: int, flag: str, kind: type) -> tuple:
    """``n`` values of ``kind`` separated by 'x'; ``int`` takes whole numbers only."""
    parts = text.lower().split("x")
    if len(parts) != n:
        raise UsageError(f"{flag} expects {n} values separated by 'x'")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad {flag} value {text!r}") from exc


def _make_out_dir(path) -> Path:
    """The ``--out`` directory, made with its parents; a path that cannot be one is a DataError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make directory {path}: {exc}") from exc
    return Path(path)


def cmd_generate(args) -> int:
    image_size = _parse_dims(args.size, 2, "--size", int)
    room_size = _parse_dims(args.room, 3, "--room", float)
    try:
        spec = SceneSpec(
            room_size=room_size,
            object_count=args.objects,
            frame_count=args.frames,
            image_size=image_size,
            density=args.density,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _make_out_dir(args.out)  # before the build, so an unusable path fails at once
    scene = build_scene(spec)
    save_scene(scene, args.out, force=args.force)
    print(f"scene written to {args.out}: {args.objects} objects, {args.frames} frames")
    return 0


def _load_inputs(args, need_gt: bool = False):
    """(scene, tracker, instance renders, tracks, seconds to load the scene).

    The scene loads first, then the track file of a ``file:PATH`` tracker;
    the oracle and noisy trackers take the scene's instance renders instead.
    Loading checks every frame file but reads none: ``prepare_state`` reads
    the working views' depth maps and, for those two trackers, their
    instance renders, so a file tracker never opens an instance render.
    """
    rendered = args.tracker in ("oracle", "noisy")
    start = time.perf_counter()
    scene = load_scene(args.scene, require_instances=rendered)
    load_s = time.perf_counter() - start
    if need_gt and (scene.cloud.gt_instance is None or not np.any(scene.cloud.gt_instance >= 0)):
        raise DataError(f"{args.scene}: ablation needs ground-truth instances")
    if rendered:
        return scene, args.tracker, scene.instances, None, load_s
    if not args.tracker.startswith("file:"):
        raise UsageError(f"unknown tracker {args.tracker!r}; expected oracle, noisy or file:PATH")
    return scene, "file", None, read_tracks(args.tracker[len("file:") :]), load_s


def _write_manifest(path, command, args, config, result, timings, outputs):
    manifest = {
        "command": command,
        "inputs": {"scene": str(args.scene), "tracker": args.tracker},
        "outputs": outputs,
        "config": config.to_dict(),
        "seed": config.seed,
        "rounds": [
            {"round": r.round_index, "unliftable_seeds": r.unliftable_seeds,
             **{k: v for k, v in asdict(r).items() if k != "round_index"}}
            for r in result.rounds
        ],
        "superpoint_count": result.superpoint_count,
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_segment(args) -> int:
    config = _resolve_config(args)
    scene, tracker, instances, tracks, load_s = _load_inputs(args)
    out_dir = _make_out_dir(args.out)  # after the inputs load, so a failed load leaves no directory
    result = run_pipeline(scene.cloud, scene.frames, config, tracker, instances, tracks)
    timings = {"load": load_s, **result.timings_s}
    proposals_path = out_dir / "proposals.jsonl"
    write_proposals(result.proposals, proposals_path)
    points_path = out_dir / "points.txt"
    write_proposal_points(result.proposals, result.partition, points_path)
    outputs = {"proposals": str(proposals_path), "points": str(points_path)}
    _write_manifest(out_dir / "manifest.json", "segment", args, config, result, timings, outputs)
    print(f"{len(result.proposals)} proposals over {result.superpoint_count} superpoints ({len(result.rounds)} rounds)")
    return 0


def cmd_eval(args) -> int:
    gt_instance = load_instance_ids(args.scene)
    if not np.any(gt_instance >= 0):
        raise DataError(f"{args.scene}: scene has no ground-truth instances")
    records = read_proposals(args.proposals)
    points_path = Path(args.proposals).with_name("points.txt")
    if records and not points_path.is_file():
        raise DataError(f"{points_path}: point index companion file is required for eval")
    point_ids = read_proposal_points(points_path, len(gt_instance)) if records else {}
    records = sorted(records, key=lambda r: (-r["score"], r["id"]))
    for record in records:
        if record["id"] not in point_ids:
            raise DataError(f"proposal {record['id']}: missing point indices")
    ids = [point_ids[r["id"]] for r in records]
    text = evaluate(ids, [float(r["score"]) for r in records], gt_instance).text()
    print(text)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="ascii")
        except BrokenPipeError:  # a closed pipe exits 1 without a message, as for stdout
            raise
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
    return 0


def cmd_ablate(args) -> int:
    if args.strategy is not None:  # a config file's strategy is ignored: one file serves both commands
        raise UsageError(f"ablate always runs the strategies {', '.join(ABLATION_STRATEGIES)}; drop --strategy")
    config = _resolve_config(args)
    scene, tracker, instances, tracks, _ = _load_inputs(args, need_gt=True)
    out_dir = _make_out_dir(args.out)
    state = prepare_state(scene.cloud, scene.frames, instances, config)

    rows = []
    for strategy in ABLATION_STRATEGIES:
        proposals = run_rounds(state, strategy, tracker, tracks).proposals
        ids = [state.partition.point_ids(p.superpoint_ids) for p in proposals]
        report = evaluate(ids, [p.score for p in proposals], scene.cloud.gt_instance)
        mean_obj = float(np.mean([p.objective for p in proposals])) if proposals else 0.0
        rows.append([strategy, *(f"{v:.6f}" for _, v in report.table()), f"{mean_obj:.3f}", str(config.seed)])
    header = ["strategy", *(name for name, _ in report.table()), "mean_objective", "seed"]
    table = "\n".join("\t".join(row) for row in [header, *rows])
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
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, not in a traceback at exit
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the final flush drops the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
