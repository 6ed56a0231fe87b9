"""Workload definitions shared by the orchestrator and the worker.

Pure data and argv builders: importing this module loads neither numpy nor
seglift, so the orchestrator stays light and a fresh worker process pays for
every import it times.
"""

from __future__ import annotations

WORKLOADS = ("suite", "crowd", "ablate", "file-tracks")
SCALES = ("full", "smoke")

# Workload seed 0 reproduces exactly the scenes the benchmark was sized on:
# suite scenes 0..4, and scene seed 3 for the crowd and stress scenes.
DEFAULT_SEED = 0

SUITE_GATE = {"ap": 0.90, "rc25": 0.95}

# Files whose sha256 is compared against golden.json at the default seed.
HASHED_OUTPUTS = {"segment": ("proposals.jsonl", "points.txt"), "ablate": ("ablation.tsv",)}

_CROWD_FULL = dict(
    room_size=(12.0, 12.0, 3.0), object_count=48, frame_count=120, density=150.0, image_size=(160, 120)
)
_CROWD_SMOKE = dict(room_size=(8.0, 8.0, 3.0), object_count=12, frame_count=30, density=60.0, image_size=(80, 60))
_STRESS_FULL = dict(object_count=8, frame_count=120, density=500.0, image_size=(160, 120))
_STRESS_SMOKE = dict(object_count=4, frame_count=30, density=120.0, image_size=(80, 60))


def scenes(workload: str, seed: int, scale: str) -> list[tuple[str, dict]]:
    """(cache key, SceneSpec keyword arguments) for every scene the workload reads."""
    if workload == "suite":
        count = 5 if scale == "full" else 2
        return [
            (f"suite-{5 * seed + i}-o{4 + i % 5}", dict(object_count=4 + i % 5, frame_count=60, seed=5 * seed + i))
            for i in range(count)
        ]
    if workload == "crowd":
        spec = _CROWD_FULL if scale == "full" else _CROWD_SMOKE
        return [(f"crowd-{scale}-{3 + seed}", dict(spec, seed=3 + seed))]
    spec = _STRESS_FULL if scale == "full" else _STRESS_SMOKE
    return [(f"stress-{scale}-{3 + seed}", dict(spec, seed=3 + seed))]


FILE_TRACKS_STRIDE = 2
TRACKS_PER_OBJECT = 5
ABLATE_FLAGS = ("--tracker", "noisy", "--noise-p-flip", "0.3", "--noise-r-morph", "2", "--stride", "10")


def invocations(workload: str, scenes_dirs: list[str], tracks_path: str | None, out: str):
    """The CLI calls of one iteration: a list of (label, argv)."""
    calls = []
    if workload == "suite":
        for i, scene in enumerate(scenes_dirs):
            run = f"{out}/scene{i}"
            calls.append((f"scene{i}.segment", ["segment", "--scene", scene, "--tracker", "oracle",
                                                "--strategy", "dp", "--stride", "10", "--out", run]))
            calls.append((f"scene{i}.eval", _eval(scene, run)))
    elif workload == "crowd":
        calls.append(("segment", ["segment", "--scene", scenes_dirs[0], "--tracker", "oracle",
                                  "--stride", "1", "--out", out]))
        calls.append(("eval", _eval(scenes_dirs[0], out)))
    elif workload == "ablate":
        calls.append(("ablate", ["ablate", *ABLATE_FLAGS, "--scene", scenes_dirs[0], "--out", out]))
    elif workload == "file-tracks":
        calls.append(("segment", ["segment", "--scene", scenes_dirs[0], "--tracker", f"file:{tracks_path}",
                                  "--stride", str(FILE_TRACKS_STRIDE), "--out", out]))
        calls.append(("eval", _eval(scenes_dirs[0], out)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def warmup(workload: str, scenes_dirs: list[str], tracks_path: str | None, out: str):
    """The untimed warm-up call: the iteration's first segment on its first scene.

    ablate warms up with a single segment under the same flags, so the
    warm-up costs one pipeline run on every workload.
    """
    if workload == "ablate":
        return ("warmup.segment", ["segment", *ABLATE_FLAGS, "--scene", scenes_dirs[0], "--out", out])
    label, argv = invocations(workload, scenes_dirs, tracks_path, out)[0]
    return ("warmup." + label, argv)


def _eval(scene: str, run: str) -> list[str]:
    return ["eval", "--scene", scene, "--proposals", f"{run}/proposals.jsonl", "--out", f"{run}/eval.txt"]


# Layers that must see at least one call on a workload; zero calls is an error.
_PIPELINE_LAYERS = (
    "synth.load_scene",
    "geometry.estimate_normals",
    "superpoints.partition_superpoints",
    "geometry.project_cloud",
    "geometry.knn_centroids",
    "view_select.superpoint_view_counts",
    "pipeline.prepare_state",
    "optimize.visibility_matrix",
    "optimize.refine",
    "evaluation.evaluate",
)
_SEED_LOOP_LAYERS = (
    "geometry.fps_sample",
    "view_select.pivot_view",
    "tracks.build_tracker_query",
    "tracks.track",
    "pipeline.run_round",
)
_FILE_LAYERS = ("pipeline.write", "pipeline.read")
EXPECTED_LAYERS = {
    "suite": _PIPELINE_LAYERS + _SEED_LOOP_LAYERS + _FILE_LAYERS,
    "crowd": _PIPELINE_LAYERS + _SEED_LOOP_LAYERS + _FILE_LAYERS + ("pipeline.dedup_iou",),
    "ablate": _PIPELINE_LAYERS + _SEED_LOOP_LAYERS + ("pipeline.dedup_iou",),
    "file-tracks": _PIPELINE_LAYERS + _FILE_LAYERS + ("tracks.read_tracks", "pipeline.dedup_iou"),
}
