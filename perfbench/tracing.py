"""Spans around seglift's layer functions, installed from outside the package.

``install`` rebinds each layer function in every ``seglift`` module namespace
that holds it, so a call reaches the wrapper whichever module makes it, and a
refactor that moves a call site is still caught. Spans (name, start, end,
parent, iteration, extras, CPU-speed factor) stay in memory; ``layer_table`` derives self
time, call counts and ratios from them once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from pathlib import Path

# layer name -> (defining module, functions whose spans carry that name)
LAYERS = {
    "synth.load_scene": ("synth", ("load_scene",)),
    "geometry.estimate_normals": ("geometry", ("estimate_normals",)),
    "geometry.project_cloud": ("geometry", ("project_cloud",)),
    "geometry.knn_centroids": ("geometry", ("knn_centroids",)),
    "geometry.fps_sample": ("geometry", ("fps_sample",)),
    "superpoints.partition_superpoints": ("superpoints", ("partition_superpoints",)),
    "view_select.superpoint_view_counts": ("view_select", ("superpoint_view_counts",)),
    "view_select.pivot_view": ("view_select", ("pivot_view",)),
    "tracks.build_tracker_query": ("tracks", ("build_tracker_query",)),
    "tracks.track": ("tracks", ("oracle_track", "noisy_track")),
    "tracks.read_tracks": ("tracks", ("read_tracks",)),
    "optimize.visibility_matrix": ("optimize", ("visibility_matrix",)),
    "optimize.refine": (
        "optimize",
        ("dp_refine", "top_k_views_refine", "all_lifted", "brute_force_views", "brute_force_superpoints"),
    ),
    "pipeline.prepare_state": ("pipeline", ("prepare_state",)),
    "pipeline.run_round": ("pipeline", ("run_round",)),
    "pipeline.run_pipeline": ("pipeline", ("run_pipeline",)),
    "pipeline.write": ("pipeline", ("write_proposals", "write_proposal_points")),
    "pipeline.read": ("pipeline", ("read_proposals", "read_proposal_points")),
    "evaluation.evaluate": ("evaluation", ("evaluate",)),
    "evaluation.mask_iou": ("evaluation", ("mask_iou",)),
}
# The only timers of an untraced run: together they give setup_s.
SETUP_LAYERS = ("synth.load_scene", "pipeline.prepare_state")


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Tracer:
    """Records one span per wrapped call; spans of the warm-up are dropped."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._dir_bytes: dict[str, int] = {}

    def reset(self) -> None:
        self.spans.clear()

    def install(self, layers) -> list[str]:
        """Wrap the named layers; return the names whose functions were not found."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "seglift" or name.startswith("seglift.")]
        missing = []
        for layer in layers:
            home, names = LAYERS[layer]
            for fname in names:
                original = _find(modules, home, fname)
                if original is None:
                    missing.append(f"{layer} ({home}.{fname})")
                    continue
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        return missing

    def _wrap(self, layer: str, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [layer, clock(), 0.0, stack[-1] if stack else -1, self.iteration, None, 1.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = {"error": type(exc).__name__}
                raise
            finally:
                record[2] = clock()
                stack.pop()
            record[5] = self._extras(layer, signature, args, kwargs, result)
            return result

        return wrapper

    def _extras(self, layer, signature, args, kwargs, result):
        """Counts observed at the layer boundary, recorded outside the span."""
        if layer == "superpoints.partition_superpoints":
            return {"superpoints": int(result.count)}
        if layer == "geometry.project_cloud":
            bound = signature.bind(*args, **kwargs).arguments
            slots = len(bound["positions"]) * len(bound["frames"])
            return {"kept": sum(len(ps) for ps in result), "slots": slots}
        if layer == "optimize.visibility_matrix":
            return {"views": int(result.view_count)}
        if layer == "pipeline.run_pipeline":
            return {
                "seeds": sum(r.seeds_used for r in result.rounds),
                "emitted": sum(r.proposals_emitted for r in result.rounds),
                "kept": len(result.proposals),
            }
        if layer == "tracks.read_tracks":
            return {"bytes": os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])}
        if layer == "synth.load_scene":
            path = str(signature.bind(*args, **kwargs).arguments["path"])
            if path not in self._dir_bytes:
                self._dir_bytes[path] = _dir_bytes(path)
            return {"bytes": self._dir_bytes[path]}
        return None

    def setup_seconds(self, first: int) -> float:
        """Raw seconds inside the outermost setup spans from span ``first`` on."""
        total = 0.0
        for name, start, end, parent, *_ in self.spans[first:]:
            if name in SETUP_LAYERS and not self._under(parent, SETUP_LAYERS):
                total += end - start
        return total

    def scale(self, first: int, factor: float) -> None:
        """Set the CPU-speed factor of the spans from span ``first`` on."""
        for record in self.spans[first:]:
            record[6] = factor

    def _under(self, parent: int, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_table(self, iterations: int, walls: list[float]) -> dict:
        """Per-iteration self time, calls and ratios for every layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {}  # (metric layer, iteration) -> seconds
        calls = {}
        sums: dict[str, float] = {}
        for i, (name, start, end, parent, it, extra, factor) in enumerate(spans):
            if name == "evaluation.mask_iou" and not self._under(parent, ("evaluation.evaluate",)):
                name = "pipeline.dedup_iou"
            key = (name, it)
            self_s[key] = self_s.get(key, 0.0) + (end - start - child[i]) * factor
            if parent >= 0 and spans[parent][0] == name:
                continue  # e.g. noisy_track's inner oracle_track: one call, one outcome
            calls[key] = calls.get(key, 0) + 1
            sums[f"{name}.n"] = sums.get(f"{name}.n", 0) + 1
            for k, v in (extra or {}).items():
                if k == "error":
                    k = f"error.{v}"
                    v = 1
                sums[f"{name}.{k}"] = sums.get(f"{name}.{k}", 0) + v

        names = sorted(set(LAYERS) | {"pipeline.dedup_iou"})
        table = {}
        for name in names:
            table[f"{name}.self_s"] = statistics.median(self_s.get((name, it), 0.0) for it in range(iterations))
            table[f"{name}.calls"] = statistics.median(calls.get((name, it), 0) for it in range(iterations))

        def per_iteration(key: str) -> float:
            return sums.get(key, 0) / iterations

        def ratio(num: str, den: str) -> float:
            return sums.get(num, 0) / sums[den] if sums.get(den) else 0.0

        total_self = [sum(v for (n, it), v in self_s.items() if it == i) for i in range(iterations)]
        table.update(
            {
                "superpoints.count": ratio("superpoints.partition_superpoints.superpoints",
                                           "superpoints.partition_superpoints.n"),
                "geometry.project_cloud.kept_frac": ratio("geometry.project_cloud.kept", "geometry.project_cloud.slots"),
                "view_select.no_pivot": per_iteration("view_select.pivot_view.error.NoPivotViewError"),
                "tracks.tracking_errors": per_iteration("tracks.build_tracker_query.error.TrackingError")
                + per_iteration("tracks.track.error.TrackingError"),
                "tracks.read_tracks.mb": per_iteration("tracks.read_tracks.bytes") / 1e6,
                "synth.load_scene.mb": per_iteration("synth.load_scene.bytes") / 1e6,
                "optimize.visibility_matrix.views": per_iteration("optimize.visibility_matrix.views"),
                "pipeline.seeds": per_iteration("pipeline.run_pipeline.seeds"),
                "pipeline.seed_yield": ratio("pipeline.run_pipeline.emitted", "pipeline.run_pipeline.seeds"),
                "pipeline.dedup_kept_frac": ratio("pipeline.run_pipeline.kept", "pipeline.run_pipeline.emitted"),
                "trace.wall_s": statistics.median(walls),
                "trace.unattributed_s": statistics.median(w - s for w, s in zip(walls, total_self)),
            }
        )
        return table


def _find(modules, home: str, fname: str):
    """The layer function: from its home module, else wherever seglift defines it now."""
    for module in modules:
        if module.__name__ == f"seglift.{home}" and inspect.isfunction(getattr(module, fname, None)):
            return getattr(module, fname)
    for module in modules:
        value = getattr(module, fname, None)
        if inspect.isfunction(value) and value.__module__.startswith("seglift"):
            return value
    return None
