"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Every oracle here is an independent reimplementation: plain
Python loops and scalar math, no shared code with the library's vectorized
paths.
"""

import math
import time

import numpy as np

from seglift.evaluation import evaluate
from seglift.geometry import (
    backproject_pixels,
    estimate_normals,
    knn_centroids,
    project_cloud,
    project_points,
)
from seglift.optimize import (
    VisibilityMatrix,
    all_lifted,
    brute_force_superpoints,
    brute_force_views,
    dp_refine,
    objective_value,
    top_k_views_refine,
    visibility_matrix,
)
from seglift.pipeline import PipelineConfig, run_pipeline
from seglift.superpoints import SuperpointPartition, partition_superpoints
from seglift.synth import SceneSpec, build_scene, save_scene
from seglift.tracks import MaskTrack, NoiseSpec, build_tracker_query, noisy_track
from seglift.view_select import NoPivotViewError, PixelIndex, pivot_view
from seglift.errors import TrackingError
from seglift.cli import main as cli_main

from conftest import make_frame, pose_from, rotation_z

# the acceptance boundary-noise fixture; mild enough that the greedy sweep
# matches the exhaustive view search on all but a few tracks
BOUNDARY_NOISE = NoiseSpec(p_flip=0.2, r_morph=1)


def passed(name):
    print(f"ACCEPTANCE {name}: PASS")


# --- independent oracles ---------------------------------------------------


def recount_objective(theta, in_counts, total_counts):
    """Per-view inside-minus-outside recount, plain Python."""
    total = 0
    for v in range(len(in_counts)):
        inside = outside = 0
        for sp in range(len(theta)):
            if theta[sp]:
                inside += int(in_counts[v][sp])
                outside += int(total_counts[v][sp]) - int(in_counts[v][sp])
        total += inside - outside
    return total


def simulate_dp_sweep(rows, in_counts, total_counts):
    """Step-by-step simulation of the retain-or-add-all recurrence.

    At each view: option 1 keeps the selection and objective, option 2
    unions in the view's visible set and recomputes the objective over all
    track views; the larger wins and ties retain option 1.
    """
    L = len(rows[0]) if len(rows) else 0
    theta = [False] * L
    objective = 0
    for v in range(len(rows)):
        candidate = [theta[sp] or bool(rows[v][sp]) for sp in range(L)]
        candidate_obj = recount_objective(candidate, in_counts, total_counts)
        if candidate_obj > objective:
            theta = candidate
            objective = candidate_obj
    return theta, objective


def random_abstract_instance(rng):
    views = int(rng.integers(1, 9))       # <= 8 views
    sps = int(rng.integers(2, 13))        # <= 12 candidate superpoints
    total = rng.integers(0, 20, size=(views, sps))
    in_c = np.array([[int(rng.integers(0, t + 1)) for t in row] for row in total])
    with np.errstate(invalid="ignore"):
        ratio = np.nan_to_num(in_c / total)
    rows = (total > 0) & (ratio >= 0.5)
    return VisibilityMatrix(np.arange(views), rows, in_c, total)


def scalar_project(point, frame, depth_tolerance):
    """Single-point projection with scalar math; returns (row, col) or None."""
    rot = frame.rotation
    t = frame.translation
    cam = [
        rot[i, 0] * point[0] + rot[i, 1] * point[1] + rot[i, 2] * point[2] + t[i]
        for i in range(3)
    ]
    z = cam[2]
    if z <= 0:
        return None

    def round_half_away(v):
        return math.floor(v + 0.5) if v >= 0 else -math.floor(-v + 0.5)

    row = round_half_away(frame.fy * cam[1] / z + frame.cy)
    col = round_half_away(frame.fx * cam[0] / z + frame.cx)
    if not (0 <= row < frame.height and 0 <= col < frame.width):
        return None
    measured = float(frame.depth[row, col])
    if measured <= 0 or abs(z - measured) > depth_tolerance:
        return None
    return row, col


# --- criteria ----------------------------------------------------------------


def test_dp_trace_conformance():
    """dp_refine equals a step-by-step simulation on 200 random instances."""
    rng = np.random.default_rng(2024)
    instances = [random_abstract_instance(rng) for _ in range(200)]
    start = time.perf_counter()
    for vis in instances:
        sol = dp_refine(vis)
        theta, objective = simulate_dp_sweep(
            vis.rows.tolist(), vis.in_counts.tolist(), vis.total_counts.tolist()
        )
        assert sol.theta.tolist() == theta
        assert sol.objective == objective
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"DP conformance sweep took {elapsed:.2f}s"
    passed(f"dp-trace-conformance (200 instances in {elapsed:.2f}s)")


def test_dominance_chain():
    """brute superpoints >= brute views >= dp, with strict gaps observed."""
    rng = np.random.default_rng(2024)
    strict_sp_over_views = 0
    strict_views_over_dp = 0
    for _ in range(200):
        vis = random_abstract_instance(rng)
        sp = brute_force_superpoints(vis).objective
        vw = brute_force_views(vis).objective
        dp = dp_refine(vis).objective
        assert sp >= vw >= dp, (sp, vw, dp)
        strict_sp_over_views += int(sp > vw)
        strict_views_over_dp += int(vw > dp)
    assert strict_sp_over_views > 0, "no instance separated the superpoint oracle"
    assert strict_views_over_dp > 0, "no instance separated the view oracle from dp"
    passed(
        f"dominance-chain (strict sp>views on {strict_sp_over_views}, "
        f"views>dp on {strict_views_over_dp} of 200)"
    )


def test_objective_decomposition():
    """objective_value matches a scalar per-view recount on 100 geometric instances."""
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(30, 81))
        pts = rng.uniform(-0.6, 0.6, size=(n, 3)) + (0.0, 0.0, 2.5)
        assignment = rng.integers(0, 5, size=n)
        assignment[:5] = np.arange(5)
        partition = SuperpointPartition.from_assignment(assignment, pts)
        frames = []
        view_count = int(rng.integers(2, 5))
        for _ in range(view_count):
            ext = pose_from(rotation_z(rng.uniform(-0.3, 0.3)), rng.uniform(-0.2, 0.2, 3))
            depth = np.zeros((40, 40))
            frame = make_frame(depth, fx=25.0, fy=25.0, cx=19.5, cy=19.5, extrinsics=ext)
            cam = pts @ frame.rotation.T + frame.translation
            z = cam[:, 2]
            for i in range(n):
                if z[i] <= 0:
                    continue
                r = math.floor(frame.fy * cam[i, 1] / z[i] + frame.cy + 0.5)
                c = math.floor(frame.fx * cam[i, 0] / z[i] + frame.cx + 0.5)
                if 0 <= r < 40 and 0 <= c < 40:
                    depth[r, c] = z[i]  # later points occlude earlier ones
            frames.append(frame)
        masks = {}
        for t in range(view_count):
            m = np.zeros((40, 40), dtype=bool)
            r0, c0 = rng.integers(0, 20, size=2)
            m[r0 : r0 + 20, c0 : c0 + 20] = True
            masks[t] = m
        track = MaskTrack(0, 1.0, masks, 0, 0)
        theta = rng.random(5) < 0.5

        fast = objective_value(theta, track, pts, partition, frames, depth_tolerance=0.05)

        slow = 0
        selected = [i for i in range(n) if theta[assignment[i]]]
        for t in range(view_count):
            inside = outside = 0
            for i in selected:
                pixel = scalar_project(pts[i], frames[t], 0.05)
                if pixel is None:
                    continue
                if masks[t][pixel]:
                    inside += 1
                else:
                    outside += 1
            slow += inside - outside
        assert fast == slow
    passed("objective-decomposition (100 geometric instances, exact)")


def test_projection_round_trip():
    """10,000 random pixel/depth back-projections re-project exactly."""
    rng = np.random.default_rng(5150)
    checked = 0
    for _ in range(10):
        angle = rng.uniform(0, 2 * np.pi)
        tilt = rng.uniform(-0.4, 0.4)
        rot_z = rotation_z(angle)
        c, s = np.cos(tilt), np.sin(tilt)
        rot_x = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
        ext = pose_from(rot_x @ rot_z, rng.uniform(-2, 2, 3))
        h = w = 64
        flat = rng.choice(h * w, size=1000, replace=False)
        rows, cols = flat // w, flat % w
        depths = rng.uniform(0.3, 9.0, size=1000)
        depth_map = np.zeros((h, w))
        depth_map[rows, cols] = depths
        frame = make_frame(
            depth_map,
            fx=float(rng.uniform(30, 120)),
            fy=float(rng.uniform(30, 120)),
            cx=(w - 1) / 2,
            cy=(h - 1) / 2,
            extrinsics=ext,
        )
        world = backproject_pixels(frame, rows, cols, depths)
        ps = project_points(world, frame, depth_tolerance=1e-6)
        assert len(ps) == 1000, f"only {len(ps)} of 1000 points re-projected"
        np.testing.assert_array_equal(ps.rows, rows[ps.indices])
        np.testing.assert_array_equal(ps.cols, cols[ps.indices])
        checked += len(ps)
    assert checked == 10_000
    passed("projection-round-trip (10000/10000 exact)")


def test_oracle_end_to_end():
    """Default suite, oracle tracker, dp strategy: AP >= 0.90, RC25 >= 0.95."""
    start = time.perf_counter()
    aps, rc25s = [], []
    for s in range(5):
        scene = build_scene(SceneSpec(object_count=4 + s % 5, frame_count=60, seed=s))
        config = PipelineConfig(strategy="dp")
        result = run_pipeline(
            scene.cloud, scene.frames, config, tracker="oracle", instances=scene.instances
        )
        report = evaluate(
            [p.point_mask for p in result.proposals],
            [p.score for p in result.proposals],
            scene.cloud.gt_instance,
        )
        aps.append(report.ap)
        rc25s.append(report.rc25)
    elapsed = time.perf_counter() - start
    mean_ap = float(np.mean(aps))
    mean_rc25 = float(np.mean(rc25s))
    assert mean_ap >= 0.90, f"suite AP {mean_ap:.3f}"
    assert mean_rc25 >= 0.95, f"suite RC25 {mean_rc25:.3f}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    passed(f"oracle-end-to-end (AP {mean_ap:.3f}, RC25 {mean_rc25:.3f}, {elapsed:.1f}s)")


def _suite_tracks(scene, noise):
    """Pivot + query + noisy track for every liftable superpoint of a scene."""
    normals = estimate_normals(scene.cloud.positions, 12)
    partition = partition_superpoints(scene.cloud, normals)
    neighbors = knn_centroids(partition.centroids, 8)
    working = scene.frames[::10]
    instances = scene.instances[::10]
    pixels = PixelIndex.build(partition, project_cloud(scene.cloud.positions, working, 0.1))
    for sp in range(partition.count):
        try:
            pivot, _ = pivot_view(sp, pixels.counts, partition.sizes, neighbors)
            query = build_tracker_query(
                sp, partition, scene.cloud.positions, working, pivot, pixels=pixels
            )
            track = noisy_track(query, instances, noise, rng_seed=1000 + sp, seed_superpoint=sp)
        except (NoPivotViewError, TrackingError):
            continue
        yield visibility_matrix(
            track, scene.cloud.positions, partition, working, pixels=pixels
        )


def test_ablation_ordering(suite_scenes):
    """Per shared-seed track under boundary noise: dp >= top10 >= top5 >= top1
    with at most 5% violations per link; all_lifted never beats brute views."""
    links = {"dp>=top10": 0, "top10>=top5": 0, "top5>=top1": 0}
    tracks = 0
    for scene in suite_scenes:
        for vis in _suite_tracks(scene, BOUNDARY_NOISE):
            tracks += 1
            dp = dp_refine(vis).objective
            t10 = top_k_views_refine(vis, 10).objective
            t5 = top_k_views_refine(vis, 5).objective
            t1 = top_k_views_refine(vis, 1).objective
            links["dp>=top10"] += int(dp < t10)
            links["top10>=top5"] += int(t10 < t5)
            links["top5>=top1"] += int(t5 < t1)
            assert all_lifted(vis).objective <= brute_force_views(vis).objective
    assert tracks >= 30
    for link, violations in links.items():
        rate = violations / tracks
        assert rate <= 0.05, f"{link} violated on {violations}/{tracks} tracks"
    passed(
        "ablation-ordering ("
        + ", ".join(f"{k} viol {v}/{tracks}" for k, v in links.items())
        + ")"
    )


def test_visibility_monotonicity(suite_scenes):
    """Raising tau never adds a true entry, over a full tau sweep."""
    scene = suite_scenes[0]
    normals = estimate_normals(scene.cloud.positions, 12)
    partition = partition_superpoints(scene.cloud, normals)
    working = scene.frames[::10]
    instances = scene.instances[::10]
    checked = 0
    for oid in range(4):
        masks = {t: inst == oid for t, inst in enumerate(instances) if np.any(inst == oid)}
        track = MaskTrack(oid, 1.0, masks, min(masks), -1)
        previous = None
        for tau in [round(0.1 * k, 1) for k in range(1, 11)]:
            vis = visibility_matrix(track, scene.cloud.positions, partition, working, tau=tau)
            if previous is not None:
                gained = vis.rows & ~previous
                assert not np.any(gained), f"tau sweep not antitone at {tau}"
                checked += 1
            previous = vis.rows
    assert checked == 4 * 9
    passed("visibility-monotonicity (4 tracks x 10 taus, zero violations)")


def test_determinism(tmp_path):
    """Identical manifests yield byte-identical proposal files."""
    scene_dir = tmp_path / "scene"
    scene = build_scene(SceneSpec(object_count=5, frame_count=60, seed=0))
    save_scene(scene, scene_dir)
    outputs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        code = cli_main(
            [
                "segment",
                "--scene",
                str(scene_dir),
                "--tracker",
                "noisy",
                "--noise-p-flip",
                "0.2",
                "--noise-r-morph",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(
            (
                (out / "proposals.jsonl").read_bytes(),
                (out / "points.txt").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]
    passed("determinism (3 runs, byte-identical)")
