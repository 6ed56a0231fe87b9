"""Command-line behavior: subcommands, flag precedence, exit codes."""

import json
import shutil

import numpy as np
import pytest

from seglift import cli, pipeline
from seglift.cli import main
from seglift.optimize import Solution, all_lifted
from seglift.pipeline import PipelineConfig, read_proposals, run_pipeline
from seglift.tracks import MaskTrack, write_tracks
from seglift.synth import load_scene
from seglift.pipeline import subsample_views


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "s"
    code = main(
        ["generate", "--out", str(path), "--objects", "3", "--frames", "40", "--seed", "7"]
    )
    assert code == 0
    return path


def run_segment(scene_dir, out_dir, *extra):
    args = ["segment", "--scene", str(scene_dir), "--tracker", "oracle", "--out", str(out_dir)]
    return main(args + list(extra))


class TestGenerate:
    def test_writes_expected_layout(self, scene_dir):
        assert (scene_dir / "cloud.txt").is_file()
        assert (scene_dir / "intrinsics.txt").is_file()
        assert (scene_dir / "frames" / "0039.depth").is_file()
        assert (scene_dir / "frames" / "0039.inst").is_file()
        assert not (scene_dir / "frames" / "0040.pose").exists()

    def test_rerun_same_seed_byte_identical(self, scene_dir, tmp_path):
        other = tmp_path / "again"
        code = main(
            ["generate", "--out", str(other), "--objects", "3", "--frames", "40", "--seed", "7"]
        )
        assert code == 0
        assert (other / "cloud.txt").read_bytes() == (scene_dir / "cloud.txt").read_bytes()
        assert (other / "frames" / "0010.depth").read_bytes() == (
            scene_dir / "frames" / "0010.depth"
        ).read_bytes()

    def test_zero_objects(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["generate", "--out", str(out), "--objects", "0", "--seed", "1"]) == 0
        scene = load_scene(out)
        assert np.all(scene.cloud.gt_instance == -1)

    def test_refuses_nonempty_without_force(self, scene_dir, capsys):
        code = main(
            ["generate", "--out", str(scene_dir), "--objects", "3", "--frames", "40", "--seed", "7"]
        )
        assert code == 3
        assert "not empty" in capsys.readouterr().err


class TestSegment:
    def test_oracle_dp_covers_every_object(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        assert run_segment(scene_dir, out, "--strategy", "dp") == 0
        records = read_proposals(out / "proposals.jsonl")
        scene = load_scene(scene_dir)
        n_objects = len(np.unique(scene.cloud.gt_instance[scene.cloud.gt_instance >= 0]))
        assert len(records) >= n_objects
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["strategy"] == "dp"
        assert manifest["seed"] == 0

    def test_dp_selection_subset_of_all_lifted(self, scene_dir, tmp_path):
        # identical seeds: one big round, shared noise stream per track id
        outs = {}
        for strategy in ("dp", "all_lifted"):
            out = tmp_path / strategy
            code = run_segment(
                scene_dir, out, "--strategy", strategy, "--samples-per-round", "64"
            )
            assert code == 0
            outs[strategy] = {
                r["provenance"]["seed"]: set(r["superpoints"])
                for r in read_proposals(out / "proposals.jsonl")
            }
        shared = set(outs["dp"]) & set(outs["all_lifted"])
        assert shared
        for seed in shared:
            assert outs["dp"][seed] <= outs["all_lifted"][seed]

    def test_file_tracker_single_track(self, scene_dir, tmp_path):
        scene = load_scene(scene_dir)
        working = subsample_views(scene.instances, 10)
        masks = {t: inst == 1 for t, inst in enumerate(working) if np.any(inst == 1)}
        track_path = tmp_path / "one.tracks"
        write_tracks([MaskTrack(0, 0.9, masks, min(masks), -1)], track_path)
        out = tmp_path / "filerun"
        code = main(
            [
                "segment",
                "--scene",
                str(scene_dir),
                "--tracker",
                f"file:{track_path}",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_proposals(out / "proposals.jsonl")
        assert len(records) == 1
        assert records[0]["score"] == 0.9

    def test_file_tracker_dimension_mismatch_exit_code(self, scene_dir, tmp_path, capsys):
        track_path = tmp_path / "bad.tracks"
        bad = MaskTrack(4, 1.0, {0: np.ones((8, 8), dtype=bool)}, 0, -1)
        write_tracks([bad], track_path)
        out = tmp_path / "badrun"
        code = main(
            [
                "segment",
                "--scene",
                str(scene_dir),
                "--tracker",
                f"file:{track_path}",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "track 4 view 0" in capsys.readouterr().err

    def test_unknown_tracker_usage_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "nope"
        code = main(
            ["segment", "--scene", str(scene_dir), "--tracker", "sam", "--out", str(out)]
        )
        assert code == 2
        assert "tracker" in capsys.readouterr().err


class TestFlagPrecedence:
    def test_flag_beats_config_beats_default(self, scene_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.4\nmax_rounds = 2\n")
        # default only
        out_a = tmp_path / "a"
        run_segment(scene_dir, out_a)
        man_a = json.loads((out_a / "manifest.json").read_text())
        assert man_a["config"]["tau"] == 0.5
        # config file overrides default
        out_b = tmp_path / "b"
        run_segment(scene_dir, out_b, "--config", str(cfg))
        man_b = json.loads((out_b / "manifest.json").read_text())
        assert man_b["config"]["tau"] == 0.4
        assert man_b["config"]["max_rounds"] == 2
        # flag overrides config file
        out_c = tmp_path / "c"
        run_segment(scene_dir, out_c, "--config", str(cfg), "--tau", "0.3")
        man_c = json.loads((out_c / "manifest.json").read_text())
        assert man_c["config"]["tau"] == 0.3
        assert man_c["config"]["max_rounds"] == 2

    def test_invalid_flag_value_is_usage_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "bad"
        code = run_segment(scene_dir, out, "--tau", "1.5")
        assert code == 2
        assert "tau" in capsys.readouterr().err


class TestEval:
    def test_eval_oracle_run(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        capsys.readouterr()  # drop the segment summary line
        code = main(
            ["eval", "--scene", str(scene_dir), "--proposals", str(out / "proposals.jsonl")]
        )
        assert code == 0
        table = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(table["ap"]) >= 0.9
        assert float(table["rc25"]) >= 0.95

    def test_eval_empty_proposalfile_all_zero(self, scene_dir, tmp_path, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        code = main(["eval", "--scene", str(scene_dir), "--proposals", str(empty)])
        assert code == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            assert line.split("\t")[1] == "0.000000"

    def test_eval_twice_identical(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        main(["eval", "--scene", str(scene_dir), "--proposals", str(out / "proposals.jsonl"), "--out", str(r1)])
        main(["eval", "--scene", str(scene_dir), "--proposals", str(out / "proposals.jsonl"), "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_eval_without_gt_errors(self, scene_dir, tmp_path, capsys):
        # room-only scene has no labeled instances
        bare = tmp_path / "bare"
        main(["generate", "--out", str(bare), "--objects", "0", "--seed", "3"])
        out = tmp_path / "r"
        run_segment(scene_dir, out)
        code = main(["eval", "--scene", str(bare), "--proposals", str(out / "proposals.jsonl")])
        assert code == 3


class TestManifest:
    def test_timings_split_by_stage_and_kept_out_of_proposals(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        assert run_segment(scene_dir, out) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings_s"]
        assert set(timings) == {"load", "prepare", "rounds"}
        assert all(seconds >= 0 for seconds in timings.values())
        for record in read_proposals(out / "proposals.jsonl"):
            assert set(record) == {"id", "score", "superpoints", "point_count", "provenance"}


# (case, command, generate flags or one proposals.jsonl line, exit code)
EXIT_CODES = [
    ("generate-ok", "generate", ["--objects", "0", "--frames", "2"], 0),
    ("generate-negative-objects", "generate", ["--objects", "-1"], 2),
    ("generate-size-0x0", "generate", ["--size", "0x0"], 2),
    ("generate-size-64x0", "generate", ["--size", "64x0"], 2),
    ("generate-zero-frames", "generate", ["--frames", "0"], 2),
    ("generate-zero-density", "generate", ["--density", "0"], 2),
    ("generate-flat-room", "generate", ["--room", "0x6x3"], 2),
    ("generate-size-one-value", "generate", ["--size", "64"], 2),
    ("eval-ok", "eval", '{"id": 0, "score": 0.5}', 0),
    ("eval-no-score", "eval", '{"id": 0}', 3),
    ("eval-no-id", "eval", '{"score": 0.5}', 3),
    ("eval-text-score", "eval", '{"id": 0, "score": "high"}', 3),
    ("eval-bool-score", "eval", '{"id": 0, "score": true}', 3),
    ("eval-nan-score", "eval", '{"id": 0, "score": NaN}', 3),
    ("eval-text-id", "eval", '{"id": "0", "score": 0.5}', 3),
    ("eval-float-id", "eval", '{"id": 0.0, "score": 0.5}', 3),
    ("eval-not-an-object", "eval", "[0, 0.5]", 3),
    ("eval-bad-json", "eval", "{not json", 3),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, arg, code", [case[1:] for case in EXIT_CODES], ids=[case[0] for case in EXIT_CODES]
    )
    def test_exit_code(self, scene_dir, tmp_path, capsys, command, arg, code):
        if command == "generate":
            argv = ["generate", "--out", str(tmp_path / "scene"), *arg]
        else:
            proposals = tmp_path / "proposals.jsonl"
            proposals.write_text(arg + "\n")
            (tmp_path / "points.txt").write_text("0 1 2 3\n")
            argv = ["eval", "--scene", str(scene_dir), "--proposals", str(proposals)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith({0: "", 2: "usage error: ", 3: "data error: "}[code])


def _first_value(new):
    return lambda text: new + text[text.index(" "):]


def _write(new):
    return lambda text: new


_SEGMENT = ["segment", "--scene", "{scene}", "--out", "{tmp}/out"]

# (case, edits of files in a copy of the test scene, argv with {scene} and {tmp} placeholders)
INPUT_ERRORS = [
    ("cloud-nan", {"cloud.txt": _first_value("nan")}, _SEGMENT),
    ("intrinsics-zero-focal", {"intrinsics.txt": _first_value("0")}, _SEGMENT),
    ("intrinsics-text", {"intrinsics.txt": _first_value("fx")}, _SEGMENT),
    ("intrinsics-negative-size", {"intrinsics.txt": lambda text: " ".join(text.split()[:4] + ["-64", "-64"])},
     _SEGMENT),
    ("pose-not-rigid", {"frames/0003.pose": _first_value("2")}, _SEGMENT),
    ("eval-missing-proposals", {}, ["eval", "--scene", "{scene}", "--proposals", "{tmp}/missing/proposals.jsonl"]),
    ("eval-points-not-ascii",
     {"run/proposals.jsonl": _write('{"id": 0, "score": 0.5}\n'), "run/points.txt": _write("0 1 \xff\n")},
     ["eval", "--scene", "{scene}", "--proposals", "{scene}/run/proposals.jsonl"]),
    ("tracker-file-missing", {},
     ["segment", "--scene", "{scene}", "--tracker", "file:{tmp}/missing.txt", "--out", "{tmp}/out"]),
    ("config-missing", {}, ["segment", "--scene", "{scene}", "--config", "{tmp}/missing.cfg", "--out", "{tmp}/out"]),
]


class TestInputErrors:
    @pytest.mark.parametrize("edits, argv", [case[1:] for case in INPUT_ERRORS], ids=[case[0] for case in INPUT_ERRORS])
    def test_data_error_exit_code(self, scene_dir, tmp_path, capsys, edits, argv):
        scene = scene_dir
        if edits:
            scene = tmp_path / "scene"
            shutil.copytree(scene_dir, scene)
            for name, edit in edits.items():
                target = scene / name
                target.parent.mkdir(exist_ok=True)
                target.write_text(edit(target.read_text() if target.is_file() else ""))
        argv = [arg.format(scene=scene, tmp=tmp_path) for arg in argv]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("data error: ")


class TestInvariantViolation:
    def test_wrong_refined_objective_exits_4(self, scene_dir, tmp_path, monkeypatch, capsys):
        def wrong_objective(vis):
            solution = all_lifted(vis)
            return Solution(solution.theta, solution.objective + 1)

        monkeypatch.setattr(pipeline, "dp_refine", wrong_objective)
        assert run_segment(scene_dir, tmp_path / "out") == 4
        assert capsys.readouterr().err.startswith("internal error: ")


class TestAblate:
    def test_one_setup_matches_separate_runs(self, scene_dir, tmp_path, monkeypatch):
        argv = ["ablate", "--scene", str(scene_dir), "--tracker", "noisy",
                "--noise-p-flip", "0.3", "--noise-r-morph", "2", "--out"]
        prepared = []
        prepare = cli.prepare_state
        monkeypatch.setattr(cli, "prepare_state", lambda *a: prepared.append(a) or prepare(*a))
        assert main(argv + [str(tmp_path / "shared")]) == 0
        assert len(prepared) == 1
        scene = load_scene(scene_dir)

        def separate(state, strategy, tracker, tracks):
            config = PipelineConfig.from_mapping({"strategy": strategy}, base=state.config)
            return run_pipeline(scene.cloud, scene.frames, config, tracker, scene.instances, tracks)

        monkeypatch.setattr(cli, "run_rounds", separate)
        assert main(argv + [str(tmp_path / "separate")]) == 0
        shared = (tmp_path / "shared" / "ablation.tsv").read_bytes()
        assert shared == (tmp_path / "separate" / "ablation.tsv").read_bytes()

    def test_table_shape_and_shared_seed(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(
            [
                "ablate",
                "--scene",
                str(scene_dir),
                "--tracker",
                "noisy",
                "--noise-p-flip",
                "0.3",
                "--noise-r-morph",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "ablation.tsv").read_text().strip().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "strategy" and "seed" in header
        rows = [line.split("\t") for line in lines[1:]]
        assert [r[0] for r in rows] == ["all_lifted", "top_k:1", "top_k:5", "top_k:10", "dp"]
        assert len({r[-1] for r in rows}) == 1  # shared seed column
        # derived check: dp mean objective at least all_lifted's under noise
        mean_obj = {r[0]: float(r[header.index("mean_objective")]) for r in rows}
        assert mean_obj["dp"] >= mean_obj["all_lifted"]

    def test_zero_noise_all_strategies_reach_ap_090(self, scene_dir, tmp_path):
        out = tmp_path / "ablate0"
        code = main(
            ["ablate", "--scene", str(scene_dir), "--tracker", "oracle", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "ablation.tsv").read_text().strip().splitlines()
        header = lines[0].split("\t")
        for line in lines[1:]:
            row = line.split("\t")
            assert float(row[header.index("ap")]) >= 0.90, row
