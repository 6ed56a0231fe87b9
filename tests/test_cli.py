"""Command-line behavior: subcommands, flag precedence, exit codes."""

import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import seglift
from seglift import cli, pipeline, synth, tracks
from seglift.cli import main
from seglift.optimize import Solution, all_lifted
from seglift.errors import TrackingError
from seglift.pipeline import PipelineConfig, prepare_state, read_proposals, run_pipeline
from seglift.tracks import MaskTrack, build_tracker_query, noisy_track, write_tracks
from seglift.view_select import NoPivotViewError, PixelIndex, pivot_view
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


def write_object_tracks(scene_dir, path) -> int:
    """A track file of one exact track per object over the working views at
    the default stride; returns its mask count."""
    working = subsample_views(load_scene(scene_dir).instances, 10)
    objects = []
    for oid in range(3):
        masks = {t: inst == oid for t, inst in enumerate(working) if np.any(inst == oid)}
        objects.append(MaskTrack(oid, 0.9, masks, min(masks), -1))
    write_tracks(objects, path)
    return sum(len(track.masks) for track in objects)


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


# (flag, PipelineConfig field, value in a --config file, value on the command line)
CONFIG_FLAGS = [
    ("--tau", "tau", "0.4", "0.3"),
    ("--depth-tol", "depth_tolerance", "0.2", "0.3"),
    ("--stride", "view_stride", "5", "3"),
    ("--kappa", "kappa", "4", "6"),
    ("--strategy", "strategy", "all_lifted", "top_k:2"),
    ("--samples-per-round", "samples_per_round", "10", "12"),
    ("--seed", "seed", "1", "2"),
    ("--dedup-iou", "dedup_iou", "0.8", "0.7"),
    ("--noise-p-drop", "noise_p_drop", "0.1", "0.2"),
    ("--noise-r-morph", "noise_r_morph", "1", "2"),
    ("--noise-p-flip", "noise_p_flip", "0.1", "0.2"),
    ("--memory-window", "memory_window", "3", "5"),
]


class TestFlagPrecedence:
    def test_flag_beats_config_beats_default(self, scene_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.4\nkappa = 4\n")
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
        assert man_b["config"]["kappa"] == 4
        # flag overrides config file
        out_c = tmp_path / "c"
        run_segment(scene_dir, out_c, "--config", str(cfg), "--tau", "0.3")
        man_c = json.loads((out_c / "manifest.json").read_text())
        assert man_c["config"]["tau"] == 0.3
        assert man_c["config"]["kappa"] == 4

    @pytest.mark.parametrize("command", ["segment", "ablate"])
    def test_config_flags_are_the_config_fields(self, command):
        args = cli._build_parser().parse_args([command, "--scene", "s", "--out", "o"])
        names = {f.name for f in fields(PipelineConfig)}
        assert names <= set(vars(args))  # every config field has a flag
        assert names == {row[1] for row in CONFIG_FLAGS}

    @pytest.mark.parametrize("flag, name, in_file, on_line", CONFIG_FLAGS, ids=[row[0] for row in CONFIG_FLAGS])
    def test_flag_beats_config_file(self, tmp_path, flag, name, in_file, on_line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {in_file}\n")
        argv = ["segment", "--scene", "s", "--out", "o", "--config", str(cfg)]
        parser = cli._build_parser()
        from_file = cli._resolve_config(parser.parse_args(argv))
        from_flag = cli._resolve_config(parser.parse_args(argv + [flag, on_line]))
        kind = type(getattr(PipelineConfig(), name))
        assert getattr(from_file, name) == kind(in_file) != getattr(PipelineConfig(), name)
        assert getattr(from_flag, name) == kind(on_line) != kind(in_file)
        assert from_flag == PipelineConfig.from_mapping({name: on_line}, base=from_file)

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

    def test_eval_repeated_and_unsorted_ids_count_once(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        shuffled = tmp_path / "shuffled"
        shutil.copytree(out, shuffled)
        lines = []
        for line in (out / "points.txt").read_text().splitlines():
            pid, *ids = line.split()
            lines.append(" ".join([pid, *ids[::-1], *ids[::3]]))  # descending, then every third id again
        (shuffled / "points.txt").write_text("\n".join(lines) + "\n")
        reports = []
        for run in (out, shuffled):
            capsys.readouterr()
            assert main(["eval", "--scene", str(scene_dir), "--proposals", str(run / "proposals.jsonl")]) == 0
            reports.append(capsys.readouterr().out)
        assert (shuffled / "points.txt").read_bytes() != (out / "points.txt").read_bytes()
        assert reports[0] == reports[1]

    def test_eval_reads_only_the_cloud(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        cloud_only = tmp_path / "cloud-only"
        shutil.copytree(scene_dir, cloud_only)
        shutil.rmtree(cloud_only / "frames")
        reports = []
        for scene in (scene_dir, cloud_only):
            report = tmp_path / f"{scene.name}.txt"
            argv = ["eval", "--scene", str(scene), "--proposals", str(out / "proposals.jsonl"), "--out", str(report)]
            assert main(argv) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_eval_reads_only_the_id_column(self, scene_dir, tmp_path, capsys):
        # eval parses only the ids: a NaN position or colour gives the same report, and segment still refuses it
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        damaged = tmp_path / "nan-position"
        shutil.copytree(scene_dir, damaged)
        first, rest = (damaged / "cloud.txt").read_text().split("\n", 1)
        (damaged / "cloud.txt").write_text(" ".join(["nan"] * 6 + first.split()[6:]) + "\n" + rest)
        reports = []
        for scene in (scene_dir, damaged):
            report = tmp_path / f"{scene.name}.txt"
            argv = ["eval", "--scene", str(scene), "--proposals", str(out / "proposals.jsonl"), "--out", str(report)]
            assert main(argv) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        capsys.readouterr()
        assert run_segment(damaged, tmp_path / "segment") == 3
        assert "values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [("1.5", "instance ids must be int64 integers"), ("nan", "instance ids must be int64 integers"),
         ("1e300", "instance ids must be int64 integers"), ("-2", "gt_instance values must be -1 or nonnegative")],
    )
    def test_eval_bad_instance_id_is_data_error(self, scene_dir, tmp_path, capsys, value, message):
        scene = tmp_path / "bad-id"
        shutil.copytree(scene_dir, scene)
        first, rest = (scene / "cloud.txt").read_text().split("\n", 1)
        (scene / "cloud.txt").write_text(" ".join(first.split()[:6] + [value]) + "\n" + rest)
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert main(["eval", "--scene", str(scene), "--proposals", str(empty)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {scene / 'cloud.txt'}: ") and message in err

    def test_eval_without_cloud_is_data_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        no_cloud = tmp_path / "no-cloud"
        shutil.copytree(scene_dir, no_cloud)
        (no_cloud / "cloud.txt").unlink()
        capsys.readouterr()
        assert main(["eval", "--scene", str(no_cloud), "--proposals", str(out / "proposals.jsonl")]) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_eval_without_gt_errors(self, scene_dir, tmp_path, capsys):
        # room-only scene has no labeled instances
        bare = tmp_path / "bare"
        main(["generate", "--out", str(bare), "--objects", "0", "--seed", "3"])
        out = tmp_path / "r"
        run_segment(scene_dir, out)
        code = main(["eval", "--scene", str(bare), "--proposals", str(out / "proposals.jsonl")])
        assert code == 3


class TestClosedStdout:
    """``seglift eval ... | head -1``: the reader closes stdout before the table is written."""

    def test_eval_into_a_broken_pipe_exits_quietly(self, scene_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        capsys.readouterr()
        sink = open(tmp_path / "sink", "w")

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "argv", ["seglift", "eval", "--scene", str(scene_dir), "--proposals", str(out / "proposals.jsonl")])
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
        sink.close()
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_leaves_stderr_empty(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        run_segment(scene_dir, out)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        env = {**os.environ, "PYTHONPATH": str(Path(seglift.__file__).parents[1])}
        argv = [sys.executable, "-W", "error", "-m", "seglift", "eval", "--scene", str(scene_dir), "--proposals", str(out / "proposals.jsonl")]
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


def test_importing_the_cli_loads_no_scipy_ndimage():
    # only the noisy tracker uses scipy.ndimage, and it imports it when called
    env = {**os.environ, "PYTHONPATH": str(Path(seglift.__file__).parents[1])}
    code = "import sys, seglift.cli; print('scipy.ndimage' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestManifest:
    def test_timings_split_by_stage_and_kept_out_of_proposals(self, scene_dir, tmp_path):
        out = tmp_path / "run"
        assert run_segment(scene_dir, out) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings_s"]
        assert set(timings) == {"load", "prepare", "rounds"}
        assert all(seconds >= 0 for seconds in timings.values())
        for record in read_proposals(out / "proposals.jsonl"):
            assert set(record) == {"id", "score", "superpoints", "point_count", "provenance"}

    @pytest.mark.parametrize("tracker", ["oracle", "noisy"])
    def test_config_reproduces_the_run(self, scene_dir, tmp_path, tracker):
        # the manifest's config, written back as a --config file, gives the same bytes
        flags = ["--tau", "0.4", "--samples-per-round", "4", "--noise-p-flip", "0.3", "--noise-r-morph", "1"]
        first = tmp_path / "first"
        assert main(["segment", "--scene", str(scene_dir), "--tracker", tracker, "--out", str(first), *flags]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert set(manifest) == {"command", "inputs", "outputs", "config", "seed", "rounds", "superpoint_count",
                                 "timings_s"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in manifest["config"].items()))
        again = tmp_path / "again"
        argv = ["segment", "--scene", str(scene_dir), "--tracker", manifest["inputs"]["tracker"], "--config", str(cfg)]
        assert main(argv + ["--out", str(again)]) == 0
        for name in ("proposals.jsonl", "points.txt"):
            assert (again / name).read_bytes() == (first / name).read_bytes()
        assert json.loads((again / "manifest.json").read_text())["config"] == manifest["config"]

    @pytest.mark.parametrize("tracker", ["oracle", "noisy"])
    def test_every_seed_is_accounted_for(self, scene_dir, tmp_path, tracker):
        out = tmp_path / "run"
        argv = ["segment", "--scene", str(scene_dir), "--tracker", tracker, "--noise-p-flip", "0.3", "--out", str(out)]
        assert main(argv) == 0
        rounds = json.loads((out / "manifest.json").read_text())["rounds"]
        causes = ("no_pivot", "prompt_on_background", "empty_selection")
        for entry in rounds:
            assert sum(entry[c] for c in causes) + entry["proposals_emitted"] == entry["seeds_used"]
            assert sum(entry[c] for c in causes) == entry["unliftable_seeds"]
        assert sum(entry["prompt_on_background"] for entry in rounds) > 0
        # dedup's removals, attributed to the round of each removed proposal
        written = len((out / "proposals.jsonl").read_text().splitlines())
        assert sum(entry["proposals_emitted"] - entry["deduped"] for entry in rounds) == written
        assert all(0 <= entry["deduped"] <= entry["proposals_emitted"] for entry in rounds)


class TestReprompts:
    """A noisy run whose tracks are re-prompted: with a memory window of one
    view, a superpoint hidden for two working views is re-prompted where it
    reappears, and without that re-prompt both output files would differ."""

    ARGV = ["--tracker", "noisy", "--noise-p-flip", "0.3", "--memory-window", "1", "--stride", "2"]

    @pytest.fixture(scope="class")
    def reprompt_scene(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reprompt") / "scene"
        assert main(["generate", "--out", str(path), "--objects", "4", "--frames", "40", "--seed", "3"]) == 0
        return path

    def test_outputs_are_pinned(self, reprompt_scene, tmp_path):
        """The digests were recorded while each re-prompt still carried a pixel (numpy 2.4.6)."""
        argv = ["segment", "--scene", str(reprompt_scene), "--out", str(tmp_path / "run"), *self.ARGV]
        assert main(argv) == 0
        digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                   for name in ("proposals.jsonl", "points.txt")}
        assert digests == {
            "proposals.jsonl": "b832b122369604384de2bb235e9248b598afb4384d136b5b8205df3e68f079fe",
            "points.txt": "e76ffd54d40b5b560165b8ed3031df51c9667d887934eae1de8a36dd3e477a07",
        }

    def test_reprompt_views_keep_masks(self, reprompt_scene):
        scene = load_scene(reprompt_scene)
        config = PipelineConfig(view_stride=2, memory_window=1, noise_p_flip=0.3)
        state = prepare_state(scene.cloud, scene.frames, scene.instances, config)
        reprompted = kept = 0
        for seed in range(state.partition.count):
            try:
                pivot = pivot_view(seed, state.pixels.counts, state.partition.sizes, state.neighbors)
                query = build_tracker_query(seed, state.pixels, pivot, memory_window=1)
                track = noisy_track(query, state.instances, config.noise_spec(), seed)
            except (NoPivotViewError, TrackingError):
                continue
            reprompted += len(query.reprompt_views)
            forgetful = noisy_track(dataclasses.replace(query, reprompt_views=frozenset()), state.instances,
                                    config.noise_spec(), seed)
            kept += len(track.masks) - len(forgetful.masks)
        assert reprompted > 0 and kept > 0


# (case, command, generate or segment flags or one proposals.jsonl line, exit code)
EXIT_CODES = [
    ("generate-ok", "generate", ["--objects", "0", "--frames", "2"], 0),
    ("generate-negative-objects", "generate", ["--objects", "-1"], 2),
    ("generate-size-0x0", "generate", ["--size", "0x0"], 2),
    ("generate-size-64x0", "generate", ["--size", "64x0"], 2),
    ("generate-zero-frames", "generate", ["--frames", "0"], 2),
    ("generate-zero-density", "generate", ["--density", "0"], 2),
    ("generate-flat-room", "generate", ["--room", "0x6x3"], 2),
    ("generate-nan-density", "generate", ["--density", "nan"], 2),
    ("generate-inf-density", "generate", ["--density", "inf"], 2),
    ("generate-overflowing-room", "generate", ["--room", "1.e400x6x3"], 2),
    ("generate-size-one-value", "generate", ["--size", "64"], 2),
    ("generate-size-not-whole", "generate", ["--size", "8.9x4"], 2),
    ("generate-negative-seed", "generate", ["--seed", "-1"], 2),
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
    # at stride 1 the test scene's tracks span more than the 20 views a view enumerator takes
    ("segment-brute-views-over-cap", "segment", ["--stride", "1", "--strategy", "brute_views"], 3),
    ("segment-top-k-over-cap", "segment", ["--stride", "1", "--strategy", "top_k:25"], 3),
    ("segment-overlap-mode-flag", "segment", ["--overlap-mode", "iou"], 2),
    ("segment-max-rounds-flag", "segment", ["--max-rounds", "50"], 2),
    ("segment-depth-tol-nan", "segment", ["--depth-tol", "nan"], 2),
    ("segment-top-k-parenthesised", "segment", ["--strategy", "top_k(5)"], 2),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, arg, code", [case[1:] for case in EXIT_CODES], ids=[case[0] for case in EXIT_CODES]
    )
    def test_exit_code(self, scene_dir, tmp_path, capsys, command, arg, code):
        if command == "generate":
            argv = ["generate", "--out", str(tmp_path / "scene"), *arg]
        elif command == "segment":
            argv = ["segment", "--scene", str(scene_dir), "--out", str(tmp_path / "out"), *arg]
        else:
            proposals = tmp_path / "proposals.jsonl"
            proposals.write_text(arg + "\n")
            (tmp_path / "points.txt").write_text("0 1 2 3\n")
            argv = ["eval", "--scene", str(scene_dir), "--proposals", str(proposals)]
        try:
            assert main(argv) == code
            prefix = {0: "", 2: "usage error: ", 3: "data error: "}[code]
        except SystemExit as exc:  # argparse rejects an unknown flag from inside parse_args
            assert exc.code == code
            prefix = "usage: seglift"
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        if command == "generate" and code:
            assert not (tmp_path / "scene").exists()  # refused before the out directory is made
        if command == "segment" and code == 3:
            assert err.startswith("data error: track ") and "enumeration cap of 20" in err


def _first_value(new):
    return lambda text: new + text[text.index(" "):]


def _write(new):
    return lambda text: new


def _first_pixel(value):
    """Set the first pixel of a binary frame file to a numpy scalar."""
    return lambda data: value.tobytes() + data[value.nbytes :]


_SEGMENT = ["segment", "--scene", "{scene}", "--out", "{tmp}/out"]
_CONFIG_SEGMENT = ["segment", "--scene", "{scene}", "--config", "{scene}/bad.cfg", "--out", "{tmp}/out"]
# keys that were config fields, each with its old default: a file that still sets one names the key
_RETIRED_KEYS = {"superpoint_knn": "10", "normals_k": "12", "superpoint_min_size": "20", "superpoint_threshold": "0.05",
                 "prompt_count": "3", "max_rounds": "50", "noise_flip_band": "2"}

# (case, edits of files in a copy of the test scene, argv with {scene} and {tmp} placeholders)
INPUT_ERRORS = [
    ("cloud-nan", {"cloud.txt": _first_value("nan")}, _SEGMENT),
    ("cloud-three-points", {"cloud.txt": lambda text: "".join(text.splitlines(keepends=True)[:3])}, _SEGMENT),
    ("intrinsics-zero-focal", {"intrinsics.txt": _first_value("0")}, _SEGMENT),
    ("intrinsics-nan-focal", {"intrinsics.txt": _first_value("nan")}, _SEGMENT),
    ("intrinsics-inf-center", {"intrinsics.txt": lambda text: " ".join(text.split()[:2] + ["inf"] + text.split()[3:])},
     _SEGMENT),
    ("intrinsics-text", {"intrinsics.txt": _first_value("fx")}, _SEGMENT),
    ("intrinsics-negative-size", {"intrinsics.txt": lambda text: " ".join(text.split()[:4] + ["-64", "-64"])},
     _SEGMENT),
    ("pose-not-rigid", {"frames/0003.pose": _first_value("2")}, _SEGMENT),
    ("depth-nan", {"frames/0000.depth": _first_pixel(np.float32(np.nan))}, _SEGMENT),
    ("instance-without-depth",
     {"frames/0000.depth": _first_pixel(np.float32(0)), "frames/0000.inst": _first_pixel(np.int32(0))}, _SEGMENT),
    ("eval-missing-proposals", {}, ["eval", "--scene", "{scene}", "--proposals", "{tmp}/missing/proposals.jsonl"]),
    ("eval-points-not-ascii",
     {"run/proposals.jsonl": _write('{"id": 0, "score": 0.5}\n'), "run/points.txt": _write("0 1 \xff\n")},
     ["eval", "--scene", "{scene}", "--proposals", "{scene}/run/proposals.jsonl"]),
    ("eval-points-beyond-int64",
     {"run/proposals.jsonl": _write('{"id": 0, "score": 0.5}\n'), "run/points.txt": _write("0 99999999999999999999\n")},
     ["eval", "--scene", "{scene}", "--proposals", "{scene}/run/proposals.jsonl"]),
    ("eval-proposals-repeated-id",
     {"run/proposals.jsonl": _write('{"id": 0, "score": 0.5}\n' * 2), "run/points.txt": _write("0 1 2\n")},
     ["eval", "--scene", "{scene}", "--proposals", "{scene}/run/proposals.jsonl"]),
    ("eval-points-repeated-id",
     {"run/proposals.jsonl": _write('{"id": 0, "score": 0.5}\n'), "run/points.txt": _write("0 1 2\n0 3 4\n")},
     ["eval", "--scene", "{scene}", "--proposals", "{scene}/run/proposals.jsonl"]),
    ("tracker-file-huge-image",
     {"huge.tracks": _write("tracks 1 4294967296 4294967296\n0 0.5 0 0:18446744073709551616\n")},
     ["segment", "--scene", "{scene}", "--tracker", "file:{scene}/huge.tracks", "--out", "{tmp}/out"]),
    # view 2 of the 64 x 64 scene given twice, half of its pixels and then all of them
    ("tracker-file-repeated-view",
     {"twice.tracks": _write("tracks 1 64 64\n0 0.5 2 -1 2:0 2048 2048 3:0 2048 2048 2:0 4096\n")},
     ["segment", "--scene", "{scene}", "--tracker", "file:{scene}/twice.tracks", "--out", "{tmp}/out"]),
    ("tracker-file-missing", {},
     ["segment", "--scene", "{scene}", "--tracker", "file:{tmp}/missing.txt", "--out", "{tmp}/out"]),
    ("config-missing", {}, ["segment", "--scene", "{scene}", "--config", "{tmp}/missing.cfg", "--out", "{tmp}/out"]),
    # an output path that cannot be written: {scene}/taken is a file, or for eval's --out a directory
    ("out-generate-file", {"taken": _write("x")},
     ["generate", "--out", "{scene}/taken", "--objects", "0", "--frames", "1", "--size", "4x4"]),
    ("out-generate-under-file", {"taken": _write("x")},
     ["generate", "--out", "{scene}/taken/scene", "--objects", "0", "--frames", "1", "--size", "4x4"]),
    ("out-segment-file", {"taken": _write("x")}, ["segment", "--scene", "{scene}", "--out", "{scene}/taken"]),
    ("out-ablate-file", {"taken": _write("x")}, ["ablate", "--scene", "{scene}", "--out", "{scene}/taken"]),
    ("out-eval-directory", {"run/proposals.jsonl": _write(""), "taken/x": _write("")},
     ["eval", "--scene", "{scene}", "--proposals", "{scene}/run/proposals.jsonl", "--out", "{scene}/taken"]),
] + [
    (f"config-{key}", {"bad.cfg": _write(f"{key} = {value}\n")}, _CONFIG_SEGMENT) for key, value in _RETIRED_KEYS.items()
] + [
    # an unknown key, and non-finite values, which a "<= 0" check lets through
    (f"config-{line.replace(' = ', '-')}", {"bad.cfg": _write(line + "\n")}, _CONFIG_SEGMENT)
    for line in ("overlap_mode = containment", "depth_tolerance = nan", "depth_tolerance = inf",
                 "superpoint_threshold = nan")
]

# the message a case's error must hold, besides the "data error: " prefix
INPUT_ERROR_MESSAGES = {
    **{f"config-{key}": f"bad.cfg: unknown config key '{key}'" for key in _RETIRED_KEYS},
    "config-overlap_mode-containment": "bad.cfg: unknown config key 'overlap_mode'",
    "config-superpoint_threshold-nan": "bad.cfg: unknown config key 'superpoint_threshold'",
}


class TestInputErrors:
    @pytest.mark.parametrize("case, edits, argv", INPUT_ERRORS, ids=[case[0] for case in INPUT_ERRORS])
    def test_data_error_exit_code(self, scene_dir, tmp_path, capsys, case, edits, argv):
        scene = scene_dir
        if edits:
            scene = tmp_path / "scene"
            shutil.copytree(scene_dir, scene)
            for name, edit in edits.items():
                target = scene / name
                target.parent.mkdir(exist_ok=True)
                if target.suffix in (".depth", ".inst"):  # binary frame files: the edit maps bytes to bytes
                    target.write_bytes(edit(target.read_bytes()))
                else:
                    target.write_text(edit(target.read_text() if target.is_file() else ""))
        argv = [arg.format(scene=scene, tmp=tmp_path) for arg in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and INPUT_ERROR_MESSAGES.get(case, "") in err
        assert all(arg in err for arg in argv if arg.startswith(f"{scene}/taken"))  # the unusable path is named


class TestOutDirectory:
    @pytest.mark.parametrize("command", ["segment", "ablate"])
    @pytest.mark.parametrize("missing", ["scene", "track-file"])
    def test_failed_load_makes_no_out_directory(self, scene_dir, tmp_path, capsys, command, missing):
        out = tmp_path / "out" / "run"
        if missing == "scene":
            argv = [command, "--scene", str(tmp_path / "missing"), "--out", str(out)]
        else:
            argv = [command, "--scene", str(scene_dir), "--tracker", f"file:{tmp_path / 'missing.txt'}", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "out").exists()


class TestLazyViews:
    """A frame file is read only when its view is working: a bad one that
    no working view reads does not change a run."""

    def _nan_scene(self, scene_dir, tmp_path):
        scene = tmp_path / "nan-scene"
        shutil.copytree(scene_dir, scene)
        depth_file = scene / "frames" / "0001.depth"
        depth = np.fromfile(depth_file, dtype="<f4")
        depth[0] = np.nan
        depth.tofile(depth_file)
        return scene

    def test_nan_depth_outside_the_working_views(self, scene_dir, tmp_path, capsys):
        nan_scene = self._nan_scene(scene_dir, tmp_path)
        assert run_segment(scene_dir, tmp_path / "clean", "--stride", "5") == 0
        assert run_segment(nan_scene, tmp_path / "nan", "--stride", "5") == 0
        for name in ("proposals.jsonl", "points.txt"):
            assert (tmp_path / "clean" / name).read_bytes() == (tmp_path / "nan" / name).read_bytes()
        capsys.readouterr()
        assert run_segment(nan_scene, tmp_path / "nan1", "--stride", "1") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "0001.depth: depth values must be finite and nonnegative" in err

    def test_file_tracker_opens_no_instance_render(self, scene_dir, tmp_path, monkeypatch):
        track_path = tmp_path / "objects.tracks"
        write_object_tracks(scene_dir, track_path)
        no_inst = tmp_path / "no-inst"
        shutil.copytree(scene_dir, no_inst)
        for path in (no_inst / "frames").glob("*.inst"):
            path.unlink()
        read = synth._read_view_file
        opened = []
        monkeypatch.setattr(synth, "_read_view_file", lambda path, *a: opened.append(path.suffix) or read(path, *a))
        for scene in (scene_dir, no_inst):
            argv = ["segment", "--scene", str(scene), "--tracker", f"file:{track_path}", "--out", str(tmp_path / scene.name)]
            assert main(argv) == 0
        assert opened and set(opened) == {".depth"}
        for name in ("proposals.jsonl", "points.txt"):
            assert (tmp_path / scene_dir.name / name).read_bytes() == (tmp_path / "no-inst" / name).read_bytes()


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

    def test_each_seed_is_tracked_once(self, scene_dir, tmp_path, monkeypatch):
        pairs = []
        track = pipeline.noisy_track

        def spy(query, instances, spec, rng_seed, track_id, seed):
            pairs.append((seed, track_id))
            return track(query, instances, spec, rng_seed, track_id, seed)

        monkeypatch.setattr(pipeline, "noisy_track", spy)
        argv = ["ablate", "--scene", str(scene_dir), "--tracker", "noisy",
                "--noise-p-flip", "0.3", "--noise-r-morph", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        distinct = len(set(pairs))
        assert 0 < len(pairs) == distinct < 5 * distinct

    def test_file_tracks_are_lifted_once(self, scene_dir, tmp_path, monkeypatch):
        track_path = tmp_path / "objects.tracks"
        mask_count = write_object_tracks(scene_dir, track_path)
        lifted = []  # the views of each counting call: a call lifts one track
        count_intervals = PixelIndex.count_intervals
        monkeypatch.setattr(PixelIndex, "count_intervals",
                            lambda self, views, *packed: lifted.append(list(views)) or count_intervals(self, views, *packed))
        argv = ["ablate", "--scene", str(scene_dir), "--tracker", f"file:{track_path}", "--out"]
        assert main(argv + [str(tmp_path / "shared")]) == 0
        assert len(lifted) == 3 and sum(map(len, lifted)) == mask_count
        scene = load_scene(scene_dir)

        def separate(state, strategy, tracker, tracks):
            config = PipelineConfig.from_mapping({"strategy": strategy}, base=state.config)
            return run_pipeline(scene.cloud, scene.frames, config, tracker, None, tracks)

        monkeypatch.setattr(cli, "run_rounds", separate)
        assert main(argv + [str(tmp_path / "separate")]) == 0
        assert len(lifted) == 6 * 3 and sum(map(len, lifted)) == 6 * mask_count  # five separate runs lift every track again
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

    def test_no_points_is_not_a_flag(self, scene_dir, tmp_path, capsys):
        # segment always writes points.txt, which eval needs
        for command in ("segment", "ablate"):
            argv = [command, "--scene", str(scene_dir), "--out", str(tmp_path / command), "--no-points"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--no-points" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    def test_strategy_flag_is_a_usage_error(self, scene_dir, tmp_path, capsys):
        argv = ["ablate", "--scene", str(scene_dir), "--out", str(tmp_path / "out"), "--strategy", "dp"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(strategy in err for strategy in cli.ABLATION_STRATEGIES)
        assert not (tmp_path / "out").exists()

    def test_config_file_strategy_is_accepted(self, scene_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strategy = top_k:3\n")
        argv = ["ablate", "--scene", str(scene_dir)]
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "with")]) == 0
        assert main(argv + ["--out", str(tmp_path / "without")]) == 0
        assert (tmp_path / "with" / "ablation.tsv").read_bytes() == (tmp_path / "without" / "ablation.tsv").read_bytes()

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
