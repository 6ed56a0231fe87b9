"""The benchmark's own smoke test: reduced-size workloads, then failure paths.

    python3 perfbench/smoke.py

1. Every workload at ``--scale smoke`` with ``--trace 1`` exits 0, reports
   every per-layer metric, and shows the layer its workload is built to stress.
2. A suite run whose proposal files are corrupted before eval reports failed
   calls, ok_frac below 1 and a non-zero exit.
3. A directory holding only BENCHMARK.json and perfbench/ (no sources) makes
   the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads


def _bench(root: Path, *args: str) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=600
    )
    return done.returncode, done.stdout


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        code, stdout = _bench(run.ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                              "--scale", "smoke", "--trace", "1")
        result = _last_line(stdout)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        expect(code == 0 and result["correct"] and result["failed"] == 0, f"{workload}: clean traced run")
        expect(set(metrics) == set(run.PER_LAYER), f"{workload}: every per-layer metric reported")
        if workload == "suite":
            graph_cut = metrics["superpoints.partition_superpoints.self_s"]
            top = max(v for k, v in metrics.items() if k.endswith(".self_s"))
            expect(graph_cut == top, "suite: the graph cut has the largest self time")
        if workload == "ablate":
            expect(metrics["pipeline.prepare_state.calls"] == 5, "ablate: prepare_state runs once per strategy")
        if workload == "file-tracks":
            expect(metrics["view_select.pivot_view.calls"] == 0, "file-tracks: no pivot calls")
            expect(metrics["tracks.read_tracks.mb"] > 0, "file-tracks: the track file is read")

    code, stdout = _bench(run.ROOT, "--workload", "suite", "--seed", "0", "--seconds", "1",
                          "--scale", "smoke", "--corrupt")
    result = _last_line(stdout)
    expect(code != 0 and result["failed"] > 0 and result["metrics"]["ok_frac"]["value"] < 1,
           "corrupted proposal files count as failed calls")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, stdout = _bench(bare, "--workload", "suite", "--seed", "0", "--seconds", "1")
    expect(code != 0 and not stdout.strip(), "without sources: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
