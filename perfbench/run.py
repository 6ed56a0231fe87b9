"""seglift benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 10 --trace 0

Drives the public CLI (``seglift.cli.main``) in-process on generated scene
directories, in fresh worker processes run one after another. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced, and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every CLI call succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"
DEADLINE_S = 170.0

# Metric names and units come from the benchmark's declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


class Run:
    """Collects the failures of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, record: dict, expected: dict | None, reference: dict | None) -> None:
        """Count one CLI call; fail it on a non-zero exit or an output mismatch."""
        self.attempted += 1
        problems = []
        if record["exit"] != 0:
            problems.append(f"exit {record['exit']} {record.get('error') or ''} {record.get('output', '')[-300:]}")
        for name, digest in (record.get("hashes") or {}).items():
            key = f"{record['label']}/{name}"
            if expected is not None and expected.get(key) != digest:
                problems.append(f"{key}: sha256 {digest} differs from golden {expected.get(key)}")
            if reference is not None and reference.get(key) != digest:
                problems.append(f"{key}: sha256 {digest} differs from the first iteration")
        if problems:
            self.failed += 1
            self.errors.append(f"{record['label']}: " + "; ".join(problems))


def _spawn(step: str, args, result: Path, deadline: float, extra=()) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [
        sys.executable, str(HERE / "worker.py"), step,
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(args.seconds), "--result", str(result), *extra,
    ]
    result.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(command, env=env, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker {step} exited {done.returncode}:\n{done.stdout[-3000:]}")
    return json.loads(result.read_text())


def _digests(iteration: dict) -> dict:
    return {
        f"{r['label']}/{name}": digest
        for r in iteration["calls"]
        for name, digest in (r.get("hashes") or {}).items()
    }


def _score(run: Run, measured: dict, golden: dict | None, workload: str) -> dict:
    """Check every call of a measure step; return its ap and rc25 means."""
    run.check(measured["warmup"], None, None)
    reference = _digests(measured["iterations"][0])
    scores = None
    for iteration in measured["iterations"]:
        for record in iteration["calls"]:
            run.check(record, golden, reference)
        values = [r["metrics"] for r in iteration["calls"] if r.get("metrics")]
        means = {k: statistics.fmean(v[k] for v in values) for k in ("ap", "rc25")} if values else None
        if workload == "suite" and means is not None:
            missed = [k for k, floor in workloads.SUITE_GATE.items() if means[k] < floor]
            if missed:
                evals = [r for r in iteration["calls"] if r["label"].endswith("eval") and r["exit"] == 0]
                run.failed += len(evals)
                run.errors.append(f"suite gate missed: {means}")
        if means is None:
            run.errors.append("no evaluation results")
        elif scores is None:
            scores = means
        elif means != scores:
            run.errors.append(f"ap/rc25 changed between iterations: {scores} then {means}")
    return scores or {"ap": 0.0, "rc25": 0.0}


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="smoke: reduced inputs for the benchmark's own smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every proposal file before its eval (smoke test only)")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's output hashes as the golden ones")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "seglift" / "cli.py").is_file():
        print(f"error: no seglift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-{args.scale}-{args.seed}-t{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    base = WORK / "results" / tag
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    check_golden = args.scale == "full" and args.seed == workloads.DEFAULT_SEED and not args.record_golden
    golden = golden_all.get(args.workload, {}) if check_golden else None

    run = Run()
    try:
        inputs_path = base.with_suffix(".inputs.json")
        prepared = _spawn("prepare", args, inputs_path, deadline)
        if golden is not None and golden.get("inputs") != prepared["sha256"]:
            run.errors.append(f"input sha256 {prepared['sha256']} differs from golden {golden.get('inputs')}")
        extra = ["--inputs", str(inputs_path)] + (["--corrupt"] if args.corrupt else [])
        plain = _spawn("measure", args, base.with_suffix(".untraced.json"), deadline, extra)
        traced = None
        if args.trace:
            traced = _spawn("measure", args, base.with_suffix(".traced.json"), deadline, extra + ["--trace", "1"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    golden_outputs = golden.get("outputs", {}) if golden is not None else None
    scores = _score(run, plain, golden_outputs, args.workload)
    walls = [i["wall_s"] for i in plain["iterations"]]
    if traced is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(i["setup_s"] for i in plain["iterations"]),
            "peak_rss_mb": plain["peak_rss_mb"],
            "ap": scores["ap"],
            "rc25": scores["rc25"],
            "ok_frac": 1.0 - run.failed / run.attempted,
        }
    else:
        _score(run, traced, golden_outputs, args.workload)
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["layers"]["trace.wall_s"] - statistics.median(walls)})
        metrics = {name: layers[name] for name in PER_LAYER}
        for layer in workloads.EXPECTED_LAYERS[args.workload]:
            if layers[f"{layer}.calls"] == 0:
                run.errors.append(f"layer {layer} expected on {args.workload} saw zero calls")
        run.errors.extend(f"layer function not found: {m}" for m in traced["missing_layers"])

    if args.record_golden:
        entry = {"inputs": prepared["sha256"], "outputs": _digests(plain["iterations"][0])}
        golden_all[args.workload] = entry
        GOLDEN.write_text(json.dumps(golden_all, indent=2, sort_keys=True) + "\n")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "inputs_sha256": prepared["sha256"],
        "inputs": prepared["meta"],
        "iterations": len(walls),
        "wall_s_per_iteration": walls,
        "raw_wall_s_per_iteration": [i["raw_wall_s"] for i in plain["iterations"]],
        "speed_factors": [round(r["speed_factor"], 4) for i in plain["iterations"] for r in i["calls"]],
        "warmup": "one untimed segment call on the workload's first scene, per measure process",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "versions": prepared["versions"],
        "git_revision": _git_revision(),
        "src_sha256": _src_sha256(),
        "errors": run.errors,
    }
    correct = not run.errors and run.failed == 0
    line = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }
    base.with_suffix(".result.json").write_text(json.dumps({"info": info, "result": line}, indent=2, sort_keys=True))
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
