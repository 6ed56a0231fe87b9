"""One fresh process per step of a benchmark run; started by run.py.

``prepare`` generates (or reuses) the workload's inputs. ``measure`` drives
``seglift.cli.main`` in-process: one untimed warm-up call, then whole
iterations of the workload until the next one would overrun ``--seconds``.
Only the CLI calls are timed; output hashing and parsing happen outside the
timed region. The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"

# Shared hosts change their CPU speed by up to 1.5x over seconds to minutes,
# and the pipeline's run time follows it. A background thread times a short
# fixed pure-Python loop every SAMPLE_PERIOD_S; each CLI call's seconds are
# scaled by REFERENCE_S over the loop's trimmed mean time during that call.
# Timings are thus seconds at the CPU speed where the loop takes REFERENCE_S.
# Raw seconds and the factors are kept in the result file.
SAMPLE_PERIOD_S = 0.025
SAMPLE_LOOPS = 5_000
REFERENCE_S = 0.0005


class SpeedMonitor:
    """Samples the machine's momentary CPU speed while the workload runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = clock()
            acc = 0
            for i in range(SAMPLE_LOOPS):
                acc += i * i % 7
            end = clock()
            self.samples.append((end, end - start))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the trimmed mean loop time within [start, end]."""
        margin = 2 * SAMPLE_PERIOD_S
        times = sorted(s for t, s in self.samples if start - margin <= t <= end + margin)
        if not times:
            return 1.0
        cut = len(times) // 10
        kept = times[cut : len(times) - cut]
        return REFERENCE_S / statistics.fmean(kept)


def _import_seglift():
    sys.path.insert(0, str(ROOT / "src"))
    import seglift.cli

    origin = Path(seglift.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"seglift imported from {origin}, not from {ROOT / 'src'}")
    return seglift.cli


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _read_metrics(command: str, out: Path) -> dict:
    """ap and rc25 reported by an eval (eval.txt) or an ablation table (means)."""
    if command == "eval":
        path = out / "eval.txt"
        if not path.is_file():
            return {}
        values = dict(line.split("\t") for line in path.read_text().splitlines() if line)
        return {"ap": float(values["ap"]), "rc25": float(values["rc25"])}
    if command == "ablate":
        rows = [line.split("\t") for line in (out / "ablation.tsv").read_text().splitlines()]
        header, body = rows[0], rows[1:]
        return {k: statistics.fmean(float(r[header.index(k)]) for r in body) for k in ("ap", "rc25")}
    return {}


def _call(main, label: str, argv: list[str], corrupt: bool) -> dict:
    """Run one CLI call; return its timing, exit code and output digest."""
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed call, not a failed benchmark
        code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    out = Path(argv[argv.index("--out") + 1])
    command = argv[0]
    out_dir = out.parent if command == "eval" else out
    record = {"label": label, "exit": code, "start": start, "seconds": seconds, "error": error}
    if code != 0:
        record["output"] = sink.getvalue()[-2000:]
        return record
    record["hashes"] = {
        name: _sha256(out_dir / name) for name in workloads.HASHED_OUTPUTS.get(command, ())
    }
    try:
        record["metrics"] = _read_metrics(command, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        record["exit"], record["error"] = 1, f"unreadable output: {exc}"
    if corrupt and command == "segment":
        # For the smoke test: a damaged proposal file must surface as a failure.
        proposals = out_dir / "proposals.jsonl"
        proposals.write_text("{not json\n" + proposals.read_text())
    return record


def measure(args) -> dict:
    cli = _import_seglift()
    import tracing

    inputs = json.loads(Path(args.inputs).read_text())
    tracer = tracing.Tracer()
    missing = tracer.install(tracing.LAYERS if args.trace else tracing.SETUP_LAYERS)

    out = WORK / "runs" / f"{args.workload}-{args.scale}-{args.seed}-t{args.trace}"
    label, argv = workloads.warmup(args.workload, inputs["scenes"], inputs["tracks"], str(out / "warmup"))
    warm = _call(cli.main, label, argv, False)
    tracer.reset()

    calls = workloads.invocations(args.workload, inputs["scenes"], inputs["tracks"], str(out / "run"))
    iterations = []
    started = time.perf_counter()
    with SpeedMonitor() as monitor:
        while True:
            tracer.iteration = len(iterations)
            records = []
            for label, argv in calls:
                first = len(tracer.spans)
                record = _call(cli.main, label, argv, args.corrupt)
                record["speed_factor"] = monitor.factor(record["start"], record["start"] + record["seconds"])
                record["setup_s"] = tracer.setup_seconds(first)
                tracer.scale(first, record["speed_factor"])
                records.append(record)
            iterations.append(
                {
                    "wall_s": sum(r["seconds"] * r["speed_factor"] for r in records),
                    "setup_s": sum(r["setup_s"] * r["speed_factor"] for r in records),
                    "raw_wall_s": sum(r["seconds"] for r in records),
                    "calls": records,
                }
            )
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(i["raw_wall_s"] for i in iterations) > args.seconds:
                break

    result = {
        "warmup": warm,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_layers": missing,
    }
    if args.trace:
        walls = [i["wall_s"] for i in iterations]
        result["layers"] = tracer.layer_table(len(iterations), walls)
        spans_path = Path(args.result).with_suffix(".spans.jsonl")
        with open(spans_path, "w", encoding="ascii") as fh:
            for name, start, end, parent, it, extra, factor in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "iteration": it, "extra": extra, "speed_factor": factor}) + "\n")
    return result


def prepare(args) -> dict:
    _import_seglift()
    import numpy
    import scipy

    import inputs

    prepared = inputs.prepare(args.workload, args.seed, args.scale, WORK / "cache")
    prepared["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return prepared


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=workloads.SCALES)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inputs")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = prepare(args) if args.step == "prepare" else measure(args)
    Path(args.result).write_text(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
