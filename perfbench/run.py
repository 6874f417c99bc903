#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

One closed-loop client sends the next request as soon as the previous one
has completed, with no other threads.  The run sets up (imports, instance
generation, input files), then sends requests for --seconds seconds, and
at least MIN_REQUESTS of them, checking every output against the recorded
references.  Set-up is then repeated SETUP_PROBES times in fresh
processes and setup_s is the median of all set-ups.

Every timing is scaled to a reference machine speed (speed.py): a fixed
calibration block runs before and after each request and around each
set-up, and a time is multiplied by speed.REFERENCE_BLOCK_S over the
block's time measured around it.  The result file keeps the raw wall
times as well.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the package's public functions are
wrapped (tracer.py) and the metrics are the per-layer ones, totalled
over the first TRACE_WINDOW requests.  A result file with the run's
metadata, and for traced runs a span file, go to .perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

WORKLOAD_NAMES = ("solve", "generate", "export", "verify")
MIN_REQUESTS = 100  # p90 needs ten samples beyond it
TRACE_WINDOW = 100
SETUP_PROBES = 4
SETUP_BLOCKS = 15  # calibration blocks timed before and after a set-up
MAX_LOOP_SECONDS = 120.0  # the run must end within 180 s even on a slow machine
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up; print its seconds and "
                             "the calibration block's seconds around it")
    return parser.parse_args(argv)


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def timed_setup(workload: str, seed: int, workdir: str, references: dict):
    """Import the package and build the workload's inputs.

    Returns (workload, seconds, calibration block seconds): the block's
    median over SETUP_BLOCKS runs before and as many after the set-up,
    the first two discarded as warm-up of a fresh process.
    """
    blocks = [speed.block_seconds() for _ in range(SETUP_BLOCKS + 2)][2:]
    start = time.perf_counter()
    import workloads

    instance = workloads.WORKLOADS[workload](seed, workdir, references)
    seconds = time.perf_counter() - start
    blocks += [speed.block_seconds() for _ in range(SETUP_BLOCKS)]
    return instance, seconds, statistics.median(blocks)


def probe_setups(args) -> list[tuple[float, float]]:
    """(seconds, calibration block seconds) of SETUP_PROBES fresh set-ups."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, block = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(block)))
    return samples


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wsptools").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_metadata(args) -> dict:
    in_git = (ROOT / ".git").exists()
    status = _git("status", "--porcelain") if in_git else None
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def closed_loop(workload, seconds: float, tracer=None):
    """Requests back to back, each between two calibration blocks.

    Returns (latencies, busy, failures, blocks, elapsed): per request the
    wall seconds of the request and of the request plus its check, the
    failures, the calibration block seconds (one more than requests) and
    the wall seconds of the whole loop.
    """
    latencies: list[float] = []
    busy: list[float] = []
    failures: list[tuple[int, str]] = []
    blocks = [speed.block_seconds()]
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_SECONDS or (elapsed >= seconds and index >= MIN_REQUESTS):
            break
        if tracer is not None:
            tracer.begin_request(index)
        sent = time.perf_counter()
        try:
            output = workload.request(index)
            error = None
        except Exception:
            error = traceback.format_exc(limit=-3)
        latencies.append(time.perf_counter() - sent)
        if tracer is not None:
            tracer.end_request()
        if error is None:
            try:
                error = workload.check(index, output)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=-3)
        busy.append(time.perf_counter() - sent)
        blocks.append(speed.block_seconds())
        if error is not None:
            failures.append((index, error))
        index += 1
    return latencies, busy, failures, blocks, time.perf_counter() - start


def timing_metrics(latencies, busy, completed, scales) -> dict[str, float]:
    """Throughput and latency quantiles of seconds scaled request by request."""
    latencies = [t * k for t, k in zip(latencies, scales)]
    busy_s = sum(t * k for t, k in zip(busy, scales))
    return {
        "throughput_rps": completed / busy_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8]
                          if len(latencies) > 1 else latencies[0]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wsptools" / "__init__.py").is_file() or not REFERENCES.is_file():
        print(f"error: {SRC / 'wsptools'} or {REFERENCES} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    with open(REFERENCES) as f:
        references = json.load(f)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work")
    try:
        if args.setup_probe:
            _, seconds, block = timed_setup(args.workload, args.seed, workdir, references)
            print(seconds, block)
            return 0
        return measure(args, workdir, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str, references: dict) -> int:
    load_before = os.getloadavg()
    workload, *setup_first = timed_setup(args.workload, args.seed, workdir, references)
    loaded_from = Path(sys.modules["wsptools"].__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        print(f"error: wsptools was imported from {loaded_from}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        latencies, busy, failures, blocks, elapsed = closed_loop(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [tuple(setup_first)] + probe_setups(args)
    load_after = os.getloadavg()

    attempted = len(latencies)
    completed = attempted - len(failures)
    # each request is scaled by the mean of the blocks just before and after it
    scales = [2.0 * speed.REFERENCE_BLOCK_S / (before + after)
              for before, after in zip(blocks, blocks[1:])]
    end_to_end = timing_metrics(latencies, busy, completed, scales)
    end_to_end["setup_s"] = statistics.median(
        seconds * speed.REFERENCE_BLOCK_S / block for seconds, block in setup_samples)
    end_to_end["peak_rss_mb"] = peak_rss_mb
    wall = timing_metrics(latencies, busy, completed, [1.0] * attempted)
    wall["setup_s"] = statistics.median(seconds for seconds, _ in setup_samples)
    throughput = end_to_end["throughput_rps"]
    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    else:
        from tracer import LAYER_METRICS

        layers = tracer.layer_metrics(min(TRACE_WINDOW, attempted), throughput, scales)
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in layers.items()}

    path = result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = run_metadata(args)
    record.update({
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "requests": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "timed_seconds": elapsed,
        "setup_samples_s": setup_samples,
        "calibration_block_s": {"reference": speed.REFERENCE_BLOCK_S,
                                "median": statistics.median(blocks),
                                "min": min(blocks), "max": max(blocks)},
        "end_to_end": end_to_end,
        "wall_clock": wall,
        "metrics": metrics,
        "failures": [{"request": i, "error": e} for i, e in failures[:20]],
    })
    if tracer is not None:
        record["trace_window"] = min(TRACE_WINDOW, attempted)
        record["per_call"] = tracer.per_call(record["trace_window"], scales)
        spans_path = path.with_suffix(".spans.jsonl")
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} requests, "
          f"{len(failures)} failed, {throughput:.3f} req/s at reference speed "
          f"({wall['throughput_rps']:.3f} wall clock), result file {path}",
          file=sys.stderr)
    for index, error in failures[:3]:
        print(f"  request {index}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
