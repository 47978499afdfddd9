"""mongelight benchmark runner.

    python3 perfbench/run.py --workload grid3d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nothing needs installing.  Workloads and the
metrics they print are listed in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same cycles first plain, then with every public
layer function wrapped (see ``bench_trace.py``), and prints per-layer call
counts and self times per sample point, plus the tracing overhead.

Each run first sets up several times (fresh interpreter import plus input
construction) and reports the median, then runs an untimed warm-up that
checks every output, then measures whole cycles for ``--seconds``.  Every
time is rescaled to a reference machine speed by the probe in
``bench_workloads.py``; the unscaled throughput and median are printed on a
``#`` line.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any failed check makes
the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 7
# Enough requests that ten lie beyond the 90th percentile; a grid request
# takes about a second, so grid runs stop at the time limit with fewer.
MIN_REQUESTS = {"point_queries": 110, "cli": 110}
END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one (no parent lookup)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def run_cycles(bw, step, seconds: float, stats, min_requests: int = 1):
    """Whole cycles ``step(stats)`` until ``seconds`` have passed and
    ``min_requests`` were timed, each cycle between two machine-speed probes."""
    deadline = time.perf_counter() + seconds
    while True:
        _, factor = bw.timed_by_probe(lambda: step(stats))
        stats.rescale(factor)
        if time.perf_counter() >= deadline and len(stats.latencies) >= min_requests:
            return


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(bw, workload_name, workload, seconds, setup_times, stats) -> dict:
    timed = bw.Stats()
    run_cycles(bw, workload.cycle, seconds, timed, MIN_REQUESTS.get(workload_name, 1))
    stats.absorb(timed)
    lat = timed.latencies
    values = {
        "setup_s": statistics.median(setup_times),
        "points_per_s": timed.points / timed.busy,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else 1e3 * lat[0],
        "peak_rss_mb": peak_rss_mb(workload_name),
    }
    print(f"# {workload_name}: {len(lat)} timed requests, {timed.points} points, "
          f"error_rate {stats.failed / stats.attempted:.6g}, unscaled points_per_s "
          f"{timed.points / sum(timed.raw):.6g}, latency_p50_ms {1e3 * statistics.median(timed.raw):.6g}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(bw, bt, workload_name, workload, seconds, stats) -> dict:
    plain = bw.Stats()
    run_cycles(bw, workload.trace_cycle, seconds / 2, plain)
    tracer = bt.Tracer()
    traced = bw.Stats(tracer)
    tracer.install()
    try:
        run_cycles(bw, workload.trace_cycle, seconds / 2, traced)
    finally:
        tracer.uninstall()
    stats.absorb(plain)
    stats.absorb(traced)

    metrics = {}
    speed = traced.busy / sum(traced.raw)
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls_per_pt"] = {"value": calls / traced.points, "unit": "calls/pt"}
        metrics[f"{name}.self_ms_per_pt"] = {
            "value": 1e3 * speed * self_s / traced.points, "unit": "ms/pt"}

    walls, speed = {}, 1.0
    if workload_name == "cli":
        walls, speed = bw.timed_by_probe(lambda: workload.subprocess_walls(stats))
    for kind in ("import", "eval", "verify", "classify"):
        value = speed * statistics.median(walls[kind]) if walls else 0.0
        metrics[f"cli.{kind}_s"] = {"value": value, "unit": "s"}

    plain_rate = plain.points / plain.busy
    traced_rate = traced.points / traced.busy
    metrics["trace.overhead_ratio"] = {"value": traced_rate / plain_rate, "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{workload_name}.csv")
    print(f"# {workload_name}: traced {len(traced.latencies)} requests, {traced.points} points, "
          f"{len(tracer.start)} spans")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mongelight" / "__init__.py").is_file():
        print(f"run.py: no mongelight sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench_workloads as bw

    if Path(bw.ml.__file__).resolve().parent != SRC / "mongelight":
        print(f"run.py: imported mongelight from {bw.ml.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bw.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bw.WORKLOADS)}", file=sys.stderr)
        return 2

    print("# environment " + json.dumps(environment(args.workload, args.seed)))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    stats = bw.Stats()
    try:
        make = bw.WORKLOADS[args.workload]

        def set_up():
            t_import = bw.import_wall(SRC)
            t0 = time.perf_counter()
            built = make(args.seed, workdir)
            return built, t_import + time.perf_counter() - t0

        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            (workload, seconds), factor = bw.timed_by_probe(set_up)
            setup_times.append(seconds * factor)
        workload.gate(stats)
        if args.trace:
            import bench_trace as bt

            metrics = per_layer(bw, bt, args.workload, workload, args.seconds, stats)
        else:
            metrics = end_to_end(bw, args.workload, workload, args.seconds, setup_times, stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in stats.messages:
        print(f"run.py: check failed: {message}", file=sys.stderr)
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if stats.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
