"""susy-ladder benchmark.

    python3 bench/run.py --workload {cli-cold,verify-battery,deep-chains}
                         --seed N --seconds S --trace {0,1}

Runs one workload closed loop for about S seconds against the working
tree's src/, checks every output after the loop, and prints a run record
line and then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the loop is split into an untraced and a
traced half and the metrics are the per-layer ones (see tracing.py).
End-to-end times are in reference seconds, corrected for the host's speed
(see hostspeed.py); the record also gives them in wall seconds.
Exits non-zero, printing no result, when the working tree cannot be used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# One client, one process, no extra threads: BLAS thread pools stay off here
# and in every child, which inherits this environment. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5      # fresh processes timed from spawn to ready; setup_s is their median
CLI_PROBES = 5        # fresh processes behind cli.python_start_s and cli.import_s
SPAN_CAP = 2_000_000  # the traced half stops early rather than hold more spans
TAIL_BEYOND = 10      # the tail percentile keeps at least this many samples above it


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_working_tree():
    if not (SRC / "susy_ladder" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'susy_ladder'}")
    sys.path.insert(0, str(SRC))
    import susy_ladder
    where = Path(susy_ladder.__file__).resolve()
    if SRC.resolve() not in where.parents:
        fail(f"susy_ladder resolved to {where}, not under {SRC}")
    return where


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def child(*args: str) -> str:
    from workloads import child_env
    out = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        fail(f"child.py {' '.join(args)} exited {out.returncode}: {out.stderr.strip()}")
    return out.stdout.split()[-1]


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of each fresh process's start-up."""
    walls, refs = [], []
    yardstick = hostspeed.Yardstick("cold")
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        wall = float(child("setup", workload, str(seed))) - t0
        walls.append(wall)
        refs.append(yardstick.to_ref(wall))
    return walls, refs


def python_start_seconds() -> float:
    samples = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile (nearest rank) with at least TAIL_BEYOND
    samples above it, falling back to the median for short runs.
    Returns (percentile, value, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, ordered[rank - 1], n - rank


def timed_loop(w, seconds: float, op, yardstick, first: int = 0,
               stop=lambda: False) -> tuple[list[float], list[float]]:
    """Closed loop: time op(i) with a host probe between ops. Stops once
    `seconds` have passed (or stop() holds) and at least one whole cycle has
    run, so every input of the workload is covered. Returns each op's wall
    and reference seconds."""
    walls, refs = [], []
    i = first
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = op(i)
        wall = time.perf_counter() - t0
        w.keep(i, out)
        walls.append(wall)
        refs.append(yardstick.to_ref(wall))
        i += 1
        if i - first >= w.cycle and (time.perf_counter() - begin >= seconds or stop()):
            return walls, refs


class Phases(dict):
    """Wall seconds spent in each phase of a run, for the run record."""

    def __init__(self):
        super().__init__()
        self._last = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self[name] = now - self._last
        self._last = now


def run_plain(w, args):
    phases = Phases()
    setup_walls, setups = setup_seconds(w.name, args.seed)
    phases.mark("setup_probes")
    w.setup()
    phases.mark("setup")
    yardstick = hostspeed.Yardstick(w.probe)
    walls, latencies = timed_loop(w, args.seconds, w.op, yardstick)
    phases.mark("loop")
    rss = w.peak_rss_mb()
    verdict = w.check()
    phases.mark("check")
    pct, tail_value, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "pass_ratio": (1.0 - verdict.failed / verdict.attempted, "ratio"),
        "peak_rss_mb": (rss, "MiB"),
    }
    record = {"phase_s": phases, "ops": len(latencies),
              "setup_samples_s": setups, "setup_samples_wall_s": setup_walls,
              "latency_tail": {"percentile": pct, "samples": len(latencies),
                               "samples_beyond": beyond},
              "wall_s": {"setup_s": statistics.median(setup_walls),
                         "latency_p50_s": statistics.median(walls),
                         "latency_tail_s": tail(walls)[1]},
              "host_probe": {"kind": w.probe, "p50_s": statistics.median(yardstick.probes)},
              "fail_ratio": verdict.failed / verdict.attempted}
    return metrics, record, verdict


def run_traced(w, args):
    from tracing import Tracer, per_layer_units
    phases = Phases()
    w.setup()
    phases.mark("setup")
    yardstick = hostspeed.Yardstick(w.probe)
    _, plain = timed_loop(w, args.seconds / 2, w.op, yardstick)
    phases.mark("loop_untraced")
    tracer = Tracer()
    if w.in_process:
        tracer.install()
    try:
        _, traced = timed_loop(w, args.seconds / 2,
                               lambda i: tracer.run("op", w.op, i, tracer), yardstick,
                               first=len(plain), stop=lambda: len(tracer.start) > SPAN_CAP)
    finally:
        tracer.uninstall()
    phases.mark("loop_traced")
    verdict = w.check()
    phases.mark("check")
    ops = len(traced)
    summary = tracer.summary(ops)
    counts = {c: v / ops for c, v in tracer.counts.items()}
    kept, given = tracer.counts["expalg.construct.terms_kept"], tracer.counts["expalg.construct.terms_in"]
    measured = {
        **summary, **counts,
        "cli.python_start_s": python_start_seconds(),
        "cli.import_s": statistics.median(float(child("import-cli")) for _ in range(CLI_PROBES)),
        "expalg.construct.kept_ratio": kept / given if given else 1.0,
        "op.untraced_s": summary["op.self_s"],
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    }
    metrics = {name: (measured.get(name, 0.0), unit)
               for name, unit in per_layer_units().items()}
    spans_file = ROOT / ".bench_runs" / f"trace-{w.name}.npz"
    tracer.save(spans_file)
    phases.mark("probes_and_save")
    record = {"phase_s": phases, "ops_untraced": len(plain), "ops_traced": ops, "spans": len(tracer.start),
              "spans_file": str(spans_file.relative_to(ROOT)),
              "latency_p50_untraced_ref_s": statistics.median(plain),
              "latency_p50_traced_ref_s": statistics.median(traced),
              "fail_ratio": verdict.failed / verdict.attempted}
    return metrics, record, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "verify-battery", "deep-chains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package_file = import_working_tree()
    import workloads
    w = workloads.make(args.workload, args.seed)
    try:
        metrics, record, verdict = (run_traced if args.trace else run_plain)(w, args)
    finally:
        w.close()

    import numpy
    record = {
        "workload": w.name, "seed": args.seed, "seed_note": w.seed_note,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "susy_ladder": str(package_file.relative_to(ROOT)), "commit": git_commit(),
        **record,
        "known_failures": verdict.known, "unexpected_failures": verdict.unexpected,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not verdict.unexpected,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
