"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload briefly with --trace 0 and --trace 1 and checks that
   the last line is the result object, that it prints exactly the metric
   names and units BENCHMARK.json lists, that the run is correct, and that
   both runs of one seed count the same failed and attempted outputs.
2. Corrupts outputs on purpose (a perturbed energy, a rescaled or swapped
   chain, a failed verify check) and checks that each is counted as failed.
3. Runs the benchmark in a copy holding only BENCHMARK.json and the
   benchmark's files, where it must exit non-zero without a result.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=180)


def check_metric_names() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        counts = set()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(ROOT, workload, trace)
            expect(out.returncode == 0, f"{workload} trace {trace} exited {out.returncode}: "
                                        f"{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{workload} trace {trace}: not correct")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            listed = {m["name"]: m["unit"] for m in SPEC[section]}
            expect(printed == listed, f"{workload} trace {trace}: metrics differ from "
                                      f"BENCHMARK.json {section}: "
                                      f"{sorted(set(printed) ^ set(listed))}")
            counts.add((result["failed"], result["attempted"]))
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        expect(len(counts) == 1, f"{workload}: failed/attempted differ between runs "
                                 f"of one seed: {sorted(counts)}")


def check_corruption_counted() -> None:
    cli = workloads.make("cli-cold", 7)
    cli.setup()
    try:
        i = cli.order.index("nr-spectrum")
        cli.keep(i, cli.op(i))
    finally:
        cli.close()
    expect(cli.check().failed == 0, "clean nr-spectrum table failed its check")
    mode, code, digest = cli.ops[0]
    lines = cli.outputs[digest].splitlines()
    n, energy = lines[2].split(",")
    lines[2] = f"{n},{float(energy) * (1 + 1e-9):.16e}"
    cli.outputs[digest] = "\n".join(lines) + "\n"
    verdict = cli.check()
    expect(verdict.failed == 1 and "nr-spectrum:E1" in verdict.unexpected,
           f"perturbed energy not counted: {verdict}")
    print("ok  a perturbed CLI energy counts as an unexpected failure")

    deep = workloads.make("deep-chains", 7)
    deep.setup()
    deep.keep(0, deep.op(0))
    clean = deep.check()
    expect(not clean.unexpected, f"clean deep-chains op failed: {clean.unexpected}")
    *head, chain = deep.first["scalar fig2 n=4"]
    deep.first["scalar fig2 n=4"] = (*head, chain.scale(1.001))
    *head, _ = deep.first["dirac fig3 c n=4"]
    deep.first["dirac fig3 c n=4"] = (*head, deep.first["dirac fig3 a n=4"][-1])
    verdict = deep.check()
    expect(verdict.failed == clean.failed + 2
           and {"scalar fig2 n=4", "dirac fig3 c n=4"} <= set(verdict.unexpected),
           f"corrupted chains not counted: {verdict.unexpected}")
    print("ok  a rescaled scalar chain and a swapped Dirac chain count as unexpected failures")

    battery = workloads.make("verify-battery", 7)
    battery.results = [tuple((name, name != "dirac-fd-scan", "")
                             for name in workloads.checks.VERIFY_CHECKS)]
    verdict = battery.check()
    expect(verdict.failed == 1 and "dirac-fd-scan" in verdict.unexpected,
           f"failed verify check not counted: {verdict}")
    print("ok  a failed verify check counts as an unexpected failure")


def check_refuses_without_source() -> None:
    bare = workloads.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    expect(out.returncode != 0 and not out.stdout.strip(),
           f"run without src/ exited {out.returncode} printing {out.stdout!r}")
    print(f"ok  without src/ the benchmark exits {out.returncode} and prints no result")


if __name__ == "__main__":
    check_corruption_counted()
    check_refuses_without_source()
    check_metric_names()
    print("selftest passed")
