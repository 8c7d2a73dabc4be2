"""Host speed probes: the yardsticks behind every time metric in the result.

On a shared host the speed of a core drifts with what other tenants run.
The same op can take 1.5 times as long from one minute to the next, with
CPU time rising as much as wall time, so no statistic over one run's ops
can hide it. A probe times fixed work that does not touch susy_ladder, so
no change to the package can move it. run.py times a probe next to every op
and every set-up, and reports reference seconds:

    reference seconds = wall seconds * ref / probe seconds

where the probe seconds are the mean of the probes just before and just
after, and ref is the probe's time on a quiet host. That is the wall time
the op would take on a host where the probe takes ref. Wall seconds stay in
the run record.

There are two probes, because the host slows a fresh process (exec, page
faults, imports) less than a busy interpreter loop:
- "cpu": interpreter work and small numpy calls in this process, for ops
  that run in this process;
- "cold": a fresh isolated interpreter that imports numpy, for ops and
  set-ups that start a process.

Caveat: work the package leaves running between ops (a thread that does not
stop, say) would slow the probe as well as the op, and so partly cancel in
reference seconds. The wall figures in the record still show it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np


def probe_cpu() -> float:
    """Wall seconds of a fixed mix of interpreter work and small numpy calls."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(40_000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] / (k + 1)
    x = np.linspace(0.1, 1.0, 64)
    for _ in range(600):
        x = np.sqrt(x * x + 1.0) - 0.5
    return time.perf_counter() - t0


def probe_cold() -> float:
    """Wall seconds of a fresh interpreter importing numpy. Isolated mode
    (-I) keeps the working tree and PYTHONPATH off its path. The wait blocks
    in wait4: a wait with a timeout polls, and its sleeps would round the
    time up to the next 50 ms."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", "-c", "import numpy"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, _ = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"host probe exited {proc.returncode}")
    return elapsed


# name -> (probe, ref): ref is a round figure near the probe's time on a
# 2-vCPU Xeon VM at a quiet moment, with one BLAS thread.
PROBES = {"cpu": (probe_cpu, 0.010), "cold": (probe_cold, 0.150)}


class Yardstick:
    """Converts wall seconds to reference seconds with one kind of probe,
    probing again after every conversion."""

    def __init__(self, kind: str):
        self.probe, self.ref_s = PROBES[kind]
        self.probes = [self.probe()]

    def to_ref(self, wall: float) -> float:
        """Reference seconds of a wall time that ended just now."""
        self.probes.append(self.probe())
        return wall * self.ref_s * 2.0 / (self.probes[-2] + self.probes[-1])
