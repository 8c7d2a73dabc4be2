"""The three workloads: their inputs (from the seed), one timed op, and the
bookkeeping that lets checks.py judge every op's output after the loop.

Each workload runs closed loop with one client: the next op starts when the
previous one returns. See WORKLOADS.md for why each one exists.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the working tree's src/ first."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    known: dict[str, int] = field(default_factory=dict)
    unexpected: dict[str, str] = field(default_factory=dict)

    def count(self, fail_id: str | None, detail: str = "", known: bool = False) -> None:
        self.attempted += 1
        if fail_id is None:
            return
        self.failed += 1
        if known:
            self.known[fail_id] = self.known.get(fail_id, 0) + 1
        else:
            self.unexpected.setdefault(fail_id, detail)


class Workload:
    name = ""
    cycle = 1          # ops that cover every input; a run does at least this many
    in_process = True  # False when each op is a child process
    probe = "cpu"      # the host speed probe that fits an op (see hostspeed.py)
    seed_note = "inputs drawn from --seed"

    def startup(self) -> None:
        """What a fresh process does before its first op; timed as setup_s."""
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, tracer=None):
        raise NotImplementedError

    def keep(self, i: int, out) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the run left in .bench_runs."""


# -- cli-cold ----------------------------------------------------------------


class CliCold(Workload):
    """Each op is one fresh `python -m susy_ladder.cli <mode>` process."""

    name = "cli-cold"
    cycle = 6
    in_process = False
    probe = "cold"

    def __init__(self, seed: int):
        modes = checks.cli_modes()
        names = sorted(modes)
        order = np.random.default_rng(seed).permutation(len(names))
        self.order = [names[k] for k in order]
        self.argv = modes
        self.tmp = RUNS / f"cli-cold-{os.getpid()}"
        self.env = child_env()
        self.outputs: dict[str, str] = {}          # digest -> table text
        self.ops: list[tuple[str, int, str]] = []  # (mode, exit code, digest)
        self.max_rss_kb = 0

    def startup(self) -> None:
        import susy_ladder.cli as cli
        from susy_ladder.params import DiracParams, NRParams
        cli.build_parser()
        NRParams(**checks.FIG2)
        DiracParams(**checks.FIG3)

    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)

    def _command(self, mode: str, out: Path, tracer) -> list[str]:
        cli_args = [*self.argv[mode], "--out", str(out)]
        if tracer is None:
            return [sys.executable, "-m", "susy_ladder.cli", *cli_args]
        return [sys.executable, str(BENCH / "child.py"), "cli-traced",
                str(self.tmp / "spans.npz"), *cli_args]

    def op(self, i: int, tracer=None):
        mode = self.order[i % len(self.order)]
        out = self.tmp / f"{mode}.csv"
        with open(self.tmp / "stderr.txt", "ab") as err:
            proc = subprocess.Popen(self._command(mode, out, tracer), cwd=self.tmp,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None:
            tracer.merge_file(self.tmp / "spans.npz")
        return mode, proc.returncode, usage.ru_maxrss

    def keep(self, i: int, out) -> None:
        mode, code, rss_kb = out
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        path = self.tmp / f"{mode}.csv"
        text = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
        digest = hashlib.blake2b(text.encode()).hexdigest()
        self.outputs.setdefault(digest, text)
        self.ops.append((mode, code, digest))

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0

    def check(self) -> Verdict:
        """One checked output per mode: every op of a mode must exit 0 and
        write the same table, and that table must pass its check."""
        runs: dict[str, list[tuple[int, str]]] = {}
        for mode, code, digest in self.ops:
            runs.setdefault(mode, []).append((code, digest))
        verdict = Verdict()
        for mode, outs in runs.items():
            codes = sorted({code for code, _ in outs if code != 0})
            digests = {digest for _, digest in outs}
            if codes:
                verdict.count(f"{mode}:exit", f"exit codes {codes}")
                continue
            if len(digests) > 1:
                verdict.count(f"{mode}:repeat", f"{len(digests)} different tables")
                continue
            fails = checks.check_cli_table(mode, self.outputs[digests.pop()])
            if not fails:
                verdict.count(None)
                continue
            ids = [fid for fid, _ in fails]
            known = all(checks.is_known(self.name, fid) for fid in ids)
            verdict.count(" ".join(ids), "; ".join(d for _, d in fails), known)
        return verdict

    def close(self) -> None:
        if not self.tmp.exists():
            return
        for p in self.tmp.glob("*"):
            p.unlink()
        self.tmp.rmdir()


# -- verify-battery -----------------------------------------------------------


class VerifyBattery(Workload):
    """Each op is one in-process `verify.run_all` at the canonical regimes."""

    name = "verify-battery"
    seed_note = "seed ignored: verify draws from its own fixed seed"

    def __init__(self, seed: int):
        self.results: list[tuple[tuple[str, bool, str], ...]] = []

    def setup(self) -> None:
        from susy_ladder import verify
        from susy_ladder.params import DiracParams, NRParams
        self.verify = verify
        self.nr = NRParams(**checks.FIG2)
        self.dirac = DiracParams(**checks.FIG3)
        self.op(-1)

    def op(self, i: int, tracer=None):
        return self.verify.run_all(self.nr, self.dirac)

    def keep(self, i: int, out) -> None:
        self.results.append(tuple((r.name, r.passed, r.detail) for r in out))

    def check(self) -> Verdict:
        """One checked output per verify check: it fails when any op
        reported it failed. Every check fails when an op returned a
        different list of checks."""
        failed: dict[str, str] = {}
        for results in self.results:
            names = tuple(name for name, _, _ in results)
            if names != checks.VERIFY_CHECKS:
                failed = dict.fromkeys(checks.VERIFY_CHECKS, f"checks {names}")
                break
            for name, passed, detail in results:
                if not passed:
                    failed.setdefault(name, detail)
        verdict = Verdict()
        for name in checks.VERIFY_CHECKS:
            verdict.count(name if name in failed else None, failed.get(name, ""))
        return verdict


# -- deep-chains --------------------------------------------------------------

LEVELS = (1, 4, 8, 12)
POOL = 48      # parameter sets drawn from the seed
WINDOW = 2     # drawn sets per op; op i sweeps the (i mod POOL/WINDOW)-th block


def draw_sets(seed: int, count: int) -> list[tuple[str, dict, dict]]:
    """(label, scalar (a, b), Dirac (a, b, d0, mbar)) in verify's generator
    ranges, with d0 != 0 so families b and d exist at every level."""
    rng = np.random.default_rng(seed)
    sets = []
    for k in range(count):
        nr = {"a": float(rng.uniform(0.4, 2.5)), "b": float(rng.uniform(0.4, 2.5))}
        d0 = float(rng.uniform(0.1, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        dirac = {"a": float(rng.uniform(0.5, 2.0)), "b": float(rng.uniform(0.4, 2.0)),
                 "d0": d0, "mbar": float(rng.uniform(0.0, 1.5))}
        sets.append((f"r{k}", nr, dirac))
    return sets


class DeepChains(Workload):
    """Each op sweeps the two canonical sets and a block of WINDOW drawn
    sets: the scalar chain and all four Dirac families at n in LEVELS,
    normalised and sampled. A cycle walks every block once, so a run covers
    the whole pool."""

    name = "deep-chains"
    cycle = POOL // WINDOW

    def __init__(self, seed: int):
        self.pool = draw_sets(seed, POOL)
        self.first: dict[str, tuple] = {}     # chain id -> (params, n, fam, drawn, chain)
        self.digests: dict[str, bytes] = {}   # chain id -> digest of its first samples
        self.repeats: dict[str, int] = {}     # chain id -> later ops whose samples differed

    def setup(self) -> None:
        from susy_ladder import dirac, nonrel
        from susy_ladder.params import DiracParams, NRParams
        self.nonrel, self.dirac = nonrel, dirac
        canonical = [("fig2", NRParams(**checks.FIG2), None),
                     ("fig3", NRParams(checks.FIG3["a"], checks.FIG3["b"]),
                      DiracParams(**checks.FIG3))]
        drawn = [(label, NRParams(**nr), DiracParams(**dp)) for label, nr, dp in self.pool]
        self.canonical, self.drawn = canonical, drawn
        self.sweep(canonical)

    def op(self, i: int, tracer=None):
        start = (i % self.cycle) * WINDOW
        return self.sweep(self.canonical + self.drawn[start:start + WINDOW])

    def sweep(self, sets):
        nonrel, dirac = self.nonrel, self.dirac
        out = []
        for label, p, q in sets:
            drawn = label not in ("fig2", "fig3")
            for n in LEVELS:
                x = checks.sample_points(checks.chain_rho_max(p.a, p.b, n), checks.SAMPLES)
                f = nonrel.normalize(nonrel.eigenfunction(p, n))
                out.append((f"scalar {label} n={n}", (p, n, None, drawn, f), f.eval_array(x)))
            if q is None:
                continue
            for fam in checks.FAMILIES:
                for n in LEVELS:
                    x = checks.sample_points(checks.chain_rho_max(q.a, q.b, n), checks.SAMPLES)
                    phi = dirac.normalize_spinor(dirac.eigenfunction_chain(q, n, fam))
                    out.append((f"dirac {label} {fam} n={n}", (q, n, fam, drawn, phi),
                                phi.eval_array(x)))
        return out

    def keep(self, i: int, out) -> None:
        for cid, chain, samples in out:
            digest = hashlib.blake2b(np.ascontiguousarray(samples).tobytes()).digest()
            if cid not in self.digests:
                self.digests[cid] = digest
                self.first[cid] = chain
                self.repeats[cid] = 0
            elif digest != self.digests[cid]:
                self.repeats[cid] += 1

    def check(self) -> Verdict:
        """One checked output per chain: every op must reproduce its first
        samples, and its first computation must pass its check."""
        verdict = Verdict()
        for cid, (params, n, fam, drawn, chain) in self.first.items():
            if self.repeats[cid]:
                verdict.count(cid, f"samples of {self.repeats[cid]} later ops differ from the first")
                continue
            if fam is None:
                result = checks.check_scalar_chain(params.a, params.b, n, chain)
            else:
                result = checks.check_dirac_chain(params, n, fam, chain)
            if result is None:
                verdict.count(None)
            else:
                verdict.count(cid, result, checks.is_known(self.name, cid, n, drawn))
        return verdict


WORKLOADS = {w.name: w for w in (CliCold, VerifyBattery, DeepChains)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
