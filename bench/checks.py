"""Correctness checks for the benchmark's outputs.

Every closed form the checks compare against is restated here (energies,
d_n, the Laguerre eigenfunctions), so a defect in the package cannot also
hide in its own reference. Checks run after the timed loop; a failure is
counted, never dropped.

A failure is "known" when it belongs to the defect that ROADMAP item 1
describes: exact chains above level 6 lose terms or cancel, so they stop
being eigenfunctions. For the canonical parameter sets the failures seen
at the seed are listed one by one in KNOWN_AT_SEED; for sets drawn from the
seed the rule is the level (n >= ITEM1_MIN_LEVEL). Any other failure makes
the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

FIG2 = {"a": 1.5, "b": 0.5}
FIG3 = {"a": 1.0, "b": 2.0, "d0": 1.0, "mbar": 0.1}
FAMILIES = ("a", "b", "c", "d")
SAMPLES = 512
ITEM1_MIN_LEVEL = 7

VERIFY_CHECKS = (
    "nr-riccati-residual", "nr-factorization", "nr-intertwining",
    "nr-eigen-equations", "nr-node-counts", "nr-orthogonality",
    "nr-fd-eigenvalues", "dirac-kernel-annihilation", "dirac-intertwining",
    "dirac-eigen-equations", "dirac-degeneracy-ladder", "spectrum-identities",
    "xi-superpotential-identity", "dirac-fd-scan", "gamma-vs-quadrature",
)

# Failures present at the seed, all caused by ROADMAP item 1. A later fix
# may shrink these lists; nothing may be added to them without a new defect
# entry in ROADMAP.
KNOWN_AT_SEED = {
    "cli-cold": ("nr-eigenfunctions:G7", "nr-eigenfunctions:G8",
                 "nr-eigenfunctions:G9"),
    "verify-battery": (),
    "deep-chains": ("scalar fig2 n=8", "scalar fig2 n=12", "scalar fig3 n=12",
                    "dirac fig3 a n=12", "dirac fig3 b n=12",
                    "dirac fig3 c n=12", "dirac fig3 d n=12"),
}

REL_ENERGY_TOL = 1e-12
OVERLAP_TOL = 1e-9
RESIDUAL_TOL = 1e-4    # good chains stay below ~6e-6 over the drawn ranges, broken ones above ~7e-4
NORM_TOL = 1e-6
CHECK_POINTS = 8192
NORM_POINTS = 2048     # the log-grid trapezoid reaches the 1e-11 floor already at 1024


# -- closed forms ------------------------------------------------------------


def nr_energy(a: float, b: float, n: int) -> float:
    return -b * b / (2.0 * (a + n + 1) ** 2)


def dn(a: float, b: float, d0: float, n: int) -> float:
    dsq = d0 * d0 + n * (2 * a + n) * b * b / (a * a * (a + n) ** 2)
    return (-1.0 if d0 < 0 else 1.0) * math.sqrt(dsq)


def dirac_energy(a: float, b: float, d0: float, mbar: float, n: int, fam: str) -> float:
    d = dn(a, b, d0, n if fam in ("a", "b") else n + 1)
    s = math.sqrt(mbar * mbar + d * d)
    return s if fam in ("a", "c") else -s


def laguerre_function(a: float, b: float, n: int, x: np.ndarray) -> np.ndarray:
    """rho^(a+1) e^(-beta rho) L_n^(2a+1)(2 beta rho), beta = b/(a+n+1)."""
    from scipy.special import eval_genlaguerre
    beta = b / (a + n + 1)
    return np.exp((a + 1) * np.log(x) - beta * x) * eval_genlaguerre(n, 2 * a + 1, 2 * beta * x)


def chain_rho_max(a: float, b: float, n: int) -> float:
    return 40.0 * (a + n + 1) / b


def sample_points(rho_max: float, count: int) -> np.ndarray:
    return np.linspace(rho_max / count, rho_max, count)


def _close(x: float, y: float, tol: float = REL_ENERGY_TOL) -> bool:
    return abs(x - y) <= tol * max(abs(y), 1e-300)


def _sign_changes(v: np.ndarray) -> int:
    return int(np.count_nonzero(v[:-1] * v[1:] < 0))


def norm_points(rho_max: float) -> np.ndarray:
    """Geometric grid for norm checks: the trapezoid rule in log(rho) stays
    accurate where powers rho^(a+j) with a < 1 are steep near the origin."""
    return np.geomspace(1e-9 * rho_max, rho_max, NORM_POINTS)


def _unit_norm(values: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid integral of |values|^2 d(rho) = |values|^2 rho d(log rho)
    on a geometric grid x (values may be a spinor stack)."""
    dens = np.abs(values) ** 2
    if dens.ndim == 2:
        dens = dens.sum(axis=0)
    w = dens * x
    return float(np.sum(0.5 * (w[1:] + w[:-1]) * np.diff(np.log(x))))


# -- cli-cold: one CLI table -------------------------------------------------


def cli_modes() -> dict[str, list[str]]:
    """The six CLI invocations of cli-cold, scalar modes at fig2 and matrix
    modes at fig3."""
    nr = ["--a", str(FIG2["a"]), "--b", str(FIG2["b"])]
    dirac = ["--a", str(FIG3["a"]), "--b", str(FIG3["b"]),
             "--d0", str(FIG3["d0"]), "--mbar", str(FIG3["mbar"])]
    return {
        "nr-spectrum": ["nr-spectrum", *nr],
        "dirac-spectrum": ["dirac-spectrum", *dirac],
        "fig2": ["fig2"],
        "fig3": ["fig3"],
        "nr-eigenfunctions": ["nr-eigenfunctions", *nr, "--levels", "10"],
        "dirac-eigenfunctions": ["dirac-eigenfunctions", *dirac, "--levels", "4"],
    }


def _expected_header(mode: str) -> list[str]:
    if mode == "nr-spectrum":
        return ["n", "energy"]
    if mode == "dirac-spectrum":
        return ["family", "n", "energy"]
    if mode == "fig2":
        return ["rho", "V0", "G0", "G1", "G2", "E0", "E1", "E2"]
    if mode == "fig3":
        fams = [f"{f}{n}" for f in ("a", "c") for n in range(3)]
        return ["rho"] + [f"density_{x}" for x in fams] + [f"E_{x}" for x in fams]
    if mode == "nr-eigenfunctions":
        return ["rho"] + [f"G{n}" for n in range(10)]
    if mode == "dirac-eigenfunctions":
        return ["rho"] + [f"density_{f}{n}" for f in FAMILIES for n in range(4)]
    raise ValueError(f"unknown mode {mode!r}")


def check_cli_table(mode: str, text: str) -> list[tuple[str, str]]:
    """Failures of one CLI table as (id, detail) pairs; empty when it passes."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [(f"{mode}:empty", "no output")]
    header, body = rows[0], rows[1:]
    if header != _expected_header(mode):
        return [(f"{mode}:header", f"header {header}")]
    fails: list[tuple[str, str]] = []
    fa, fb = FIG2["a"], FIG2["b"]
    q = (FIG3["a"], FIG3["b"], FIG3["d0"], FIG3["mbar"])

    if mode == "nr-spectrum":
        if len(body) != 3:
            return [(f"{mode}:rows", f"{len(body)} rows, expected 3")]
        for n, (ns, es) in enumerate(body):
            if int(ns) != n or not _close(float(es), nr_energy(fa, fb, n)):
                fails.append((f"{mode}:E{n}", f"row {ns},{es}"))
        return fails
    if mode == "dirac-spectrum":
        expect = [(f, n) for f in FAMILIES for n in range(3)]
        if len(body) != len(expect):
            return [(f"{mode}:rows", f"{len(body)} rows, expected {len(expect)}")]
        for (fam, n), (fs, ns, es) in zip(expect, body):
            if fs != fam or int(ns) != n or not _close(float(es), dirac_energy(*q, n, fam)):
                fails.append((f"{mode}:E_{fam}{n}", f"row {fs},{ns},{es}"))
        return fails

    if len(body) != SAMPLES:
        return [(f"{mode}:rows", f"{len(body)} rows, expected {SAMPLES}")]
    table = np.array(body, dtype=float)
    if not np.all(np.isfinite(table)):
        return [(f"{mode}:finite", "non-finite values")]
    rho = table[:, 0]
    if not (rho[0] > 0 and np.all(np.diff(rho) > 0)):
        fails.append((f"{mode}:rho", "rho not positive and increasing"))
    cols = {name: table[:, i] for i, name in enumerate(header)}

    if mode in ("nr-eigenfunctions", "fig2"):
        levels = 10 if mode == "nr-eigenfunctions" else 3
        for n in range(levels):
            g = cols[f"G{n}"]
            nodes = _sign_changes(g)
            if nodes != n:
                fails.append((f"{mode}:G{n}", f"{nodes} sign changes, expected {n}"))
    if mode == "fig2":
        v0 = fa * (fa + 1) / (2 * rho ** 2) - fb / rho
        if np.max(np.abs(cols["V0"] - v0) / np.abs(v0)) > REL_ENERGY_TOL:
            fails.append((f"{mode}:V0", "potential column differs from a(a+1)/(2 rho^2) - b/rho"))
        for n in range(3):
            if not all(_close(e, nr_energy(fa, fb, n)) for e in cols[f"E{n}"]):
                fails.append((f"{mode}:E{n}", "energy column differs from -b^2/(2(a+n+1)^2)"))
    if mode in ("fig3", "dirac-eigenfunctions"):
        for name in header[1:]:
            if not name.startswith("density_"):
                continue
            if np.min(cols[name]) < 0:
                fails.append((f"{mode}:{name}", "negative density"))
    if mode == "fig3":
        for fam in ("a", "c"):
            for n in range(3):
                if not all(_close(e, dirac_energy(*q, n, fam)) for e in cols[f"E_{fam}{n}"]):
                    fails.append((f"{mode}:E_{fam}{n}", "energy column differs from +/-sqrt(mbar^2+d^2)"))
    return fails


# -- deep-chains: one normalised chain ---------------------------------------


def check_scalar_chain(a: float, b: float, n: int, chain) -> str | None:
    """None when the normalised scalar chain matches the Laguerre closed form
    with n+1 terms and unit norm; otherwise what failed."""
    if len(chain.terms) != n + 1:
        return f"{len(chain.terms)} terms, expected {n + 1}"
    x = sample_points(chain_rho_max(a, b, n), CHECK_POINTS)
    g = chain.eval_array(x).real
    ref = laguerre_function(a, b, n, x)
    overlap = abs(g @ ref) / math.sqrt((g @ g) * (ref @ ref))
    if not overlap >= 1.0 - OVERLAP_TOL:
        return f"overlap with the Laguerre form {overlap:.12f}"
    x = norm_points(chain_rho_max(a, b, n))
    norm = _unit_norm(chain.eval_array(x), x)
    if not abs(norm - 1.0) <= NORM_TOL:
        return f"norm {norm:.9f}"
    return None


def check_dirac_chain(params, n: int, fam: str, chain) -> str | None:
    """None when the normalised Dirac chain solves the first-order radial
    equation at the independently computed energy, with unit norm."""
    from susy_ladder import oracle
    energy = dirac_energy(params.a, params.b, params.d0, params.mbar, n, fam)
    grid = oracle.default_grid(params, n, CHECK_POINTS)
    report = oracle.residual_dirac(chain.eval_array(grid.points), energy, params, grid)
    if not report.relative_l2 <= RESIDUAL_TOL:
        return f"relative L2 residual {report.relative_l2:.3e} at {CHECK_POINTS} points"
    x = norm_points(chain_rho_max(params.a, params.b, n))
    norm = _unit_norm(chain.eval_array(x), x)
    if not abs(norm - 1.0) <= NORM_TOL:
        return f"norm {norm:.9f}"
    return None


def is_known(workload: str, fail_id: str, level: int | None = None,
             drawn: bool = False) -> bool:
    """True when a failure belongs to ROADMAP item 1 as recorded at the seed."""
    if drawn:
        return level is not None and level >= ITEM1_MIN_LEVEL
    return fail_id in KNOWN_AT_SEED[workload]
