"""Command-line front end.

Subcommands emit deterministic CSV or JSON tables: spectra, sampled
eigenfunctions and probability densities, the two canonical figure datasets,
and a one-shot verification run. Floats are rendered in fixed 17-significant-
digit scientific notation so identical configurations produce identical
bytes on every platform.

Every mode but verify runs in pure Python and never imports numpy, which
would otherwise be the largest cost of a cold run. The tables sample each
eigenfunction from its Laguerre closed form (expalg.laguerre_samples), on
FIG_SAMPLES points that equal np.linspace's bit for bit. The chains are
still built and normalised, so one that has left its closed form still
fails with PrecisionLoss. A sample that is not finite fails with
NonFiniteSample, naming its column and rho.

Exit codes: 0 success, 2 invalid configuration or parameters (including
more eigenfunction levels than MAX_LEVELS, more grid points than
MAX_GRID_POINTS, or a window whose samples are not finite), 3 when verify
finds a failed check (an oracle grid that does not converge on refinement
fails its check; the other checks still run).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import dirac as dc
from . import nonrel as nr
from .errors import GridCapExceeded, LadderError, LevelCapExceeded, NonFiniteSample
from .expalg import laguerre_samples
from .params import DiracParams, NRParams, PhysicalParams, default_rho_max

FIG_SAMPLES = 512

# Most levels an eigenfunction table takes. The window default_rho_max puts
# the top level's edge at x = 2 beta rho = 80, and the share of its norm
# beyond the edge grows with the level: at a = 1.5 it is 4.5e-6 at level 12
# and 4.6e-5 at level 13. It also grows with a (6.1e-4 at a = 4, level 12).
MAX_LEVELS = 13
_CAPPED_MODES = ("nr-eigenfunctions", "dirac-eigenfunctions")
_CAP_REASON = (f"beyond level {MAX_LEVELS - 1} the sampling window cuts off more "
               "than 5e-6 of the top level's norm at a = 1.5")

# Most LogGrid points the scalar check takes; its refinement re-solves at
# 2N - 1. The solve costs about 6 us and 150 bytes per point (0.38 s and
# 11 MB at 65536), and past 8192 points the graded matrix's roundoff outgrows
# the step error: at fig2 the error is 3.7e-13 at 8192, 3.2e-11 at 65536 and
# 2.6e-10 at 262144 points.
MIN_GRID_POINTS = 64
MAX_GRID_POINTS = 65536
_GRID_CAP_REASON = "more points cost time linearly and, past 8192, lose accuracy to roundoff"

# Canonical parameter sets reproduced by the figure subcommands.
FIG2_NR = {"a": 1.5, "b": 0.5}
FIG3_DIRAC = {"a": 1.0, "b": 2.0, "d0": 1.0, "mbar": 0.1}

_DIMENSIONLESS = ("a", "b", "d0", "mbar")
_PHYSICAL = ("hbar", "m", "c", "e", "k", "pz", "ell")

# The RunConfig fields each mode reads from its own flag; every mode also
# takes --format and --out.
_NR_FLAGS = ("a", "b", *_PHYSICAL)
_DIRAC_FLAGS = (*_DIMENSIONLESS, *_PHYSICAL)
_MODE_FLAGS = {
    "nr-spectrum": (*_NR_FLAGS, "levels"),
    "nr-eigenfunctions": (*_NR_FLAGS, "levels", "rho_max"),
    "dirac-spectrum": (*_DIRAC_FLAGS, "levels", "families"),
    "dirac-eigenfunctions": (*_DIRAC_FLAGS, "levels", "families", "rho_max"),
    "fig2": (*_NR_FLAGS, "rho_max"),
    "fig3": (*_DIRAC_FLAGS, "rho_max"),
    "verify": (*_DIRAC_FLAGS, "grid_points", "tolerance"),
}
MODES = tuple(_MODE_FLAGS)


@dataclass
class RunConfig:
    mode: str
    a: float | None = None
    b: float | None = None
    d0: float | None = None
    mbar: float | None = None
    hbar: float | None = None
    m: float | None = None
    c: float | None = None
    e: float | None = None
    k: float | None = None
    pz: float | None = None
    ell: float | None = None
    levels: int = 3
    families: tuple[str, ...] = ("a", "b", "c", "d")
    grid_points: int = 1024
    rho_max: float | None = None
    fmt: str = "csv"
    out: str | None = None
    tolerance: float = 1e-11

    def style(self) -> str:
        dim = any(getattr(self, name) is not None for name in _DIMENSIONLESS)
        phys = any(getattr(self, name) is not None for name in _PHYSICAL)
        if dim and phys:
            raise ValueError("supply dimensionless or physical parameters, not both")
        if phys:
            return "physical"
        if dim:
            return "dimensionless"
        return "default"


def _fmt_float(x: float) -> str:
    return f"{x:.16e}"


def _physical(cfg: RunConfig) -> PhysicalParams:
    missing = [name for name in _PHYSICAL if getattr(cfg, name) is None]
    if missing:
        raise ValueError(f"physical style needs all of {_PHYSICAL}; missing {missing}")
    return PhysicalParams(hbar=cfg.hbar, m=cfg.m, c=cfg.c, e=cfg.e,
                          k=cfg.k, pz=cfg.pz, ell=cfg.ell)


def _nr_params(cfg: RunConfig, default: dict | None = None) -> NRParams:
    style = cfg.style()
    if style == "physical":
        return _physical(cfg).to_nr()
    if style == "dimensionless":
        if cfg.a is None or cfg.b is None:
            raise ValueError("dimensionless style needs --a and --b")
        return NRParams(cfg.a, cfg.b)
    if default is None:
        raise ValueError("this mode requires parameters (--a --b or physical set)")
    return NRParams(default["a"], default["b"])


def _dirac_params(cfg: RunConfig, default: dict | None = None) -> DiracParams:
    style = cfg.style()
    if style == "physical":
        return _physical(cfg).to_dirac()
    if style == "dimensionless":
        if cfg.a is None or cfg.b is None:
            raise ValueError("dimensionless style needs --a and --b")
        return DiracParams(cfg.a, cfg.b, cfg.d0 or 0.0, cfg.mbar or 0.0)
    if default is None:
        raise ValueError("this mode requires parameters (--a --b [--d0 --mbar] "
                         "or the physical set)")
    return DiracParams(default["a"], default["b"], default["d0"], default["mbar"])


def _samples(rho_max: float) -> list[float]:
    """FIG_SAMPLES points from rho_max/FIG_SAMPLES to rho_max, each the float
    np.linspace returns: i * step + start, and rho_max itself last."""
    start, div = rho_max / FIG_SAMPLES, FIG_SAMPLES - 1
    delta = rho_max - start
    step = delta / div
    if step == 0.0:
        # np.linspace's order for a step that underflows to zero
        return [i / div * delta + start for i in range(div)] + [rho_max]
    return [i * step + start for i in range(div)] + [rho_max]


def _finite(name: str, xs: list[float], values: list[float]) -> list[float]:
    """values, when every one is finite; otherwise NonFiniteSample naming the
    column and the first rho where it is not. A sample that underflows to 0
    is finite and correct."""
    if not all(map(math.isfinite, values)):
        rho = next(x for x, v in zip(xs, values) if not math.isfinite(v))
        raise NonFiniteSample(
            f"column {name} is not finite at rho = {_fmt_float(rho)}: the window "
            "reaches past what a float can hold")
    return values


def _real_or_inf(poly, rho: float) -> float:
    """Re poly(rho), or inf where a power overflows."""
    try:
        return poly.eval(rho).real
    except OverflowError:
        return math.inf


def _density(params: DiracParams, n: int, fam: str, xs: list[float]) -> list[float]:
    """The sum of |c|^2 f^2 over the chain's components (see
    expalg.laguerre_samples)."""
    chain = dc.normalize_spinor(dc.eigenfunction_chain(params, n, fam))
    density = [0.0] * len(xs)
    for amp, f in laguerre_samples(chain.components, xs):
        weight = abs(amp) ** 2
        density = [d + weight * v * v for d, v in zip(density, f)]
    return density


# -- table builders ----------------------------------------------------------
#
# Each builder returns its table as {column name: column values}.


def _table_nr_spectrum(cfg: RunConfig):
    params = _nr_params(cfg)
    return {"n": list(range(cfg.levels)),
            "energy": [nr.spectrum_radial(params, n) for n in range(cfg.levels)]}


def _table_nr_eigenfunctions(cfg: RunConfig, params: NRParams | None = None):
    if params is None:
        params = _nr_params(cfg)
    rho_max = (default_rho_max(params, cfg.levels - 1) if cfg.rho_max is None
               else cfg.rho_max)
    xs = _samples(rho_max)
    table = {"rho": xs}
    chains = [nr.normalize(nr.eigenfunction(params, n)) for n in range(cfg.levels)]
    for n, (amp, f) in enumerate(laguerre_samples(chains, xs)):
        table[f"G{n}"] = _finite(f"G{n}", xs, [amp.real * v for v in f])
    return table


def _table_dirac_spectrum(cfg: RunConfig):
    params = _dirac_params(cfg)
    keys = [(fam, n) for fam in cfg.families for n in range(cfg.levels)]
    return {"family": [fam for fam, _ in keys], "n": [n for _, n in keys],
            "energy": [dc.family_eigenvalue(params, n, fam) for fam, n in keys]}


def _table_dirac_eigenfunctions(cfg: RunConfig, params: DiracParams | None = None):
    if params is None:
        params = _dirac_params(cfg)
    rho_max = (default_rho_max(params, cfg.levels - 1) if cfg.rho_max is None
               else cfg.rho_max)
    xs = _samples(rho_max)
    table = {"rho": xs}
    for fam in cfg.families:
        for n in range(cfg.levels):
            name = f"density_{fam}{n}"
            table[name] = _finite(name, xs, _density(params, n, fam, xs))
    return table


def _table_fig2(cfg: RunConfig):
    """Three scalar eigenfunctions with the potential and the energies."""
    params = _nr_params(cfg, default=FIG2_NR)
    funcs = _table_nr_eigenfunctions(replace(cfg, levels=3), params)
    xs = funcs["rho"]
    v0 = nr.potential(params, 0)
    table = {"rho": xs, "V0": _finite("V0", xs, [_real_or_inf(v0, x) for x in xs])} | funcs
    for n in range(3):
        table[f"E{n}"] = [nr.spectrum_radial(params, n)] * FIG_SAMPLES
    return table


def _table_fig3(cfg: RunConfig):
    """Densities of families a and c at three levels, with the energies."""
    params = _dirac_params(cfg, default=FIG3_DIRAC)
    fig = replace(cfg, levels=3, families=("a", "c"))
    table = _table_dirac_eigenfunctions(fig, params)
    for fam in fig.families:
        for n in range(fig.levels):
            table[f"E_{fam}{n}"] = [dc.family_eigenvalue(params, n, fam)] * FIG_SAMPLES
    return table


def _table_verify(cfg: RunConfig):
    # Imported here, not at module level: verify pulls in the oracle and
    # scipy.linalg, which no other mode needs and which dominate cold start.
    from . import verify as vf

    results = vf.run_all(_nr_params(cfg, FIG2_NR), _dirac_params(cfg, FIG3_DIRAC),
                         tol=cfg.tolerance, n_points=cfg.grid_points)
    table = {"check": [r.name for r in results],
             "passed": ["pass" if r.passed else "FAIL" for r in results],
             "detail": [r.detail for r in results]}
    return table, all(r.passed for r in results)


# -- rendering ---------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _render_csv(cols, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _json_value(value) -> str:
    if isinstance(value, dict):
        return "{" + ",".join(f"{_json_value(k)}:{_json_value(v)}"
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    if value is None or isinstance(value, str):
        # Imported here so that a CSV run never loads json.
        import json
        return json.dumps(value, ensure_ascii=False)
    # Numbers keep the CSV cells' fixed 17-digit format, which json.dumps lacks.
    return _cell(value)


def _render_json(cols, rows, meta: dict) -> str:
    doc = {"meta": meta, "data": {"columns": list(cols),
                                  "rows": [list(r) for r in rows]}}
    return _json_value(doc) + "\n"


def _meta(cfg: RunConfig) -> dict:
    """The RunConfig fields the mode takes (its flags, --format and --out)
    and the mode itself, in field order."""
    taken = {"mode", "fmt", "out", *_MODE_FLAGS[cfg.mode]}
    meta = {}
    for f in fields(cfg):
        if f.name in taken:
            value = getattr(cfg, f.name)
            key = "format" if f.name == "fmt" else f.name
            meta[key] = list(value) if isinstance(value, tuple) else value
    return meta


def run(cfg: RunConfig) -> int:
    """Build the table for the configured mode, write it, return the exit code."""
    try:
        if cfg.mode not in MODES:
            raise ValueError(f"unknown mode {cfg.mode!r}")
        if cfg.levels < 1:
            raise ValueError("levels must be at least 1")
        if cfg.mode in _CAPPED_MODES and cfg.levels > MAX_LEVELS:
            raise LevelCapExceeded(
                f"--levels {cfg.levels} is above the cap of {MAX_LEVELS}: {_CAP_REASON}")
        if cfg.grid_points > MAX_GRID_POINTS:
            raise GridCapExceeded(f"--grid-points {cfg.grid_points} is above the cap of "
                                  f"{MAX_GRID_POINTS}: {_GRID_CAP_REASON}")
        if cfg.grid_points < MIN_GRID_POINTS:
            raise ValueError(f"--grid-points must be at least {MIN_GRID_POINTS}, "
                             f"got {cfg.grid_points}")
        if not cfg.families:
            raise ValueError("--families must name at least one family")
        for i, fam in enumerate(cfg.families):
            if fam not in dc.FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
            if fam in cfg.families[:i]:
                raise ValueError(f"--families names family {fam!r} more than once")
        if cfg.rho_max is not None and not (math.isfinite(cfg.rho_max) and cfg.rho_max > 0):
            raise ValueError(f"--rho-max must be finite and positive, got {cfg.rho_max}")
        if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
            raise ValueError(f"--tolerance must be finite and positive, got {cfg.tolerance}")
        verify_ok = True
        if cfg.mode == "verify":
            table, verify_ok = _table_verify(cfg)
        else:
            builder = {
                "nr-spectrum": _table_nr_spectrum,
                "nr-eigenfunctions": _table_nr_eigenfunctions,
                "dirac-spectrum": _table_dirac_spectrum,
                "dirac-eigenfunctions": _table_dirac_eigenfunctions,
                "fig2": _table_fig2,
                "fig3": _table_fig3,
            }[cfg.mode]
            table = builder(cfg)
    except (LadderError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cols, rows = list(table), list(zip(*table.values()))
    text = (_render_csv(cols, rows) if cfg.fmt == "csv"
            else _render_json(cols, rows, _meta(cfg)))
    if cfg.out:
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if verify_ok else 3


def _families(text: str) -> tuple[str, ...]:
    return tuple(s for s in text.split(",") if s)


_FLAG_TYPES = {"levels": int, "grid_points": int, "families": _families}


def _flag_help(mode: str, name: str) -> str | None:
    if name == "levels" and mode in _CAPPED_MODES:
        return (f"number of levels (default 3), at most {MAX_LEVELS}: "
                f"{_CAP_REASON}, and more at larger a")
    if name == "grid_points":
        return (f"LogGrid points of the scalar finite-difference check (default 1024), "
                f"at least {MIN_GRID_POINTS} and at most {MAX_GRID_POINTS}: "
                f"{_GRID_CAP_REASON}")
    return None


class _ModeParser(argparse.ArgumentParser):
    """A mode's parser. It rejects arguments it does not take itself, so the
    error shows the mode's usage rather than the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susy-ladder",
        description="Exact ladder-operator spectra for a charged particle in a "
                    "1/rho magnetic field, with finite-difference verification.")
    sub = parser.add_subparsers(dest="mode", required=True, metavar="mode",
                                parser_class=_ModeParser)
    for mode, names in _MODE_FLAGS.items():
        # No flag sets a default of its own: an absent flag leaves RunConfig's.
        p = sub.add_parser(mode, argument_default=argparse.SUPPRESS)
        for name in names:
            p.add_argument("--" + name.replace("_", "-"),
                           type=_FLAG_TYPES.get(name, float), help=_flag_help(mode, name))
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
        p.add_argument("--out")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except (LadderError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
