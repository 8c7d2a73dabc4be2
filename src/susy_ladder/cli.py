"""Command-line front end.

Subcommands emit deterministic CSV or JSON tables: spectra, sampled
eigenfunctions and probability densities, the two canonical figure datasets,
and a one-shot verification run. Floats are rendered in fixed 17-significant-
digit scientific notation so identical configurations produce identical
bytes on every platform.

Every mode but verify runs in pure Python and never imports numpy, which
would otherwise be the largest cost of a cold run. Each mode imports only
the hierarchy it tables, when its builder runs: nonrel for nr-spectrum,
nr-eigenfunctions and fig2, dirac for dirac-spectrum, dirac-eigenfunctions
and fig3, and verify (with the oracle and numpy) for verify alone. The
oracle solves on the LAPACK numpy's wheel ships, so no mode loads scipy
unless numpy ships none (see oracle). The package's records are plain
slotted classes (record.Record), which import nothing more and generate
no code. The tables sample each unit-norm
eigenfunction from its Laguerre closed form (expalg.laguerre_columns), on
FIG_SAMPLES points that equal np.linspace's bit for bit. A chain that has
left that form fails with PrecisionLoss, and a sample that is not finite
with NonFiniteSample, each naming its column.

The renderer formats each column once: a column of floats is handed as it
is to one %.16e, any other column as its cells' text, quoted as csv.writer
or json.dumps would quote it. One %-template per table then builds every
row in C, so a table costs about one float format per cell.

Exit codes: 0 success, 2 invalid configuration or parameters (including
more eigenfunction levels than MAX_LEVELS, a window whose samples are not
finite, or parameters whose arithmetic leaves the float range), 3 when
verify finds a failed check (an oracle grid that does not converge on
refinement fails its check; the other checks still run).
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path

from .errors import LadderError, LevelCapExceeded, NonFiniteSample
from .expalg import laguerre_columns
from .params import FAMILIES, DiracParams, NRParams, PhysicalParams, default_rho_max
from .record import Record, set_field

FIG_SAMPLES = 512

# Most levels an eigenfunction table takes. The window default_rho_max puts
# the top level's edge at x = 2 beta rho = 80, and the share of its norm
# beyond the edge grows with the level: at a = 1.5 it is 4.5e-6 at level 12
# and 4.6e-5 at level 13. It also grows with a (6.1e-4 at a = 4, level 12).
MAX_LEVELS = 13
_CAPPED_MODES = ("nr-eigenfunctions", "dirac-eigenfunctions")
_CAP_REASON = (f"beyond level {MAX_LEVELS - 1} the sampling window cuts off more "
               "than 5e-6 of the top level's norm at a = 1.5")
_LEVELS_HELP = (f"number of levels (default 3), at most {MAX_LEVELS}: {_CAP_REASON}, "
                "and more at larger a")

# Canonical parameter sets reproduced by the figure subcommands, and the
# sets fig2, fig3 and verify take when no parameters are given.
FIG2_NR = NRParams(1.5, 0.5)
FIG3_DIRAC = DiracParams(1.0, 2.0, 1.0, 0.1)
_FIGURE_MODES = ("fig2", "fig3", "verify")
# Why an ArithmeticError ends a run, in the package's words: float ** reports
# an overflow as an errno tuple worded by the C library, and the wording of
# the others varies with the Python version.
_RANGE_REASONS = {OverflowError: "a result is too large for a float",
                  ZeroDivisionError: "float division by zero"}

_DIMENSIONLESS = DiracParams._fields
_PHYSICAL = PhysicalParams._fields

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
    "verify": _DIRAC_FLAGS,
}
MODES = tuple(_MODE_FLAGS)


# Every RunConfig setting but the mode, in field order, with its default.
# The parameters (a to ell) and rho_max are floats, None when not given.
_SETTINGS = {
    **dict.fromkeys(_DIMENSIONLESS + _PHYSICAL),
    "levels": 3,
    "families": FAMILIES,
    "rho_max": None,
    "fmt": "csv",
    "out": None,
}


class RunConfig(Record):
    """A mode and its settings (see _SETTINGS), given by keyword."""

    __slots__ = ("mode", *_SETTINGS)

    def __init__(self, mode: str, **settings):
        unknown = settings.keys() - _SETTINGS.keys()
        if unknown:
            raise TypeError(f"RunConfig got unknown settings {sorted(unknown)}")
        set_field(self, "mode", mode)
        for name, default in _SETTINGS.items():
            set_field(self, name, settings.get(name, default))

    def replace(self, **changes) -> RunConfig:
        """A copy with the given settings changed."""
        return RunConfig(**dict(zip(self._fields, self._values(self)), **changes))


def _fmt_float(x: float) -> str:
    return f"{x:.16e}"


def _params(cfg: RunConfig, scalar: bool) -> NRParams | DiracParams:
    """cfg's scalar (NRParams) or matrix (DiracParams) parameters, given in
    one style: the whole physical set, or --a and --b with --d0 and --mbar (0
    when not given). With none given, fig2, fig3 and verify take the figure
    sets, and the other modes fail."""
    dim = [getattr(cfg, name) for name in _DIMENSIONLESS]
    phys = [getattr(cfg, name) for name in _PHYSICAL]
    if any(x is not None for x in phys):
        if any(x is not None for x in dim):
            raise ValueError("supply dimensionless or physical parameters, not both")
        missing = [name for name, x in zip(_PHYSICAL, phys) if x is None]
        if missing:
            raise ValueError(f"physical style needs all of {_PHYSICAL}; missing {missing}")
        given = PhysicalParams(*phys)
        return given.to_nr() if scalar else given.to_dirac()
    a, b, d0, mbar = dim
    if any(x is not None for x in dim):
        if a is None or b is None:
            raise ValueError("dimensionless style needs --a and --b")
        return NRParams(a, b) if scalar else DiracParams(a, b, d0 or 0.0, mbar or 0.0)
    if cfg.mode in _FIGURE_MODES:
        return FIG2_NR if scalar else FIG3_DIRAC
    flags = ("--a --b or physical set" if scalar
             else "--a --b [--d0 --mbar] or the physical set")
    raise ValueError(f"this mode requires parameters ({flags})")


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


def _eigen_rows(cfg: RunConfig, scalar: bool) -> tuple[NRParams | DiracParams, list[float]]:
    """cfg's parameters (see _params) and its eigenfunction table's rho
    column: _samples up to --rho-max, by default the window of its top level."""
    params = _params(cfg, scalar)
    return params, _samples(cfg.rho_max or default_rho_max(params, cfg.levels - 1))


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


# -- table builders ----------------------------------------------------------
#
# Each builder returns its table as {column name: column values}, and
# imports the hierarchy it uses when it runs.


def _table_nr_spectrum(cfg: RunConfig):
    from . import nonrel as nr

    params = _params(cfg, scalar=True)
    return {"n": list(range(cfg.levels)),
            "energy": [nr.spectrum_radial(params, n) for n in range(cfg.levels)]}


def _table_nr_eigenfunctions(cfg: RunConfig):
    from . import nonrel as nr

    params, xs = _eigen_rows(cfg, scalar=True)
    table = {"rho": xs}
    chains = {f"G{n}": (nr.eigenfunction(params, n),) for n in range(cfg.levels)}
    for name, ((amp, f),) in laguerre_columns(chains, xs).items():
        table[name] = _finite(name, xs, [amp.real * v for v in f])
    return table


def _table_dirac_spectrum(cfg: RunConfig):
    from . import dirac as dc

    params = _params(cfg, scalar=False)
    keys = [(fam, n) for fam in cfg.families for n in range(cfg.levels)]
    return {"family": [fam for fam, _ in keys], "n": [n for _, n in keys],
            "energy": [dc.family_eigenvalue(params, n, fam) for fam, n in keys]}


def _table_dirac_eigenfunctions(cfg: RunConfig):
    """Densities, the sum of |c|^2 f^2 over each unit-norm chain's components,
    all sampled in one laguerre_columns call, which shares each shape's f."""
    from . import dirac as dc

    params, xs = _eigen_rows(cfg, scalar=False)
    chains = {f"density_{fam}{n}": dc.eigenfunction_chain(params, n, fam).components
              for fam in cfg.families for n in range(cfg.levels)}
    table = {"rho": xs}
    # Every chain stacks two 2-component halves, so each density sums four
    # components, left to right from 0.0.
    for name, quad in laguerre_columns(chains, xs).items():
        (w0, v0), (w1, v1), (w2, v2), (w3, v3) = [(abs(amp) ** 2, f) for amp, f in quad]
        density = [0.0 + w0 * f0 * f0 + w1 * f1 * f1 + w2 * f2 * f2 + w3 * f3 * f3
                   for f0, f1, f2, f3 in zip(v0, v1, v2, v3)]
        table[name] = _finite(name, xs, density)
    return table


def _table_fig2(cfg: RunConfig):
    """Three scalar eigenfunctions with the potential and the energies."""
    from . import nonrel as nr

    params = _params(cfg, scalar=True)
    funcs = _table_nr_eigenfunctions(cfg.replace(levels=3))
    xs = funcs["rho"]
    v0 = nr.potential(params, 0)
    table = {"rho": xs, "V0": _finite("V0", xs, [_real_or_inf(v0, x) for x in xs])} | funcs
    for n in range(3):
        table[f"E{n}"] = [nr.spectrum_radial(params, n)] * FIG_SAMPLES
    return table


def _table_fig3(cfg: RunConfig):
    """Densities of families a and c at three levels, with the energies."""
    from . import dirac as dc

    params = _params(cfg, scalar=False)
    fig = cfg.replace(levels=3, families=("a", "c"))
    table = _table_dirac_eigenfunctions(fig)
    for fam in fig.families:
        for n in range(fig.levels):
            table[f"E_{fam}{n}"] = [dc.family_eigenvalue(params, n, fam)] * FIG_SAMPLES
    return table


def _table_verify(cfg: RunConfig):
    # Imported here, not at module level: verify pulls in the oracle and
    # numpy, which no other mode needs and which dominate cold start.
    from . import verify as vf

    results = vf.run_all(_params(cfg, scalar=True), _params(cfg, scalar=False))
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


def _csv_text(value) -> str:
    """A CSV cell, quoted where csv.writer quotes it (QUOTE_MINIMAL for the
    "," delimiter and the "\n" line terminator)."""
    text = _cell(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_text(value) -> str:
    """A JSON scalar or list: numbers in the CSV cells' fixed format, which
    json.dumps lacks, and strings and None as json.dumps writes them."""
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_json_text, value)) + "]"
    if value is None or isinstance(value, str):
        # Imported here so that a CSV run never loads json.
        import json
        return json.dumps(value, ensure_ascii=False)
    return _cell(value)


def _rows(table: dict, text, head: str, tail: str, sep: str) -> str:
    """The table's rows, each head + its cells joined by "," + tail, joined
    by sep; text renders a cell of a column that is not all floats."""
    specs, columns = [], []
    for values in table.values():
        if set(map(type, values)) == {float}:
            specs.append("%.16e")
            columns.append(values)
        else:
            specs.append("%s")
            columns.append(list(map(text, values)))
    cells = tuple(chain.from_iterable(zip(*columns)))
    row = head + ",".join(specs) + tail
    return sep.join([row] * (len(cells) // len(specs))) % cells


def _render_csv(table: dict) -> str:
    header = ",".join(map(_csv_text, table)) + "\n"
    return header + _rows(table, _csv_text, "", "\n", "")


def _render_json(table: dict, meta: dict) -> str:
    head = ('{"meta":{' + ",".join(f"{_json_text(k)}:{_json_text(v)}"
                                   for k, v in meta.items())
            + '},"data":{"columns":' + _json_text(list(table)) + ',"rows":[')
    return head + _rows(table, _json_text, "[", "]", ",") + "]}}\n"


def _meta(cfg: RunConfig) -> dict:
    """The RunConfig fields the mode takes (its flags, --format and --out)
    and the mode itself, in field order."""
    taken = {"mode", "fmt", "out", *_MODE_FLAGS[cfg.mode]}
    return {"format" if name == "fmt" else name: value
            for name, value in zip(cfg._fields, cfg._values(cfg)) if name in taken}


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
        if not cfg.families:
            raise ValueError("--families must name at least one family")
        for i, fam in enumerate(cfg.families):
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
            if fam in cfg.families[:i]:
                raise ValueError(f"--families names family {fam!r} more than once")
        if cfg.rho_max is not None and not (math.isfinite(cfg.rho_max) and cfg.rho_max > 0):
            raise ValueError(f"--rho-max must be finite and positive, got {cfg.rho_max}")
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
    except ArithmeticError as exc:
        reason = _RANGE_REASONS.get(type(exc), "a float operation failed")
        print(f"error: the parameters take the arithmetic out of float range "
              f"({type(exc).__name__}: {reason})", file=sys.stderr)
        return 2

    text = _render_csv(table) if cfg.fmt == "csv" else _render_json(table, _meta(cfg))
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


_FLAG_TYPES = {"levels": int, "families": _families}


class _ModeParser(argparse.ArgumentParser):
    """A mode's parser. It adds its mode's flags when it first parses, so a
    run builds only its own mode's flags: each add_argument builds a help
    formatter, which reads the terminal size. It rejects arguments it does
    not take itself, so the error shows the mode's usage rather than the
    top-level one."""

    def __init__(self, *args, mode: str, **kwargs):
        # No flag sets a default of its own: an absent flag leaves RunConfig's.
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)
        self.mode, self.flags_added = mode, False

    def _add_flags(self) -> None:
        for name in _MODE_FLAGS[self.mode]:
            capped = name == "levels" and self.mode in _CAPPED_MODES
            self.add_argument("--" + name.replace("_", "-"), type=_FLAG_TYPES.get(name, float),
                              help=_LEVELS_HELP if capped else None)
        self.add_argument("--format", dest="fmt", choices=("csv", "json"))
        self.add_argument("--out")
        self.flags_added = True

    def parse_known_args(self, args=None, namespace=None):
        if not self.flags_added:
            self._add_flags()
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
    for mode in _MODE_FLAGS:
        sub.add_parser(mode, mode=mode)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
