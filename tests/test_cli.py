"""CLI tests: table content, byte determinism, the physical/dimensionless
round trip, output files, and exit codes."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from conftest import ref_dirac_densities, ref_render_csv, ref_render_json

from susy_ladder import cli, expalg
from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder.cli import (FIG_SAMPLES, RunConfig, _fmt_float, _samples, build_parser,
                             config_from_args, main, run)
from susy_ladder.params import DiracParams, NRParams, default_rho_max


_PHYS = ["hbar", "m", "c", "e", "k", "pz", "ell"]
_DIRAC = ["a", "b", "d0", "mbar"]
_FIG3_ARGS = ["--a", "1", "--b", "2", "--d0", "1", "--mbar", "0.1"]


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestSpectrumTables:
    def test_nr_spectrum_values(self):
        code, text = capture(["nr-spectrum", "--a", "1.5", "--b", "0.5",
                              "--levels", "3"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "n,energy"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == pytest.approx([-0.02, -0.25 / 24.5, -0.25 / 40.5], rel=1e-15)

    def test_dirac_spectrum_degeneracy_pattern(self):
        code, text = capture(["dirac-spectrum", "--a", "1", "--b", "2", "--d0", "1",
                              "--mbar", "0.1", "--levels", "3", "--families", "a,c"])
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        table = {(fam, int(n)): float(e) for fam, n, e in rows}
        assert table[("a", 0)] == pytest.approx(math.sqrt(1.01), rel=1e-15)
        assert table[("c", 0)] == table[("a", 1)]
        assert table[("c", 1)] == table[("a", 2)]

    def test_family_b_spectrum_is_negative_mirror(self):
        code, text = capture(["dirac-spectrum", "--a", "1", "--b", "2", "--d0", "1",
                              "--mbar", "0.1", "--levels", "2", "--families", "a,b"])
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        table = {(fam, int(n)): float(e) for fam, n, e in rows}
        assert table[("b", 0)] == -table[("a", 0)]

    def test_zero_mode_prints_as_plus_zero_in_every_family(self):
        # at d0 = mbar = 0 level 0 of families a and b is E = 0; family b
        # once printed it as -0.0
        code, text = capture(["dirac-spectrum", "--a", "1", "--b", "1", "--levels", "1"])
        assert code == 0
        lines = text.splitlines()
        assert lines[1:3] == ["a,0,0.0000000000000000e+00", "b,0,0.0000000000000000e+00"]


class TestFigureTables:
    def test_fig2_columns_and_energies(self):
        code, text = capture(["fig2"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "rho,V0,G0,G1,G2,E0,E1,E2"
        assert len(lines) == 513
        first = [float(x) for x in lines[1].split(",")]
        assert first[5:] == pytest.approx([-0.02, -0.25 / 24.5, -0.25 / 40.5],
                                          rel=1e-15)

    def test_fig3_degenerate_energy_columns(self):
        code, text = capture(["fig3", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        cols = doc["data"]["columns"]
        assert cols[0] == "rho"
        assert "density_a0" in cols and "density_c2" in cols
        row = doc["data"]["rows"][0]
        value = {c: row[i] for i, c in enumerate(cols)}
        assert value["E_c0"] == value["E_a1"]
        assert value["E_c1"] == value["E_a2"]

    def test_fig3_densities_normalized(self):
        code, text = capture(["fig3"])
        lines = text.strip().splitlines()
        cols = lines[0].split(",")
        rho_idx, d_idx = cols.index("rho"), cols.index("density_a0")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        h = rows[1][rho_idx] - rows[0][rho_idx]
        total = sum(r[d_idx] for r in rows) * h
        assert total == pytest.approx(1.0, abs=5e-3)

    def test_nr_eigenfunctions_shape(self):
        code, text = capture(["nr-eigenfunctions", "--a", "1.5", "--b", "0.5",
                              "--levels", "2"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "rho,G0,G1"
        assert len(lines) == 513

    def test_dirac_eigenfunctions_shape(self):
        code, text = capture(["dirac-eigenfunctions", "--a", "1", "--b", "2",
                              "--d0", "1", "--mbar", "0.1", "--levels", "2",
                              "--families", "a"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "rho,density_a0,density_a1"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self):
        argv = ["fig2", "--format", "json"]
        assert capture(argv) == capture(argv)
        argv = ["dirac-spectrum", "--a", "1", "--b", "2", "--d0", "1",
                "--mbar", "0.1"]
        assert capture(argv) == capture(argv)

    def test_physical_dimensionless_round_trip(self):
        phys = ["--hbar", "1", "--m", "1", "--c", "1", "--e", "1",
                "--k", "2", "--pz", "1", "--ell", "1.5"]
        lam = math.hypot(1.5, 2.0)
        a_nr = lam - 0.5
        b = 2.0
        _, from_phys = capture(["nr-spectrum", *phys, "--levels", "4"])
        _, from_dim = capture(["nr-spectrum", "--a", repr(a_nr), "--b", repr(b),
                               "--levels", "4"])
        assert from_phys == from_dim

        d0 = 1.0 * 1.5 / lam
        _, from_phys = capture(["dirac-spectrum", *phys, "--levels", "4"])
        _, from_dim = capture(["dirac-spectrum", "--a", repr(lam), "--b", repr(b),
                               "--d0", repr(d0), "--mbar", "1", "--levels", "4"])
        assert from_phys == from_dim

    def test_fixed_float_format(self):
        _, text = capture(["nr-spectrum", "--a", "1.5", "--b", "0.5",
                           "--levels", "1"])
        assert text.splitlines()[1] == "0,-2.0000000000000000e-02"


_SCALAR_MISSING = "error: this mode requires parameters (--a --b or physical set)\n"
_DIRAC_MISSING = ("error: this mode requires parameters (--a --b [--d0 --mbar] or the "
                  "physical set)\n")


class TestConfigValidation:
    # The parameter errors, each stated whole, in every mode that can meet it.
    def test_mixed_styles_rejected(self, capsys):
        for mode in cli.MODES:
            code, text = capture([mode, "--a", "1.5", "--b", "0.5",
                                  "--hbar", "1", "--m", "1", "--c", "1", "--e", "1",
                                  "--k", "1", "--pz", "1", "--ell", "0"])
            assert (code, text) == (2, ""), mode
            assert capsys.readouterr().err == (
                "error: supply dimensionless or physical parameters, not both\n"), mode

    def test_missing_parameters_rejected(self, capsys):
        # every mode but fig2, fig3 and verify, which take the figure sets
        for mode in [m for m in cli.MODES if m not in ("fig2", "fig3", "verify")]:
            code, text = capture([mode])
            assert (code, text) == (2, ""), mode
            err = _SCALAR_MISSING if mode.startswith("nr-") else _DIRAC_MISSING
            assert capsys.readouterr().err == err, mode

    def test_a_without_b_rejected(self, capsys):
        for mode in cli.MODES:
            code, text = capture([mode, "--a", "1.5"])
            assert (code, text) == (2, ""), mode
            assert capsys.readouterr().err == (
                "error: dimensionless style needs --a and --b\n"), mode

    def test_figure_modes_and_verify_fall_back_to_the_figure_sets(self, monkeypatch):
        from susy_ladder import verify as vf
        seen = []
        monkeypatch.setattr(vf, "run_all", lambda *args, **kwargs: seen.append(args) or [])
        assert capture(["fig2"]) == capture(["fig2", "--a", "1.5", "--b", "0.5"])
        assert capture(["fig3"]) == capture(["fig3", *_FIG3_ARGS])
        assert capture(["verify"])[0] == 0
        assert seen == [(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))]

    def test_bad_family_rejected(self):
        code, _ = capture(["dirac-spectrum", "--a", "1", "--b", "2",
                           "--families", "a,x"])
        assert code == 2

    @pytest.mark.parametrize("mode", ["dirac-spectrum", "dirac-eigenfunctions"])
    @pytest.mark.parametrize("families", ["", ",", "a,c,a", "b,b"])
    def test_empty_or_repeated_families_rejected(self, mode, families, capsys):
        code, out = capture([mode, "--a", "1", "--b", "2", "--families", families])
        assert code == 2
        assert out == ""
        assert "--families" in capsys.readouterr().err

    def test_bad_levels_rejected(self):
        code, _ = capture(["nr-spectrum", "--a", "1.5", "--b", "0.5",
                           "--levels", "0"])
        assert code == 2

    def test_no_bound_states_rejected(self):
        code, _ = capture(["nr-spectrum", "--hbar", "1", "--m", "1", "--c", "1",
                           "--e", "1", "--k", "-1", "--pz", "1", "--ell", "0"])
        assert code == 2

    @pytest.mark.parametrize("field", ["hbar", "e"])
    def test_non_positive_physical_parameter_rejected_with_its_value(self, field, capsys):
        argv = [x for name in _PHYS for x in ("--" + name, "-1" if name == field else "1")]
        for mode in ("nr-spectrum", "dirac-spectrum"):
            assert capture([mode, *argv]) == (2, ""), mode
            assert capsys.readouterr().err == f"error: {field} must be positive, got -1.0\n"

    def test_incomplete_physical_set_rejected(self, capsys):
        for mode in cli.MODES:
            code, text = capture([mode, "--hbar", "1", "--m", "1"])
            assert (code, text) == (2, ""), mode
            assert capsys.readouterr().err == (
                "error: physical style needs all of ('hbar', 'm', 'c', 'e', 'k', 'pz', "
                "'ell'); missing ['c', 'e', 'k', 'pz', 'ell']\n"), mode

    @pytest.mark.parametrize("field,argv", [
        ("a", ["nr-spectrum", "--a", "inf", "--b", "1"]),
        ("d0", ["dirac-spectrum", "--a", "1", "--b", "1", "--d0", "nan"]),
        ("mbar", ["dirac-spectrum", "--a", "1", "--b", "1", "--mbar", "inf"]),
        ("pz", ["nr-spectrum", "--hbar", "1", "--m", "1", "--c", "1", "--e", "1",
                "--k", "2", "--pz", "inf", "--ell", "1"]),
    ])
    def test_non_finite_parameters_rejected(self, field, argv, capsys):
        code, text = capture(argv)
        assert code == 2
        assert text == ""
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,argv", [
        ("--rho-max", ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--rho-max", "0"]),
        ("--rho-max", ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--rho-max", "nan"]),
        ("--rho-max", ["fig3", "--rho-max", "-5"]),
        ("--rho-max", ["dirac-eigenfunctions", "--a", "1", "--b", "2", "--d0", "1",
                       "--rho-max", "inf"]),
    ])
    def test_bad_rho_max_or_tolerance_rejected(self, flag, argv, capsys):
        code, text = capture(argv)
        assert code == 2
        assert text == ""
        assert f"{flag} must be finite and positive" in capsys.readouterr().err

    # At rho_max = 1e300 every sample's power and decay meet in one exp,
    # which underflows, so every level samples as exactly 0. From level 2,
    # L_2(2 beta rho) overflows as well; 0 * inf = nan was once refused there
    # (G2; the first component of density_a2), and the sample is 0 too. At
    # 1e-300 the eigenfunctions underflow to 0, which is right, and V0's
    # 1/rho^2 overflows.
    @pytest.mark.parametrize("argv,column", [
        (["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "3"], "G2"),
        (["dirac-eigenfunctions", *_FIG3_ARGS], "density_a2"),
        (["fig2"], "G2"),
        (["fig3"], "density_a2"),
    ], ids=["nr-eigenfunctions", "dirac-eigenfunctions", "fig2", "fig3"])
    def test_non_finite_samples_refused_at_rho_max_1e300(self, argv, column, capsys):
        code, text = capture([*argv, "--rho-max", "1e300"])
        assert (code, capsys.readouterr().err) == (0, "")
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert len(rows) == 513 and rows[1][0] == _fmt_float(1e300 / 512)
        samples = [i for i, name in enumerate(rows[0]) if name.startswith(("G", "density"))]
        assert column in [rows[0][i] for i in samples]
        assert all(float(row[i]) == 0.0 for row in rows[1:] for i in samples)

    @pytest.mark.parametrize("argv", [
        ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "3"],
        ["dirac-eigenfunctions", *_FIG3_ARGS],
        ["fig2"],
        ["fig3"],
    ], ids=["nr-eigenfunctions", "dirac-eigenfunctions", "fig2", "fig3"])
    def test_underflow_is_kept_at_rho_max_1e_300(self, argv, capsys):
        code, text = capture([*argv, "--rho-max", "1e-300"])
        err = capsys.readouterr().err
        if argv == ["fig2"]:
            assert (code, text) == (2, "")
            assert err.startswith(f"error: column V0 is not finite at rho = "
                                  f"{_fmt_float(1e-300 / 512)}:")
            return
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in text.strip().splitlines()]
        values = [float(x) for row in rows[1:] for x in row]
        assert len(rows) == 513 and all(math.isfinite(v) for v in values)
        assert all(float(row[1]) == 0.0 for row in rows[1:])

    def test_a_chain_off_its_laguerre_form_names_its_column(self, monkeypatch, capsys):
        # The family c level 1 chain, moved off its Laguerre closed form: the
        # refusal names the column it would have filled.
        chain = dc.eigenfunction_chain

        def departed(params, n, fam):
            f = chain(params, n, fam)
            if (n, fam) != (1, "c"):
                return f
            j, k, _ = f.components[1].terms[0]
            bump = expalg.ExpoPoly(params.a, params.b, ((j, k, 1e-9 * f.max_abs_coeff()),))
            return dc.SpinorFn((f.components[0], f.components[1] + bump) + f.components[2:])

        monkeypatch.setattr(dc, "eigenfunction_chain", departed)
        code, text = capture(["dirac-eigenfunctions", *_FIG3_ARGS, "--levels", "3"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith(
            "error: column density_c1: coefficients depart from the Laguerre form by ")

    @pytest.mark.parametrize("a", ["1e-4", "1e-6", "1e-8", "1e-12"])
    def test_small_a_tables_keep_their_laguerre_form(self, a):
        # Every chain of a 13-level table stays on its closed form at small a,
        # where the level constants d_n (n >= 1) grow like b/a.
        code, text = capture(["dirac-eigenfunctions", "--a", a, "--b", "1", "--d0", "1",
                              "--mbar", "1", "--levels", "13"])
        assert code == 0 and len(text.splitlines()) == 513

    @pytest.mark.parametrize("argv", [
        ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "18"],
        ["dirac-eigenfunctions", "--a", "1.5", "--b", "0.5", "--d0", "1", "--mbar", "0.1",
         "--levels", "18"],
    ], ids=["nr", "dirac"])
    def test_levels_above_cap_refused(self, argv, capsys):
        code, text = capture(argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: --levels 18 is above the cap of 13: beyond level 12 the "
                            r"sampling window cuts off more than 5e-6 of the top level's "
                            r"norm at a = 1\.5\n", err)

    @pytest.mark.parametrize("mode", ["nr-eigenfunctions", "dirac-eigenfunctions"])
    def test_levels_cap_stated_in_help(self, mode, capsys):
        with pytest.raises(SystemExit):
            main([mode, "--help"])
        assert "--levels LEVELS number of levels (default 3), at most 13:" in \
            " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("mode,levels,code", [
        ("nr-eigenfunctions", 13, 0), ("nr-eigenfunctions", 14, 2),
        ("dirac-eigenfunctions", 13, 0), ("dirac-eigenfunctions", 14, 2),
        ("nr-spectrum", 40, 0), ("dirac-spectrum", 40, 0),
    ])
    def test_levels_cap_binds_eigenfunction_tables_only(self, mode, levels, code):
        params = ["--a", "1.5", "--b", "0.5"]
        if mode.startswith("dirac"):
            params += ["--d0", "1", "--mbar", "0.1"]
        assert capture([mode, *params, "--levels", str(levels)])[0] == code


# Finite, positive parameters whose arithmetic leaves the float range: b**2
# overflows, or a**2 underflows in dirac.dn. The line names the error in the
# package's words: float ** overflowing reads an errno tuple, and
# math.gamma's overflow a different text.
_OUT_OF_RANGE = [
    (["nr-spectrum", "--a", "1", "--b", "1e200"], "OverflowError"),
    (["dirac-spectrum", "--a", "1", "--b", "1e200", "--d0", "1", "--mbar", "1"], "OverflowError"),
    (["verify", "--a", "81", "--b", "1"], "OverflowError"),
    (["dirac-spectrum", "--a", "1e-300", "--b", "1", "--d0", "0", "--mbar", "0"],
     "ZeroDivisionError"),
    (["fig3", "--a", "1e-200", "--b", "1", "--d0", "1", "--mbar", "1"], "ZeroDivisionError"),
]
_RANGE_REASONS = {"OverflowError": "a result is too large for a float",
                  "ZeroDivisionError": "float division by zero"}


@pytest.mark.parametrize("argv, kind", _OUT_OF_RANGE,
                         ids=[" ".join(a) for a, _ in _OUT_OF_RANGE])
def test_out_of_range_arithmetic_exits_2_with_one_error_line(argv, kind):
    out = _run_script(f"import sys; from susy_ladder.cli import main; sys.exit(main({argv!r}))")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: the parameters take the arithmetic out of float range "
                          f"({kind}: {_RANGE_REASONS[kind]})\n")


# A column past the float range: at b = 1e308 the twin's unit-norm chain is
# finite, but the density b |c|^2 f^2 at the first rho overflows, so the
# column is refused as not finite, naming it and the first rho.
def test_a_chain_past_the_float_range_is_refused_as_non_finite(capsys):
    argv = ["dirac-eigenfunctions", "--a", "1e-3", "--b", "1e308", "--d0", "1", "--mbar", "1"]
    assert capture(argv) == (2, "")
    rho = default_rho_max(DiracParams(1e-3, 1e308, 1.0, 1.0), 2) / FIG_SAMPLES
    assert capsys.readouterr().err == (f"error: column density_a0 is not finite at rho = "
                                       f"{_fmt_float(rho)}: the window reaches past what "
                                       "a float can hold\n")


def _sign_changes(column):
    signs = [v > 0 for v in column if v != 0.0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


# Item 15's grid at a = 100, b from 1e-12 to 1e12, for both tables, and the
# large-a sets that used to overflow. The default window, forty decay
# lengths of the top level, ends at 2 beta rho = 80, short of the nodes of
# L_n^(2a+1) near 2 beta rho = 2a; so the scalar nodes are counted on a
# window of 20600/b, which holds level 0's peak and its tail.
_GRID_B = ["1e-12", "1e-6", "1e-3", "0.1", "1", "10", "1e3", "1e6", "1e12"]
_WIDE_A = ([["nr-eigenfunctions", "--a", "100", "--b", b] for b in _GRID_B]
           + [["dirac-eigenfunctions", "--a", "100", "--b", b, "--d0", "0.3", "--mbar", "0.5"]
              for b in _GRID_B]
           + [["nr-eigenfunctions", "--a", "50", "--b", "1"],
              ["dirac-eigenfunctions", "--a", "50", "--b", "1", "--d0", "0.5", "--mbar", "0.5"],
              ["fig2", "--a", "100", "--b", "1"]])


@pytest.mark.parametrize("argv", _WIDE_A, ids=[" ".join(a) for a in _WIDE_A])
def test_large_a_tables_exit_0_with_finite_columns(argv, capsys):
    b = float(argv[argv.index("--b") + 1])
    for window in ([], ["--rho-max", repr(20600 / b)]):
        code, text = capture([*argv, *window])
        assert (code, capsys.readouterr().err) == (0, "")
        header, *lines = text.splitlines()
        rows = [map(float, line.split(",")) for line in lines]
        columns = dict(zip(header.split(","), zip(*rows)))
        assert len(lines) == FIG_SAMPLES
        assert all(math.isfinite(x) for column in columns.values() for x in column)
        assert all(min(column) >= 0.0 for name, column in columns.items()
                   if name.startswith("density_"))
        if window:
            for name, column in columns.items():
                if name[0] == "G":
                    assert _sign_changes(column) == int(name[1:]), name


def _columns(text):
    """{name: column of floats} of a CSV table."""
    header, *lines = text.splitlines()
    return dict(zip(header.split(","), zip(*(map(float, line.split(",")) for line in lines))))


# Sets the tables refused while they built their chains at the user's b and
# print at the b = 1 twin:
# - the Dirac band a <= 1e-4, b <= a, where density_a1's chain departed
#   from its Laguerre form by 1.1e-13 to 5.3e-10;
# - d0 = 0 with b^2 underflowing at b = 1e-200: every d_n was 0, and the xi
#   kernel divided by d_(n+1) + d_n. The twin (1, 1, 0, 1e200) divides by
#   nothing that vanishes;
# - the scalar table at b = 1e-200, whose G2 departed by 1, and at
#   b = 1e100, 13 levels, whose level-4 coefficients overflowed.
# Each prints finite columns, nonnegative densities and n sign changes in
# G_n. (In the band, level 0 of families a and b decays at rate b/a, so it
# underflows to 0 on every row of these windows, with or without the twin.)
_BAND = [("1e-6", "1e-6"), ("1e-6", "1e-7"), ("1e-4", "1e-5"), ("1e-8", "1e-9")]
_TWIN_MENDED = (
    [["dirac-eigenfunctions", "--a", a, "--b", b, "--d0", "0.3", "--mbar", "0.5",
      "--levels", levels] for a, b in _BAND for levels in ("3", "13")]
    + [[mode, "--a", "1", "--b", "1e-200", "--d0", "0", "--mbar", "1"]
       for mode in ("fig3", "dirac-eigenfunctions")]
    + [[mode, "--a", "1", "--b", "1e-200"] for mode in ("nr-eigenfunctions", "fig2")]
    + [["nr-eigenfunctions", "--a", "1", "--b", "1e100", "--levels", "13"]])


@pytest.mark.parametrize("argv", _TWIN_MENDED, ids=" ".join)
def test_sets_the_twin_mends_print_finite_columns(argv, capsys):
    code, text = capture(argv)
    assert (code, capsys.readouterr().err) == (0, "")
    columns = _columns(text)
    assert len(columns["rho"]) == FIG_SAMPLES
    assert all(math.isfinite(x) for column in columns.values() for x in column)
    for name, column in columns.items():
        if name.startswith("density_"):
            assert min(column) >= 0.0, name
        if name[0] == "G":
            assert _sign_changes(column) == int(name[1:]), name


def test_d0_zero_with_b_squared_underflowing_prints_at_the_twin(capsys):
    # fig3 at (1, 1e-200, 0, 1): its densities are 1e-200 times the twin's
    # at 1e-200 rho, and its energies are the user set's.
    code, text = capture(["fig3", "--a", "1", "--b", "1e-200", "--d0", "0", "--mbar", "1"])
    assert (code, capsys.readouterr().err) == (0, "")
    columns = _columns(text)
    twin = _columns(capture(["fig3", "--a", "1", "--b", "1", "--d0", "0", "--mbar", "1e200",
                             "--rho-max", repr(1e-200 * columns["rho"][-1])])[1])
    params = DiracParams(1.0, 1e-200, 0.0, 1.0)
    for name, column in columns.items():
        if name.startswith("density_"):
            assert column == pytest.approx([1e-200 * x for x in twin[name]], rel=1e-13), name
        elif name.startswith("E_"):
            assert column[0] == dc.family_eigenvalue(params, int(name[3:]), name[2])


def test_verify_at_d0_zero_with_b_squared_underflowing_runs_the_twin(capsys):
    # verify runs at the b = 1 twin (1, 1, 0, 1e200), where nothing divides
    # by zero: every row prints and the exit is 3. The eigen rows' scale
    # max(1, |E|) ~ mbar = 1e200 leaves their readings near 1e-216, so they
    # read nothing there, and xi-superpotential-identity's absolute residual
    # fails at about 2e183.
    code, text = capture(["verify", "--a", "1", "--b", "1e-200", "--d0", "0", "--mbar", "1"])
    assert (code, capsys.readouterr().err) == (3, "")
    rows = {name: (passed, detail) for name, passed, detail in
            (line.split(",", 2) for line in text.splitlines()[1:])}
    assert len(rows) == 15
    assert [name for name, (passed, _) in rows.items() if passed == "FAIL"] == [
        "xi-superpotential-identity"]
    assert rows["xi-superpotential-identity"][1] == "max coefficient 2.125e+183 (tol 1.0e-11)"
    assert rows["dirac-eigen-equations"][1].endswith(" 5.173e-216\"")


@pytest.mark.parametrize("mode", ["verify", "dirac-eigenfunctions", "fig3"])
@pytest.mark.parametrize("argv, ratio", [
    (["--d0", "1", "--mbar", "1"], "(1.0, 1.0, inf, inf)"),
    (["--d0", "0", "--mbar", "1"], "(1.0, 1.0, 0.0, inf)"),
], ids=["d0", "mbar"])
def test_a_twin_a_float_cannot_hold_is_refused_in_one_line(mode, argv, ratio, capsys):
    # b = 1e-310 puts d0/b or mbar/b past the float range: one error line
    # naming the twin, which verify and the tables build alike, exit 2
    assert capture([mode, "--a", "1", "--b", "1e-310", *argv]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: the b = 1 twin (a, 1, d0/b, mbar/b) = {ratio} is not finite\n")


# a = 1e-20 is positive, but alpha = 2a - 1 of the chains' lowest power
# rounds to -1, where the closed-form norm has no lgamma.
_ALPHA_AT_MINUS_1 = [
    ["fig3", "--a", "1e-20", "--b", "1", "--d0", "0.5", "--mbar", "1"],
    ["dirac-eigenfunctions", "--a", "1e-20", "--b", "1", "--d0", "0.5", "--mbar", "1",
     "--levels", "2"],
]


@pytest.mark.parametrize("argv", _ALPHA_AT_MINUS_1, ids=[a[0] for a in _ALPHA_AT_MINUS_1])
def test_alpha_that_rounds_to_minus_1_exits_2_naming_alpha(argv, capsys):
    assert capture(argv) == (2, "")
    assert capsys.readouterr().err == ("error: lowest power p0 = 1e-20 gives "
                                       "alpha = 2 p0 - 1 = -1.0, not above -1\n")


# a and b are finite and positive, and at b = 1e-300 the chains' decay rate
# 2b/(a+k) rounded to 0. The twin's rate 2/(a+k) is 2e-300, and its level-1
# coefficients (1.4e300 and -1.4e-300) are finite, but the closed form's
# coefficient ratio (alpha+1)/(2 beta) is 1e600, so the Laguerre form of G1
# cannot be checked; expalg still refuses a rate of 0
# (test_laguerre.TestNotALaguerreFunction).
_HUGE_A = [
    ["fig2", "--a", "1e300", "--b", "1e-300"],
    ["nr-eigenfunctions", "--a", "1e300", "--b", "1e-300", "--levels", "2"],
]


@pytest.mark.parametrize("argv", _HUGE_A, ids=[a[0] for a in _HUGE_A])
def test_huge_a_exits_2_naming_the_column_that_leaves_the_laguerre_form(argv, capsys):
    assert capture(argv) == (2, "")
    assert capsys.readouterr().err == ("error: column G1: the closed form run down from the "
                                       "top coefficient leaves the float range\n")


@pytest.mark.parametrize("argv", [
    ["--a", "1", "--b", "1", "--levels", "13"],
    ["--hbar", "1", "--m", "1", "--c", "1", "--e", "1", "--k", "1", "--pz", "1", "--ell", "0"],
], ids=["defaults", "ell-0"])
def test_dirac_eigenfunctions_table_every_family_at_d0_0(argv, capsys):
    # d0 = 0 at the dimensionless defaults and at ell = 0. Level 0 of family
    # a is (chi, 0) and of family b (0, chi), so their densities agree.
    code, out = capture(["dirac-eigenfunctions", *argv])
    assert code == 0
    header, *lines = out.splitlines()
    columns = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
    assert all(math.isfinite(float(x)) for col in columns.values() for x in col)
    assert columns["density_a0"] == columns["density_b0"]
    assert capsys.readouterr().err == ""


class TestOutputFile:
    def test_out_writes_identical_content(self, tmp_path):
        target = tmp_path / "table.csv"
        argv = ["nr-spectrum", "--a", "1.5", "--b", "0.5", "--levels", "2"]
        _, stdout_text = capture(argv)
        code, piped = capture(argv + ["--out", str(target)])
        assert code == 0
        assert piped == ""
        assert target.read_text() == stdout_text

    def test_unwritable_out_path_maps_to_exit_2(self, tmp_path):
        code, _ = capture(["nr-spectrum", "--a", "1.5", "--b", "0.5",
                           "--out", str(tmp_path / "missing" / "t.csv")])
        assert code == 2

    def test_json_meta_echoes_config(self, tmp_path):
        target = tmp_path / "t.json"
        code, _ = capture(["nr-spectrum", "--a", "1.5", "--b", "0.5",
                           "--levels", "2", "--format", "json",
                           "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["meta"]["mode"] == "nr-spectrum"
        assert doc["meta"]["levels"] == 2
        assert doc["meta"]["a"] == 1.5

    @pytest.mark.parametrize("mode, args, keys", [
        ("nr-spectrum", ["--a", "1.5", "--b", "0.5"],
         ["a", "b", *_PHYS, "levels", "format", "out"]),
        ("nr-eigenfunctions", ["--a", "1.5", "--b", "0.5", "--levels", "2"],
         ["a", "b", *_PHYS, "levels", "rho_max", "format", "out"]),
        ("dirac-spectrum", _FIG3_ARGS,
         [*_DIRAC, *_PHYS, "levels", "families", "format", "out"]),
        ("dirac-eigenfunctions", [*_FIG3_ARGS, "--levels", "2"],
         [*_DIRAC, *_PHYS, "levels", "families", "rho_max", "format", "out"]),
        ("fig2", [], ["a", "b", *_PHYS, "rho_max", "format", "out"]),
        ("fig3", [], [*_DIRAC, *_PHYS, "rho_max", "format", "out"]),
        ("verify", [], [*_DIRAC, *_PHYS, "format", "out"]),
    ])
    def test_json_meta_echoes_only_the_modes_fields(self, mode, args, keys, monkeypatch):
        # verify's checks are stubbed: its meta does not depend on them
        from susy_ladder import verify as vf
        monkeypatch.setattr(vf, "run_all", lambda *args, **kwargs: [])
        code, text = capture([mode, *args, "--format", "json"])
        assert code == 0
        assert list(json.loads(text)["meta"]) == ["mode", *keys]

    def test_json_escapes_control_characters(self, tmp_path):
        target = tmp_path / 'a\tb"c\\d\u00e9.json'
        code, _ = capture(["nr-spectrum", "--a", "1.5", "--b", "0.5",
                           "--format", "json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["meta"]["out"] == str(target)


_PHYSICAL_FLAGS = {"--hbar", "--m", "--c", "--e", "--k", "--pz", "--ell"}
_NR_FLAGS = {"--format", "--out", "--a", "--b"} | _PHYSICAL_FLAGS
_DIRAC_FLAGS = _NR_FLAGS | {"--d0", "--mbar"}
MODE_FLAGS = {
    "nr-spectrum": _NR_FLAGS | {"--levels"},
    "nr-eigenfunctions": _NR_FLAGS | {"--levels", "--rho-max"},
    "dirac-spectrum": _DIRAC_FLAGS | {"--levels", "--families"},
    "dirac-eigenfunctions": _DIRAC_FLAGS | {"--levels", "--families", "--rho-max"},
    "fig2": _NR_FLAGS | {"--rho-max"},
    "fig3": _DIRAC_FLAGS | {"--rho-max"},
    "verify": _DIRAC_FLAGS,
}
ALL_FLAGS = set().union(*MODE_FLAGS.values())


class TestParser:
    @pytest.mark.parametrize("mode", list(MODE_FLAGS))
    def test_mode_takes_only_its_own_flags(self, mode, capsys):
        assert len(ALL_FLAGS) == 16
        parser = build_parser()
        assert config_from_args(parser.parse_args([mode])) == RunConfig(mode=mode)
        for flag in sorted(MODE_FLAGS[mode]):
            parser.parse_args([mode, flag, "json" if flag == "--format" else "1"])
        for flag in sorted(ALL_FLAGS - MODE_FLAGS[mode]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([mode, flag, "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([mode, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert listed - {"--help"} == MODE_FLAGS[mode]

    @pytest.mark.parametrize("mode", list(MODE_FLAGS))
    def test_parsing_a_mode_adds_only_its_own_flags(self, mode):
        # A mode's parser adds its flags when it first parses, so a run
        # builds no other mode's flags.
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        parser.parse_args([mode])
        for name, sub in subparsers.choices.items():
            flags = {s for action in sub._actions for s in action.option_strings}
            assert flags == ({"-h", "--help"} | (MODE_FLAGS[mode] if name == mode else set()))

    def test_unknown_flag_reported_with_the_modes_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--levels", "9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: susy-ladder fig2 ")
        assert set(re.findall(r"--[a-z][a-z0-9-]*", err.split("error:")[0])) == MODE_FLAGS["fig2"]
        assert "susy-ladder fig2: error: unrecognized arguments: --levels 9" in err

    def test_verify_grid_and_bound_take_no_flag(self, capsys):
        # verify's oracle grids and bounds are constants of the verify module
        for argv in (["--grid-points", "64"], ["--tolerance", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", *argv])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_config_from_args_families(self):
        args = build_parser().parse_args(["dirac-spectrum", "--a", "1", "--b", "2",
                                          "--families", "a,c"])
        cfg = config_from_args(args)
        assert cfg.families == ("a", "c")
        assert cfg.mode == "dirac-spectrum"


def test_cli_import_loads_no_scipy():
    # The oracle binds the LAPACK numpy's wheel ships; only a numpy without
    # one (oracle's fallback) would load scipy.linalg.
    script = ("import sys, susy_ladder.cli; "
              "assert 'scipy' not in sys.modules, 'cli loaded scipy'; "
              "import susy_ladder.oracle as oracle; "
              "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
              "assert oracle.LAPACK == 'scipy fallback' or not loaded, loaded")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def _run_script(script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_non_verify_modes_load_no_numpy():
    # The import alone, then each of the six non-verify modes in CSV and in
    # JSON: each exits 0, and numpy is still not loaded at the end.
    modes = [["nr-spectrum", "--a", "1.5", "--b", "0.5"],
             ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "10"],
             ["dirac-spectrum", *_FIG3_ARGS],
             ["dirac-eigenfunctions", *_FIG3_ARGS, "--levels", "4"],
             ["fig2"], ["fig3"]]
    runs = [[*argv, "--format", fmt] for argv in modes for fmt in ("csv", "json")]
    script = ("import contextlib, io, sys\n"
              "from susy_ladder.cli import main\n"
              "assert 'numpy' not in sys.modules, 'import loaded numpy'\n"
              f"for argv in {runs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "    assert 'numpy' not in sys.modules, argv\n")
    out = _run_script(script)
    assert out.returncode == 0, out.stderr


def test_verify_loads_numpy_and_no_scipy_where_numpy_ships_lapack():
    # the oracle binds the dstebz of numpy's bundled OpenBLAS at import;
    # scipy.linalg is loaded only where numpy ships none.
    script = ("import contextlib, io, sys\n"
              "from susy_ladder.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['verify']) == 0\n"
              "from susy_ladder import oracle\n"
              "assert 'numpy' in sys.modules\n"
              "bundled = oracle._bundled_dstebz() is not None\n"
              "assert bundled == (oracle.LAPACK != 'scipy fallback')\n"
              "assert ('scipy' in sys.modules) == (not bundled), oracle.LAPACK\n")
    out = _run_script(script)
    assert out.returncode == 0, out.stderr


def _hex(values):
    return [float(x).hex() for x in values]


def test_samples_equal_numpy_linspace_bit_for_bit():
    # The default window of every table mode at the CI parameter sets, at
    # every level an eigenfunction table takes, and explicit --rho-max
    # values, among them one whose step underflows to 0.
    import numpy as np

    sets = [(1.5, 0.5), (1.0, 2.0), (1.2, 0.8), (0.5764322215230082, 2.1485527100721353),
            (0.5, 2.0), (2.3, 0.45), (1.3, 0.9)]
    windows = [1e-3, 7.3, 1e6, 1e-300, 1e300, 1e-322]
    for a, b in sets:
        for n in range(13):
            windows += [default_rho_max(NRParams(a, b), n),
                        default_rho_max(DiracParams(a, b, 0.0, 0.0), n)]
    for rho_max in windows:
        expect = np.linspace(rho_max / FIG_SAMPLES, rho_max, FIG_SAMPLES)
        assert _hex(_samples(rho_max)) == _hex(expect), rho_max


# The parameter sets the CI runs verify at: the defaults, then (a, b, d0, mbar).
CI_SETS = [None, (1.0, 2.0, 1.0, 0.1), (1.2, 0.8, 0.4, 0.2),
           (0.5764322215230082, 2.1485527100721353, 1.0, 0.1), (0.5, 2.0, 0.1, 0.2),
           (2.3, 0.45, -0.7, 1.1), (1.3, 0.9, -0.4, 0.6)]


def _mode_argv(mode, params):
    """argv of mode at a CI set; the spectrum and eigenfunction modes take
    fig2's or fig3's parameters for the defaults."""
    scalar = mode.startswith("nr-") or mode == "fig2"
    if params is None:
        if mode in ("fig2", "fig3", "verify"):
            return [mode]
        params = (1.5, 0.5) if scalar else (1.0, 2.0, 1.0, 0.1)
    names = ("a", "b") if scalar else ("a", "b", "d0", "mbar")
    return [mode, *(arg for name, x in zip(names, params) for arg in (f"--{name}", repr(x)))]


@pytest.mark.parametrize("params", CI_SETS, ids=lambda p: "defaults" if p is None else str(p))
def test_renderer_matches_the_reference_in_every_mode(params):
    for mode in cli.MODES:
        cfg = config_from_args(build_parser().parse_args(_mode_argv(mode, params)))
        if mode == "verify":
            table = cli._table_verify(cfg)[0]
        else:
            table = getattr(cli, "_table_" + mode.replace("-", "_"))(cfg)
        meta = cli._meta(cfg)
        assert cli._render_csv(table) == ref_render_csv(table), mode
        assert cli._render_json(table, meta) == ref_render_json(table, meta), mode


# Dirac tables at three CI sets: the default families, reordered subsets,
# the level cap, JSON, and fig3, which builds its densities the same way.
_DIRAC_TABLES = [_mode_argv(mode, params) + extra
                 for params in [(1.0, 2.0, 1.0, 0.1), (1.3, 0.9, -0.4, 0.6),
                                (0.5764322215230082, 2.1485527100721353, 1.0, 0.1)]
                 for mode, extra in [("dirac-eigenfunctions", ["--levels", "13"]),
                                     ("dirac-eigenfunctions", ["--families", "d,b"]),
                                     ("dirac-eigenfunctions", ["--families", "c,a,d",
                                                               "--levels", "6"]),
                                     ("dirac-eigenfunctions", ["--format", "json"]),
                                     ("fig3", [])]]


@pytest.mark.parametrize("argv", _DIRAC_TABLES, ids=[" ".join(a) for a in _DIRAC_TABLES])
def test_dirac_table_matches_the_per_column_reference(argv):
    cfg = config_from_args(build_parser().parse_args(argv))
    fig3 = cfg.mode == "fig3"
    table = (cli._table_fig3 if fig3 else cli._table_dirac_eigenfunctions)(cfg)
    xs = cli._eigen_rows(cfg, scalar=False)[2]
    expect = {"rho": xs} | ref_dirac_densities(cli._params(cfg, scalar=False), xs,
                                               ("a", "c") if fig3 else cfg.families,
                                               3 if fig3 else cfg.levels)
    expect |= {name: column for name, column in table.items() if name.startswith("E_")}
    assert {name: _hex(column) for name, column in table.items()} == \
        {name: _hex(column) for name, column in expect.items()}
    text = cli._render_csv(expect) if cfg.fmt == "csv" else cli._render_json(expect, cli._meta(cfg))
    assert capture(argv) == (0, text)


def test_dirac_table_runs_one_recurrence_per_shape(monkeypatch):
    # Families a/b (and c/d) share their components' shapes (p0, M, beta), and
    # c/d at level n share them with a/b at level n+1: 13 levels of all four
    # families need 27 recurrences, where sampling each column alone ran 102.
    # The chains are the b = 1 twin's.
    calls = []
    sample = expalg._laguerre_function

    def counted(p0, alpha, m, two_beta, *rows):
        calls.append((p0, m, two_beta))
        return sample(p0, alpha, m, two_beta, *rows)

    monkeypatch.setattr(expalg, "_laguerre_function", counted)
    assert capture(["dirac-eigenfunctions", "--a", "1.3", "--b", "0.9", "--d0", "-0.4",
                    "--mbar", "0.6", "--levels", "13"])[0] == 0
    params = DiracParams(1.3, 1.0, -0.4 / 0.9, 0.6 / 0.9)
    shapes = {(p0, m, two_beta)
              for fam in "abcd" for n in range(13)
              for c in dc.eigenfunction_chain(params, n, fam).components if c.terms
              for p0, _, m, two_beta, _ in [expalg._laguerre_shape(c)]}
    assert sorted(calls) == sorted(shapes) and len(calls) == 27


def test_tables_read_each_chain_component_shape_once(monkeypatch):
    # One _laguerre_shape call per nonzero component of every column's
    # chain, built at the b = 1 twin, so each column's departure check runs once.
    calls = []
    shape = expalg._laguerre_shape

    def counted(poly):
        calls.append(poly)
        return shape(poly)

    monkeypatch.setattr(expalg, "_laguerre_shape", counted)
    params = DiracParams(1.3, 1.0, -0.4 / 0.9, 0.6 / 0.9)
    assert capture(["dirac-eigenfunctions", "--a", "1.3", "--b", "0.9", "--d0", "-0.4",
                    "--mbar", "0.6", "--levels", "5"])[0] == 0
    assert calls == [c for fam in "abcd" for n in range(5)
                     for c in dc.eigenfunction_chain(params, n, fam).components if c.terms]
    calls.clear()
    assert capture(["nr-eigenfunctions", "--a", "1.3", "--b", "0.9", "--levels", "5"])[0] == 0
    assert calls == [nr.eigenfunction(NRParams(1.3, 1.0), n) for n in range(5)]


def test_renderer_matches_the_reference_on_edge_cells():
    table = {"a,b": ["a,b", 'say "hi"', "two\nlines", "plain", "", "%s %d"],
             "int": [0, -1, 10 ** 20, True, False, 7],
             "float": [-0.0, 5e-324, 1e300, -1e-300, math.inf, math.nan],
             "mixed": [1, 2.5, "x,y", None, -0.0, 5e-324],
             'q"': [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}
    meta = {"mode": "x", "families": ("a", "c"), "a": None, "levels": 3,
            "tolerance": 1e-11, "out": 'a\tb"c\\d\u00e9,e'}
    assert cli._render_csv(table) == ref_render_csv(table)
    assert cli._render_json(table, meta) == ref_render_json(table, meta)
