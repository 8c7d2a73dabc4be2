"""Output bytes as a tier-1 check: every command in COMMANDS is re-run in
process through cli.main and compared with its entry in cli_bytes.json.

A table or refusal entry pins the exit code and the sha256 of stdout. A
verify entry pins the exit code and each row's name and pass/fail only:
its details read numpy's linear algebra, whose version varies. Table bytes
read Python's math module, whose exp, log and pow come from the C library,
so a runner with another libm may differ; such an entry is recorded and
pinned on that runner, never loosened to a comparison of values.

A change that moves bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_cli_bytes.py

and lists every entry that changed.
"""

import functools
import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from susy_ladder.cli import main

MANIFEST = Path(__file__).with_name("cli_bytes.json")

_DIRAC_CI = ["--d0", "-0.4", "--mbar", "0.6"]
_FIG3 = ["--a", "1", "--b", "2", "--d0", "1", "--mbar", "0.1"]
_ELL_0 = ["--hbar", "1", "--m", "1", "--c", "1", "--e", "1", "--k", "1", "--pz", "1",
          "--ell", "0"]

# verify at every set CI runs but (1e-8, 1, 0.3, 0.5) and (28, 1), which
# tests/test_verify.py pins row by row, and at a = 1e-5, a = 100 and
# (1, 1e-200, 0, 1)
_VERIFY = [
    [],
    _FIG3,
    ["--a", "1.2", "--b", "0.8", "--d0", "0.4", "--mbar", "0.2"],
    ["--a", "0.5764322215230082", "--b", "2.1485527100721353", "--d0", "1", "--mbar", "0.1"],
    ["--a", "0.5", "--b", "2", "--d0", "0.1", "--mbar", "0.2"],
    ["--a", "2.3", "--b", "0.45", "--d0", "-0.7", "--mbar", "1.1"],
    ["--a", "1.3", "--b", "0.9", *_DIRAC_CI],
    ["--a", "1.5", "--b", "0.5", "--mbar", "0.3"],
    ["--a", "1.5", "--b", "0.5"],
    ["--a", "0.05", "--b", "0.9", *_DIRAC_CI],
    ["--a", "1e-3", "--b", "0.9", *_DIRAC_CI],
    ["--a", "0.1", "--b", "0.9", *_DIRAC_CI],
    ["--a", "1e-3", "--b", "100", "--d0", "1", "--mbar", "1"],
    ["--a", "1.3", "--b", "90", "--d0", "-40", "--mbar", "60"],
    ["--a", "7", "--b", "1", "--d0", "1", "--mbar", "1"],
    ["--a", "50", "--b", "1"],
    ["--a", "60", "--b", "1"],
    ["--a", "0.5", "--b", "1"],
    ["--a", "1e-5", "--b", "1"],
    ["--a", "100", "--b", "1"],
    ["--a", "1", "--b", "1e-200", "--d0", "0", "--mbar", "1"],
    ["--a", "1", "--b", "1e-310", "--d0", "1", "--mbar", "1"],
]

_TABLES = [
    # the commands of CI's hash-seed step
    ["dirac-eigenfunctions", "--a", "1.3", "--b", "0.9", *_DIRAC_CI, "--levels", "9"],
    ["dirac-eigenfunctions", "--a", "1.3", "--b", "0.9", *_DIRAC_CI, "--levels", "13",
     "--format", "json"],
    ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "10"],
    ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "13"],
    ["nr-spectrum", "--a", "1.5", "--b", "0.5", "--levels", "5"],
    ["dirac-spectrum", "--a", "1.3", "--b", "0.9", *_DIRAC_CI, "--families", "d,c,b,a"],
    ["dirac-eigenfunctions", *_FIG3, "--levels", "4"],
    ["fig2", "--format", "json"],
    ["fig3"],
    ["fig3", "--format", "json"],
    ["dirac-eigenfunctions", *_ELL_0],
    ["nr-eigenfunctions", *_ELL_0],
    ["nr-eigenfunctions", "--a", "100", "--b", "1"],
    ["fig2", "--a", "100", "--b", "1"],
    ["dirac-eigenfunctions", "--a", "50", "--b", "1e6", "--d0", "0.3", "--mbar", "0.5"],
    # the other tables CI runs, and fig2 in CSV
    ["nr-spectrum", "--a", "1.5", "--b", "0.5"],
    ["dirac-eigenfunctions", "--a", "1", "--b", "1", "--levels", "13"],
    ["dirac-eigenfunctions", "--a", "1e-6", "--b", "1", "--d0", "1", "--mbar", "1",
     "--levels", "13"],
    ["fig2"],
    # the 13-level scalar table at a = 1.3, large a and extreme b
    ["nr-eigenfunctions", "--a", "1.3", "--b", "0.9", "--levels", "13"],
    ["dirac-eigenfunctions", "--a", "100", "--b", "1", "--d0", "0.3", "--mbar", "0.5"],
    ["nr-eigenfunctions", "--a", "300", "--b", "1"],
    ["dirac-eigenfunctions", "--a", "300", "--b", "1", "--d0", "0.3", "--mbar", "0.5"],
    ["nr-eigenfunctions", "--a", "100", "--b", "1e12"],
    ["nr-eigenfunctions", "--a", "100", "--b", "1e-12"],
    ["dirac-eigenfunctions", "--a", "100", "--b", "1e12", "--d0", "0.3", "--mbar", "0.5"],
    ["dirac-eigenfunctions", "--a", "100", "--b", "1e-12", "--d0", "0.3", "--mbar", "0.5"],
    # windows at the ends of the float range
    ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "3", "--rho-max", "1e300"],
    ["dirac-eigenfunctions", *_FIG3, "--rho-max", "1e300"],
    ["fig2", "--rho-max", "1e300"],
    ["fig3", "--rho-max", "1e300"],
    ["dirac-eigenfunctions", *_FIG3, "--rho-max", "1e-300"],
    # sets refused before the tables built at the b = 1 twin: the Dirac band
    # a <= 1e-4, b <= a, and b^2 underflowing or the chains' coefficients
    # overflowing at b = 1e-200 and 1e100
    *[["dirac-eigenfunctions", "--a", a, "--b", b, "--d0", "0.3", "--mbar", "0.5",
       "--levels", levels]
      for a, b in [("1e-6", "1e-6"), ("1e-6", "1e-7"), ("1e-4", "1e-5"), ("1e-8", "1e-9")]
      for levels in ("3", "13")],
    ["fig3", "--a", "1", "--b", "1e-200", "--d0", "0", "--mbar", "1"],
    ["dirac-eigenfunctions", "--a", "1", "--b", "1e-200", "--d0", "0", "--mbar", "1"],
    ["nr-eigenfunctions", "--a", "1", "--b", "1e-200"],
    ["fig2", "--a", "1", "--b", "1e-200"],
    ["nr-eigenfunctions", "--a", "1", "--b", "1e100", "--levels", "13"],
]

# refusals: exit 2 and nothing on stdout
_REFUSALS = [
    ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "14"],
    ["dirac-eigenfunctions", "--a", "1.5", "--b", "0.5", "--d0", "1", "--mbar", "0.1",
     "--levels", "14"],
    ["nr-spectrum", "--a", "1.5", "--b", "0.5", "--levels", "0"],
    ["dirac-spectrum", *_FIG3, "--families", "a,x"],
    ["dirac-spectrum", *_FIG3, "--families", "a,a"],
    ["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--rho-max", "-1"],
    ["fig2", "--rho-max", "1e-300"],
    ["nr-spectrum", "--a", "1", "--b", "1e200"],
    ["dirac-spectrum", "--a", "1e-300", "--b", "1", "--d0", "0", "--mbar", "0"],
    ["fig3", "--a", "1e-200", "--b", "1", "--d0", "1", "--mbar", "1"],
    ["fig3", "--a", "1e-20", "--b", "1", "--d0", "0.5", "--mbar", "1"],
    ["fig2", "--a", "1e300", "--b", "1e-300"],
]

COMMANDS = [["verify", *argv] for argv in _VERIFY] + _TABLES + _REFUSALS


def run(argv: list[str]) -> dict:
    """The manifest entry of argv, run in process through cli.main."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), warnings.catch_warnings():
        # numpy's overflow warnings in verify at large a go to stderr
        warnings.simplefilter("ignore")
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "verify":
        return {"argv": argv, "exit": code,
                "rows": [line.split(",")[:2] for line in text.splitlines()]}
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}


@functools.cache
def _manifest() -> dict[tuple, dict]:
    return {tuple(entry["argv"]): entry for entry in json.loads(MANIFEST.read_text())}


def test_manifest_holds_every_command_once_in_order():
    assert [entry["argv"] for entry in json.loads(MANIFEST.read_text())] == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_bytes_match_the_manifest(argv):
    assert run(argv) == _manifest()[tuple(argv)]


if __name__ == "__main__":
    entries = [run(argv) for argv in COMMANDS]
    # one entry a line, so a diff of the manifest names each changed command
    MANIFEST.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
