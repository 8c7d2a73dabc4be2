"""Cross-checks independent of the ladder construction.

This module consumes only parameter records and sampled function values.
Both eigenvalue problems are solved through the bare Coulomb channel

    -u'' + [(k^2 - 1/4)/rho^2 - 2b/rho] u = eps u,   eps = -b^2/(k + 1/2 + m)^2,

and each returns the levels inside a window of values. The scalar problem is
k = a + 1/2, eps = 2 epsilon. The matrix problem is probed through the
squared operator, whose two decoupled channels, k = a - 1/2 (components 1
and 3) and k = a + 1/2 (components 2 and 4), are these shifted by
C = b^2/a^2 + d0^2 + mbar^2: E^2 = C + eps, with C kept out of the solve.
This avoids the spurious eigenbranches that naive first-order
discretizations produce. Each doubled spinor channel is solved once, so
reported multiplicities count +/- energy pairs once.

Every channel is solved by Rayleigh-Ritz on BASIS_SIZE Laguerre functions
x^(k+1/2) e^(-x/2) L_m^(2k)(x), x = c rho, each scaled by
sqrt(m!/Gamma(m+2k+1)) (Heller and Yamani, Phys. Rev. A 9 (1974) 1201).
Its matrices are closed-form tridiagonals: the overlap S has
S_mm = 2m + 2k + 1 and S_m,m+1 = -sqrt((m+1)(m+2k+1)), the kinetic and
centrifugal part is c^2 K with K = (diag S - offdiag S)/4, and the Coulomb
part is -2bc I, so the pencil is (c^2 K - 2bc I) v = eps S v. The basis goes
like rho^(k+1/2) at the origin, the regular solution wherever 2k > -1, so
both channels are solved at every a > 0. Ritz values bound each level from
above (Hylleraas-Undheim; MacDonald, Phys. Rev. 43 (1933) 830), so the
solves at the two window-end scales c = 2 sqrt(-eps) combine by a plain
minimum; no scale is taken from an analytic level.

The module also binds LAPACK's dstebz, W. Kahan's Sturm-count bisection
(LAPACK Users' Guide, 3rd ed., SIAM 1999), as eigh_tridiagonal: through
ctypes, once at import, from the ILP64 OpenBLAS that numpy's wheel ships and
that import numpy has already loaded, so the oracle loads no scipy. Where
numpy ships no such library, scipy.linalg.eigh_tridiagonal, which calls the
same routine, is used instead; LAPACK names the library bound, or "scipy
fallback". No oracle solve calls it; the tests' grid reference does.

Inner products are the trapezoid rule in x = ln rho on a LogGrid, which
converges exponentially on integrands that decay at both ends (Trefethen and
Weideman, SIAM Review 56 (2014) 385). The strip
[0, LOG_GRID_DEPTH * rho_max] left out holds nothing of a scalar integrand,
rho^(2a+2) at the origin, but about 3e-4 of a Dirac component's norm at
a = 1e-3, where it goes like rho^(2a) over a length a/b.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os

import numpy as np

from .errors import GridTooCoarse, TailNotDecayed
from .params import DiracParams, NRParams, default_rho_max
from .record import Record, set_field

# Laguerre functions per channel solve: 4 per level checked (levels 0..2) plus 40.
BASIS_SIZE = 4 * 3 + 40
# Largest relative move of a value in the window when the basis is halved.
# At the CI sets' twins and at b = 1 the move is at most 1.6e-12 from
# a = 1e-3 to 60, and 8.7e-7 at a = 1e-8, in levels 1-2 of channel
# k = a - 1/2, where S_00 = 2a.
SHIFT_BOUND = 1e-5
# rho_min / rho_max of a LogGrid. The trapezoid rule leaves out what lies
# inside rho_min, while its step h grows like ln(rho_max / rho_min).
LOG_GRID_DEPTH = 1e-9


# -- the bisection ---------------------------------------------------------

# The 64-bit integer of the ILP64 OpenBLAS in numpy's wheel (the 64_ suffix).
_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_ARRAY = ctypes.c_void_p
# DSTEBZ(RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
# ISPLIT, WORK, IWORK, INFO), then the lengths of RANGE and ORDER.
_DSTEBZ_ARGTYPES = [ctypes.c_char_p, ctypes.c_char_p, _INT_P, _DOUBLE_P, _DOUBLE_P,
                    _INT_P, _INT_P, _DOUBLE_P, _ARRAY, _ARRAY, _INT_P, _INT_P,
                    _ARRAY, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT_P,
                    ctypes.c_size_t, ctypes.c_size_t]


def _bundled_dstebz():
    """(dstebz, the library's path) from the ILP64 OpenBLAS that numpy's
    wheel ships (numpy.libs beside numpy, or numpy/.dylibs), which import
    numpy has already loaded for its own BLAS calls; None where numpy ships
    no such library."""
    root = os.path.dirname(np.__file__)
    found = [*glob.glob(os.path.join(root, os.pardir, "numpy.libs", "libscipy_openblas64_*")),
             *glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas64_*"))]
    try:
        path = os.path.realpath(found[0])
        dstebz = ctypes.CDLL(path).scipy_dstebz_64_
    except (IndexError, OSError, AttributeError):
        return None
    dstebz.restype = None
    dstebz.argtypes = _DSTEBZ_ARGTYPES
    return dstebz, path


def _bound_solver(dstebz):
    """eigh_tridiagonal(d, e, eigvals_only=True, tol=..., select="v",
    select_range=(lo, hi)) on the LAPACK routine dstebz, the call shape
    the tests' grid reference uses: scipy.linalg.eigh_tridiagonal's one call
    to dstebz, RANGE 'V' and ORDER 'E', with its checks and messages.

    Fortran takes every argument by reference, the two character lengths
    it appends to the list by value.
    """
    def eigh_tridiagonal(d, e, *, eigvals_only, tol, select, select_range):
        if not eigvals_only or select != "v":
            raise ValueError("only eigenvalues inside a value window are bound")
        d = np.asarray_chkfinite(d, np.float64, "C")
        e = np.asarray_chkfinite(e, np.float64, "C")
        n = d.size
        if d.ndim != 1 or e.ndim != 1:
            raise ValueError("expected a 1-D array")
        if n != e.size + 1:
            raise ValueError(f"d ({n}) must have one more element than e ({e.size})")
        lo, hi = select_range
        w = np.empty(n)
        ints = np.empty(5 * n, np.int64)  # IBLOCK, ISPLIT, then IWORK's 3n
        work = np.empty(4 * n)
        m, nsplit, info = _INT(), _INT(), _INT()
        dstebz(b"V", b"E", _INT(n), ctypes.c_double(lo), ctypes.c_double(hi), _INT(1), _INT(1),
               ctypes.c_double(tol), d.ctypes.data, e.ctypes.data, m, nsplit, w.ctypes.data,
               ints.ctypes.data, ints[n:].ctypes.data, work.ctypes.data,
               ints[2 * n:].ctypes.data, info, 1, 1)
        if info.value:
            raise np.linalg.LinAlgError(
                f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info.value})")
        return w[:m.value]
    return eigh_tridiagonal


def _load_solver():
    """(eigh_tridiagonal, the path of the library it calls) on numpy's
    bundled dstebz, or scipy.linalg.eigh_tridiagonal and "scipy fallback"
    where numpy ships no such library."""
    found = _bundled_dstebz()
    if found is None:
        from scipy.linalg import eigh_tridiagonal
        return eigh_tridiagonal, "scipy fallback"
    dstebz, path = found
    return _bound_solver(dstebz), path


# bench/tracing.py counts grid points on this name; only the tests' grid reference calls it.
eigh_tridiagonal, LAPACK = _load_solver()


class RadialGrid(Record):
    """Uniform grid on [rho_min, rho_max] for the residual stencils.

    rho_min may not exceed 1e-3 * rho_max, which bounds how much of the
    origin region the grid leaves out.
    """

    __slots__ = ("rho_min", "rho_max", "n_points")

    def __init__(self, rho_min: float, rho_max: float, n_points: int):
        if not 0 < rho_min < rho_max:
            raise ValueError("need 0 < rho_min < rho_max")
        if rho_min > 1e-3 * rho_max:
            raise ValueError("rho_min must not exceed 1e-3 * rho_max")
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        set_field(self, "rho_min", rho_min)
        set_field(self, "rho_max", rho_max)
        set_field(self, "n_points", n_points)

    @property
    def h(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_points)


def default_grid(params, n_max: int, n_points: int) -> RadialGrid:
    """Grid capturing both the rho -> 0 region and the slowest tail up to level n_max.

    rho_min sits at 1e-3 * rho_max: small enough for the centrifugal region,
    large enough that the five-point stencil never straddles the fractional
    power singularity at the origin.
    """
    rho_max = default_rho_max(params, n_max)
    return RadialGrid(1e-3 * rho_max, rho_max, n_points)


class LogGrid(Record):
    """Grid uniform in x = ln rho on [LOG_GRID_DEPTH * rho_max, rho_max], with
    step h in x, for the trapezoid rule of quad_inner.

    Points crowd geometrically toward the origin: every decade of rho gets
    ln(10) / h of them.
    """

    __slots__ = ("rho_max", "n_points")

    def __init__(self, rho_max: float, n_points: int):
        if not rho_max > 0:
            raise ValueError("need rho_max > 0")
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        set_field(self, "rho_max", rho_max)
        set_field(self, "n_points", n_points)

    @property
    def rho_min(self) -> float:
        return LOG_GRID_DEPTH * self.rho_max

    @property
    def h(self) -> float:
        return math.log(self.rho_max / self.rho_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.geomspace(self.rho_min, self.rho_max, self.n_points)


def _ritz_values(k: float, b: float, c: float, size: int) -> np.ndarray:
    """The Ritz values of channel k on size Laguerre functions at scale c,
    ascending (see the module docstring)."""
    m = np.arange(size)
    diag = np.diag(2.0 * m + (2.0 * k + 1.0))
    off = np.diag(-np.sqrt(m[1:] * (m[1:] + 2.0 * k)), 1)
    s = diag + off + off.T
    h = (0.25 * c * c) * (diag - off - off.T) - (2.0 * b * c) * np.eye(size)
    lower_inv = np.linalg.inv(np.linalg.cholesky(s))
    return np.linalg.eigvalsh(lower_inv @ h @ lower_inv.T)


def _channel_levels(k: float, b: float, window: tuple[float, float]) -> np.ndarray:
    """Channel k's eps inside window, ascending: the elementwise minimum of
    its Ritz values at the scales c = 2 sqrt(-lo) and 2 sqrt(-hi). Raises
    GridTooCoarse when the same solve on half the basis finds another count
    or moves a value by more than SHIFT_BOUND of itself."""
    lo, hi = window
    if not -math.inf < lo < hi < 0:
        raise ValueError("window must satisfy lo < hi < 0")

    def solve(size: int) -> np.ndarray:
        values = np.minimum(*(_ritz_values(k, b, 2.0 * math.sqrt(-x), size) for x in window))
        return values[(lo <= values) & (values <= hi)]

    full, half = solve(BASIS_SIZE), solve(BASIS_SIZE // 2)
    if len(half) != len(full):
        raise GridTooCoarse(
            f"halving the basis changed the eigenvalue count from {len(full)} to {len(half)}")
    shift = float(np.max(np.abs(half - full) / np.abs(full), initial=0.0))
    if not shift <= SHIFT_BOUND:
        raise GridTooCoarse(f"an eigenvalue moved by {shift:.3e} of itself on halving the basis")
    return full


class ResidualReport(Record):
    """L2 residual norms of a trial eigenpair on a grid."""

    __slots__ = ("l2_residual", "l2_norm")

    def __init__(self, l2_residual: float, l2_norm: float):
        set_field(self, "l2_residual", l2_residual)
        set_field(self, "l2_norm", l2_norm)

    @property
    def relative_l2(self) -> float:
        return self.l2_residual / self.l2_norm


def _l2_report(r: np.ndarray, f: np.ndarray, h: float) -> ResidualReport:
    """The L2 norms of the residual r and the trial samples f, at step h."""
    return ResidualReport(*(float(np.sqrt(h * np.sum(np.abs(x) ** 2))) for x in (r, f)))


# -- scalar problem ----------------------------------------------------------


def fd_schrodinger_eigs(params: NRParams, window: tuple[float, float]) -> list[float]:
    """The levels epsilon inside a window given in epsilon, ascending: the
    scalar operator times 2 is channel k = a + 1/2 with eps = 2 epsilon
    (_channel_levels)."""
    lo, hi = window
    return [0.5 * float(x)
            for x in _channel_levels(params.a + 0.5, params.b, (2.0 * lo, 2.0 * hi))]


# -- matrix problem ----------------------------------------------------------


def residual_dirac(phi: np.ndarray, energy: float, params: DiracParams,
                   grid: RadialGrid) -> ResidualReport:
    """Residual of the first-order 4x4 operator on a sampled spinor, using
    fourth-order central first-derivative stencils per component."""
    phi = np.asarray(phi)
    if phi.shape != (4, grid.n_points):
        raise ValueError(f"expected a (4, {grid.n_points}) sample array")
    h = grid.h
    pts = grid.points
    inner = slice(2, grid.n_points - 2)
    d1 = (phi[:, :-4] - 8 * phi[:, 1:-3] + 8 * phi[:, 3:-1] - phi[:, 4:]) / (12 * h)
    w = params.a / pts[inner] - params.b / params.a
    alpha1 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
                      dtype=complex)
    alpha2 = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]])
    alpha3 = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
                      dtype=complex)
    beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    applied = (-1j * (alpha1 @ d1) + w * (alpha2 @ phi[:, inner])
               + params.d0 * (alpha3 @ phi[:, inner])
               + params.mbar * (beta @ phi[:, inner]))
    r = applied - energy * phi[:, inner]
    return _l2_report(r, phi[:, inner], h)


def dirac_spectrum_scan(params: DiracParams, window: tuple[float, float]) -> list[float]:
    """The eps = E^2 - C of the squared operator's channels k = a - 1/2 and
    a + 1/2 inside a window given in eps, ascending (see the module
    docstring): level 0 lies in channel a - 1/2 alone and every higher level
    in both. Each channel is solved on its own (_channel_levels), so a
    near-degenerate pair is never matched across channels."""
    return sorted(float(x) for k in (params.a - 0.5, params.a + 0.5)
                  for x in _channel_levels(k, params.b, window))


# -- quadrature --------------------------------------------------------------


def quad_inner(f: np.ndarray, g: np.ndarray, grid: LogGrid) -> complex:
    """Inner product of functions sampled on a LogGrid, conjugating f: the
    trapezoid rule in x = ln rho, h (sum w - (w_0 + w_N) / 2) with
    w = conj(f) g rho (see the module docstring).

    Any grid but a LogGrid raises TypeError. Requires the integrand to have
    decayed at rho_max (relative 1e-16), since the quadrature cannot see past
    the grid.
    """
    if not isinstance(grid, LogGrid):
        raise TypeError(f"the oracle runs on a LogGrid, got {type(grid).__name__}")
    prod = np.conjugate(np.asarray(f)) * np.asarray(g)
    peak = float(np.max(np.abs(prod)))
    if peak > 0 and abs(prod[-1]) > 1e-16 * peak:
        raise TailNotDecayed(
            f"integrand at rho_max is {abs(prod[-1]) / peak:.2e} of its peak")
    w = prod * grid.points
    return complex(grid.h * (np.sum(w) - 0.5 * (w[0] + w[-1])))
