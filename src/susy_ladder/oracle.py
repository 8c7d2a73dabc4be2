"""Finite-difference cross-checks, independent of the ladder construction.

This module consumes only parameter records and sampled function values. Its
solves and its quadrature share one grid, uniform in x = ln rho (LogGrid).
Both eigenvalue problems are solved through the bare Coulomb channel

    -u'' + [(k^2 - 1/4)/rho^2 - 2b/rho] u = eps u,   eps = -b^2/(k + 1/2 + m)^2,

with the regular solution rho^(k + 1/2) imposed at the inner end, and each
returns the levels inside a window of values. The scalar problem is
k = a + 1/2, eps = 2 epsilon. The matrix problem is probed through the
squared operator, whose two decoupled channels, k = a - 1/2 (components 1
and 3) and k = a + 1/2 (components 2 and 4), are these shifted by
C = b^2/a^2 + d0^2 + mbar^2: E^2 = C + eps, with C kept out of the matrix.
This avoids the spurious eigenbranches that naive first-order
discretizations produce. Each doubled spinor channel is solved once, so
reported multiplicities count +/- energy pairs once.

Channel k = a - 1/2 is solved only where k >= 0. For a < 1/2 both rho^a and
rho^(1-a) are square-integrable at the origin (Weyl's limit-circle case;
G. Teschl, Mathematical Methods in Quantum Mechanics, AMS GSM 157), and the
ghost row does not pin the wanted rho^a: at a = 0.1 the channel's lowest
eps is off by 16% while refinement moves it by 2%. Level 0 lies in that
channel alone, so below a = 1/2 the scan does not see it.

Inner products are the trapezoid rule in x, which converges exponentially
on integrands that decay at both ends (Trefethen and Weideman, SIAM Review 56
(2014) 385). The strip [0, LOG_GRID_DEPTH * rho_max] left out holds nothing
of a scalar integrand, rho^(2a+2) at the origin, but about 3e-4 of a Dirac
component's norm at a = 1e-3, where it goes like rho^(2a) over a length a/b.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import GridTooCoarse, TailNotDecayed
from .params import DiracParams, NRParams, default_rho_max
from .record import Record, set_field

RICHARDSON_SHIFT = 1e-4
# Absolute tolerance on eps for the bisection, far below RICHARDSON_SHIFT.
# scipy's default (tol=0) is machine epsilon times ||T||_1, and a log grid's
# diagonal reaches 2 / (h rho_min)^2, so that default is wider than any
# window a solve is asked about: at fig3 on 2048 points it puts level 0's
# eps = -4.000 of the k = 1/2 channel at -3.193.
BISECTION_TOL = 1e-12
# rho_min / rho_max of a LogGrid. With the regular solution imposed at the
# inner end, a shallow grid loses what the leading power rho^k misses inside
# rho_min, while the step h grows like ln(rho_max / rho_min). Of the 200
# random_nr draws (1024 points) and the 100 random_dirac draws (2048 points),
# 1e-6, 1e-9, 1e-12 and 1e-20 pass the scalar check on 200, 200, 200 and 166
# and the scan check on 95, 100, 99 and 97.
LOG_GRID_DEPTH = 1e-9


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
    step h in x, the regular solution imposed at the inner end and a
    Dirichlet end one step beyond the outer one.

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


def _refined(solve, grid: LogGrid) -> list[float]:
    """The Richardson values (4 fine - coarse) / 3 of solve(grid) and solve
    on the same window at half the step (2N - 1 points): the imposed regular
    solution leaves an error of order h^2 only. Raises GridTooCoarse when the
    two differ in count or any value moves by more than RICHARDSON_SHIFT."""
    coarse = np.asarray(solve(grid))
    fine = np.asarray(solve(LogGrid(grid.rho_max, 2 * grid.n_points - 1)))
    if len(fine) != len(coarse):
        raise GridTooCoarse(
            f"refinement changed the eigenvalue count from {len(coarse)} to {len(fine)}")
    shift = float(np.max(np.abs(fine - coarse), initial=0.0))
    if shift > RICHARDSON_SHIFT:
        raise GridTooCoarse(f"an eigenvalue moved by {shift:.3e} on refinement")
    return [float(x) for x in (4.0 * fine - coarse) / 3.0]


def _require_log_grid(grid) -> None:
    if not isinstance(grid, LogGrid):
        raise TypeError(f"the oracle runs on a LogGrid, got {type(grid).__name__}")


def _channel_tridiag(k: float, b: float, grid: LogGrid):
    # The channel whose regular solution is u ~ rho^(k + 1/2).
    # u = rho^(1/2) v on x = ln rho gives -v'' + [k^2 - 2b rho] v
    # = eps rho^2 v; scaling by w = rho v makes it one symmetric tridiagonal
    # problem in eps. The first row takes the ghost value v_-1 = e^(-kh) v_0
    # of the regular solution v ~ e^(kx); the last row is Dirichlet.
    rho = grid.points
    h = grid.h
    d = (2.0 / h ** 2 + k * k - 2.0 * b * rho) / rho ** 2
    d[0] -= math.exp(-k * h) / (h * rho[0]) ** 2
    return d, -1.0 / (h ** 2 * rho[:-1] * rho[1:])


def _channel_eigs(k: float, b: float, grid: LogGrid, **select) -> np.ndarray:
    d, e = _channel_tridiag(k, b, grid)
    return eigh_tridiagonal(d, e, eigvals_only=True, tol=BISECTION_TOL, **select)


def _window_eigs(k: float, b: float, window: tuple[float, float], grid: LogGrid,
                 scale: float = 1.0) -> list[float]:
    """The Richardson values (_refined) of scale * eps for channel k's eps
    inside window / scale, ascending. Each solve scales its values, so the
    refinement shift is taken on the values returned. Any grid but a LogGrid
    raises TypeError."""
    _require_log_grid(grid)
    lo, hi = window
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    select = {"select": "v", "select_range": (lo / scale, hi / scale)}
    return _refined(lambda g: scale * _channel_eigs(k, b, g, **select), grid)


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


def fd_schrodinger_eigs(params: NRParams, window: tuple[float, float],
                        grid: LogGrid) -> list[float]:
    """The Richardson levels epsilon inside a window given in epsilon, ascending.

    The scalar operator times 2 is the channel k = a + 1/2 with
    eps = 2 epsilon, halved inside each solve, so the refinement shift is
    taken on epsilon (_window_eigs). A grid too short for a level leaves it
    out of the count.
    """
    return _window_eigs(params.a + 0.5, params.b, window, grid, 0.5)


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


def dirac_spectrum_scan(params: DiracParams, window: tuple[float, float],
                        grid: LogGrid) -> list[float]:
    """The Richardson eps = E^2 - C of the squared operator's channels
    inside a window given in eps, ascending (see the module docstring).

    Level n >= 1 lies in both channels and level 0 in k = a - 1/2 alone,
    which is solved only where k >= 0. Each channel is refined on its own,
    so a near-degenerate pair is never matched across channels. Any grid but
    a LogGrid raises TypeError, and a refinement shift past RICHARDSON_SHIFT
    raises GridTooCoarse (_refined).
    """
    return sorted(x for k in (params.a - 0.5, params.a + 0.5) if k >= 0
                  for x in _window_eigs(k, params.b, window, grid))


# -- quadrature --------------------------------------------------------------


def quad_inner(f: np.ndarray, g: np.ndarray, grid: LogGrid) -> complex:
    """Inner product of functions sampled on a LogGrid, conjugating f: the
    trapezoid rule in x = ln rho, h (sum w - (w_0 + w_N) / 2) with
    w = conj(f) g rho (see the module docstring).

    Any grid but a LogGrid raises TypeError. Requires the integrand to have
    decayed at rho_max (relative 1e-16), since the quadrature cannot see past
    the grid.
    """
    _require_log_grid(grid)
    prod = np.conjugate(np.asarray(f)) * np.asarray(g)
    peak = float(np.max(np.abs(prod)))
    if peak > 0 and abs(prod[-1]) > 1e-16 * peak:
        raise TailNotDecayed(
            f"integrand at rho_max is {abs(prod[-1]) / peak:.2e} of its peak")
    w = prod * grid.points
    return complex(grid.h * (np.sum(w) - 0.5 * (w[0] + w[-1])))
