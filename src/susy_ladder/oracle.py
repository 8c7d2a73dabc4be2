"""Finite-difference cross-checks, independent of the ladder construction.

This module consumes only parameter records and sampled function values. Both
eigenvalue problems are one radial channel,

    -u'' + [cf/rho^2 - 2b/rho + C] u = E^2 u,

solved on a grid uniform in x = ln rho (LogGrid) with the regular solution
imposed at the inner end. The scalar problem is the case cf = a(a+1), C = 0,
E^2 = 2 epsilon. The matrix problem is probed through the squared operator,
whose two decoupled channels

    cf = a(a-1)  (components 1 and 3),   cf = a(a+1)  (components 2 and 4),
    C = b^2/a^2 + d0^2 + mbar^2,

avoid the spurious eigenbranches that naive first-order discretizations
produce. Each doubled spinor channel is solved once, so reported
multiplicities count +/- energy pairs once.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import GridTooCoarse, TailNotDecayed
from .params import DiracParams, NRParams, default_rho_max
from .record import Record, set_field

RICHARDSON_SHIFT = 1e-4
# Absolute tolerance on E^2 for the bisection, far below RICHARDSON_SHIFT.
# scipy's default (tol=0) is eps * ||T||_1, and a log grid's diagonal reaches
# 2 / (h rho_min)^2, so that default is wider than any window a solve is
# asked about: at fig3 on 2048 points it puts the ground magnitude 1.005
# at 1.348.
BISECTION_TOL = 1e-12
# rho_min / rho_max of a LogGrid. With the regular solution imposed at the
# inner end, a shallow grid loses what the leading power rho^k misses inside
# rho_min, while the step h grows like ln(rho_max / rho_min). Of the 200
# random_nr draws (1024 points) and the 100 random_dirac draws (2048 points),
# 1e-6, 1e-9, 1e-12 and 1e-20 pass the scalar check on 200, 200, 200 and 166
# and the scan check on 95, 100, 99 and 97.
LOG_GRID_DEPTH = 1e-9


class RadialGrid(Record):
    """Uniform grid on [rho_min, rho_max] for the residual stencils and
    Simpson quadrature.

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


def quadrature_grid(params, n_max: int, n_points: int = 16384) -> RadialGrid:
    """Grid for Simpson inner products: rho_min small enough (1e-6 * rho_max)
    that the missed strip [0, rho_min] is far below the 1e-8 agreement target
    even for integrands growing like rho^2 at the origin."""
    rho_max = default_rho_max(params, n_max)
    return RadialGrid(1e-6 * rho_max, rho_max, n_points)


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


def _refined(solve, grid: LogGrid) -> tuple[np.ndarray, np.ndarray]:
    """solve(grid) and solve on the same window at half the step (2N - 1
    points), as arrays. Raises GridTooCoarse when the two differ in count or
    any value moves by more than RICHARDSON_SHIFT."""
    coarse = np.asarray(solve(grid))
    fine = np.asarray(solve(LogGrid(grid.rho_max, 2 * grid.n_points - 1)))
    if len(fine) != len(coarse):
        raise GridTooCoarse(
            f"refinement changed the eigenvalue count from {len(coarse)} to {len(fine)}")
    shift = float(np.max(np.abs(fine - coarse), initial=0.0))
    if shift > RICHARDSON_SHIFT:
        raise GridTooCoarse(f"an eigenvalue moved by {shift:.3e} on refinement")
    return coarse, fine


def _require_log_grid(grid) -> None:
    if not isinstance(grid, LogGrid):
        raise TypeError(f"the oracle solves run on a LogGrid, got {type(grid).__name__}")


def _channel_tridiag(k: float, b: float, const: float, grid: LogGrid):
    # The channel with cf = k^2 - 1/4, whose regular solution is u ~ rho^(k + 1/2).
    # u = rho^(1/2) v on x = ln rho gives -v'' + [k^2 - 2b rho + const rho^2] v
    # = E^2 rho^2 v; scaling by w = rho v makes it one symmetric tridiagonal
    # problem in E^2. The first row takes the ghost value v_-1 = e^(-kh) v_0
    # of the regular solution v ~ e^(kx); the last row is Dirichlet.
    rho = grid.points
    h = grid.h
    d = (2.0 / h ** 2 + k * k - 2.0 * b * rho + const * rho ** 2) / rho ** 2
    d[0] -= math.exp(-k * h) / (h * rho[0]) ** 2
    return d, -1.0 / (h ** 2 * rho[:-1] * rho[1:])


def _channel_eigs(k: float, b: float, const: float, grid: LogGrid,
                  **select) -> np.ndarray:
    d, e = _channel_tridiag(k, b, const, grid)
    return eigh_tridiagonal(d, e, eigvals_only=True, tol=BISECTION_TOL, **select)


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


def fd_schrodinger_eigs(params: NRParams, n_level_count: int,
                        grid: LogGrid) -> list[float]:
    """Lowest eigenvalues of the discretized scalar operator, ascending.

    The scalar operator times 2 is the channel cf = a(a+1), C = 0, with
    E^2 = 2 epsilon; its lowest n_level_count values of E^2, halved, are the
    levels. Any grid but a LogGrid raises TypeError. Every level is re-solved
    at half the step (_refined) and the Richardson value
    (4 E_fine - E_coarse) / 3 is returned: the imposed regular solution
    leaves an error of order h^2 only.
    """
    _require_log_grid(grid)
    needed = default_rho_max(params, n_level_count)
    if grid.rho_max < needed:
        raise ValueError(
            f"rho_max = {grid.rho_max} does not cover the turning region; "
            f"need at least {needed}")
    coarse, fine = _refined(partial(_scalar_once, params, n_level_count), grid)
    return [float(x) for x in (4.0 * fine - coarse) / 3.0]


def _scalar_once(params: NRParams, count: int, grid: LogGrid) -> np.ndarray:
    return 0.5 * _channel_eigs(params.a + 0.5, params.b, 0.0, grid,
                               select="i", select_range=(0, count - 1))


def residual_scalar(f: np.ndarray, energy: float, params: NRParams,
                    grid: RadialGrid) -> ResidualReport:
    """Residual of (-1/2) f'' + V0 f - E f using the five-point second
    derivative (fourth order), restricted to the stencil-valid interior."""
    f = np.asarray(f)
    h = grid.h
    pts = grid.points
    inner = slice(2, grid.n_points - 2)
    d2 = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
    v = params.a * (params.a + 1) / (2.0 * pts[inner] ** 2) - params.b / pts[inner]
    r = -0.5 * d2 + (v - energy) * f[inner]
    return _l2_report(r, f[inner], h)


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
    """Eigenvalue magnitudes of the matrix problem inside a window, from the
    squared operator's two scalar channels.

    Components 1/3 and 2/4 of the squared operator are identical pairs; each
    pair is solved once, so a magnitude's multiplicity here counts each +/-
    energy pair of the first-order problem a single time. The channels are
    discretized on a LogGrid, whose inner end imposes the regular rho^a and
    rho^(a+1) behaviour; any other grid raises TypeError.

    The stability check (_refined) re-solves at half the step and raises
    GridTooCoarse when the count changes or any E^2, the eigenvalue the
    channels solve for, moves by more than RICHARDSON_SHIFT; the magnitudes
    of the given grid are returned.
    """
    _require_log_grid(grid)
    lo, hi = window
    if not 0.0 <= lo < hi:
        raise ValueError("window must satisfy 0 <= lo < hi")
    bound = 1.5 * (params.mbar + abs(dn(params, 3)))
    if hi > bound:
        raise ValueError(f"window top {hi} exceeds the desk-scale bound {bound}")
    coarse, _ = _refined(partial(_scan_once, params, lo, hi), grid)
    return [math.sqrt(x) for x in coarse]


def _scan_once(params: DiracParams, lo: float, hi: float,
               grid: LogGrid) -> np.ndarray:
    """The positive E^2 of both channels inside [lo^2, hi^2], ascending."""
    const = (params.b / params.a) ** 2 + params.d0 ** 2 + params.mbar ** 2
    sq = np.concatenate([_channel_eigs(k, params.b, const, grid, select="v",
                                       select_range=(lo * lo, hi * hi))
                         for k in (params.a - 0.5, params.a + 0.5)])
    return np.sort(sq[sq > 0])


def dn(params: DiracParams, n: int) -> float:
    # Same closed form as the solver module, restated here so the oracle
    # depends only on the parameter record.
    dsq = (params.d0 ** 2 + n * (2 * params.a + n) * params.b ** 2
           / (params.a ** 2 * (params.a + n) ** 2))
    return (-1.0 if params.d0 < 0 else 1.0) * math.sqrt(dsq)


# -- quadrature --------------------------------------------------------------


def _simpson(y: np.ndarray, dx: float):
    """Composite Simpson's rule on uniform samples in scipy.integrate.simpson's
    operation order: an even count integrates the first N-1 points, then adds
    Cartwright's last-interval correction as one bracketed term, as scipy does.
    Any other grouping changes the last bit."""
    n = len(y)
    m = n if n % 2 else n - 1
    result = np.sum(y[0:m - 2:2] + 4.0 * y[1:m - 1:2] + y[2:m:2]) * (dx / 3.0)
    if n % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h ** 2 + 3 * h * h) / (6 * (h + h))
        beta = (h ** 2 + 3.0 * h * h) / (6 * h)
        eta = h ** 3 / (6 * h * (h + h))
        result = result + (alpha * y[-1] + beta * y[-2] - eta * y[-3])
    return result


def quad_inner(f: np.ndarray, g: np.ndarray, grid: RadialGrid) -> complex:
    """Composite-Simpson inner product of sampled functions, conjugating f.

    The rule reproduces scipy.integrate.simpson bit for bit (Cartwright's
    end correction on an even point count) without importing scipy.integrate.
    Requires the integrand to have decayed at rho_max (relative 1e-16), since
    the quadrature cannot see past the grid.
    """
    prod = np.conjugate(np.asarray(f)) * np.asarray(g)
    peak = float(np.max(np.abs(prod)))
    if peak > 0 and abs(prod[-1]) > 1e-16 * peak:
        raise TailNotDecayed(
            f"integrand at rho_max is {abs(prod[-1]) / peak:.2e} of its peak")
    return complex(_simpson(prod, grid.h))
