"""Parameter records for the two hierarchies and their physical-unit source.

These are plain immutable records (record.Record) with the derived-parameter
maps. They carry no construction machinery, so the finite-difference oracle
can depend on them without touching the symbolic ladder code.
"""

from __future__ import annotations

import math

from .errors import NoBoundStates
from .record import Record, set_field

# The four eigenvector families of the matrix hierarchy (see dirac). They
# live here so that the CLI can check --families without importing dirac.
FAMILIES = ("a", "b", "c", "d")


def _require_finite(record: Record) -> None:
    """ValueError naming the first of record's fields that is not finite."""
    for name, value in zip(record._fields, record._values(record)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(record: Record, names: tuple[str, ...]) -> None:
    """ValueError naming the first of the named fields that is not positive."""
    for name in names:
        if not getattr(record, name) > 0:
            raise ValueError(f"{name} must be positive, got {getattr(record, name)}")


class NRParams(Record):
    """Dimensionless parameters of the scalar radial problem.

    a parameterizes the centrifugal strength a(a+1), b the attractive 1/rho
    coefficient. Bound states require both positive.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        set_field(self, "a", a)
        set_field(self, "b", b)
        _require_finite(self)
        _require_positive(self, ("a", "b"))


class DiracParams(Record):
    """Dimensionless parameters of the matrix radial problem.

    a is the 1/rho matrix coefficient, b the off-centrifugal strength, d0 the
    level-zero constant of the sigma_3 channel and mbar the reduced mass mc/hbar.
    """

    __slots__ = ("a", "b", "d0", "mbar")

    def __init__(self, a: float, b: float, d0: float, mbar: float):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "d0", d0)
        set_field(self, "mbar", mbar)
        _require_finite(self)
        _require_positive(self, ("a", "b"))
        if mbar < 0:
            raise ValueError(f"mbar must be nonnegative, got {mbar}")


class PhysicalParams(Record):
    """Laboratory-unit inputs: hbar, mass, light speed, charge, field constant
    k, longitudinal momentum p_z, and the angular-momentum eigenvalue ell."""

    __slots__ = ("hbar", "m", "c", "e", "k", "pz", "ell")

    def __init__(self, hbar: float, m: float, c: float, e: float, k: float,
                 pz: float, ell: float):
        set_field(self, "hbar", hbar)
        set_field(self, "m", m)
        set_field(self, "c", c)
        set_field(self, "e", e)
        set_field(self, "k", k)
        set_field(self, "pz", pz)
        set_field(self, "ell", ell)
        _require_finite(self)
        _require_positive(self, ("hbar", "m", "c", "e"))
        if self.lam == 0.0:
            raise ValueError("k and ell cannot both vanish")

    @property
    def lam(self) -> float:
        return math.hypot(self.ell, self.k)

    def _require_bound(self) -> None:
        if self.pz * self.k <= 0:
            raise NoBoundStates(
                f"p_z*k = {self.pz * self.k} <= 0 carries no bound states")

    def to_nr(self) -> NRParams:
        """Scalar-problem parameters: a solves a(a+1) = (lam/hbar)^2 - 1/4.

        The positive branch a = lam/hbar - 1/2 is taken; the negative one
        produces non-normalizable behavior at the origin.
        """
        self._require_bound()
        a = self.lam / self.hbar - 0.5
        if a <= 0:
            raise ValueError(
                f"lam/hbar = {self.lam / self.hbar} must exceed 1/2 for a > 0")
        return NRParams(a=a, b=self.pz * self.k / self.hbar ** 2)

    def to_dirac(self) -> DiracParams:
        self._require_bound()
        return DiracParams(
            a=self.lam / self.hbar,
            b=self.pz * self.k / self.hbar ** 2,
            d0=self.pz * self.ell / (self.hbar * self.lam),
            mbar=self.m * self.c / self.hbar,
        )


def w_coeffs(params, n: int) -> tuple[float, float]:
    """The 1/rho and constant coefficients (a+n, -b/(a+n)) of
    W_n = (a+n)/rho - b/(a+n), the superpotential both hierarchies share."""
    an = params.a + n
    return an, -params.b / an


def default_rho_max(params, n: int) -> float:
    """Sampling window for levels up to n of either hierarchy: forty decay
    lengths (a+n+1)/b of the slowest tail. A sampling choice, not an analytic
    result, so the oracle may share it."""
    return 40.0 * (params.a + n + 1) / params.b
