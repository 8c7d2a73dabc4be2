"""Parameter records for the two hierarchies and their physical-unit source.

These are plain immutable records with the derived-parameter maps. They carry
no construction machinery, so the finite-difference oracle can depend on them
without touching the symbolic ladder code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoBoundStates


def _require_finite(record) -> None:
    for name, value in vars(record).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class NRParams:
    """Dimensionless parameters of the scalar radial problem.

    a parameterizes the centrifugal strength a(a+1), b the attractive 1/rho
    coefficient. Bound states require both positive.
    """

    a: float
    b: float

    def __post_init__(self):
        _require_finite(self)
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")


@dataclass(frozen=True)
class DiracParams:
    """Dimensionless parameters of the matrix radial problem.

    a is the 1/rho matrix coefficient, b the off-centrifugal strength, d0 the
    level-zero constant of the sigma_3 channel and mbar the reduced mass mc/hbar.
    """

    a: float
    b: float
    d0: float
    mbar: float

    def __post_init__(self):
        _require_finite(self)
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.mbar < 0:
            raise ValueError(f"mbar must be nonnegative, got {self.mbar}")


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-unit inputs: hbar, mass, light speed, charge, field constant
    k, longitudinal momentum p_z, and the angular-momentum eigenvalue ell."""

    hbar: float
    m: float
    c: float
    e: float
    k: float
    pz: float
    ell: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("hbar", "m", "c", "e"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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


def default_rho_max(params, n: int) -> float:
    """Sampling window for levels up to n of either hierarchy: forty decay
    lengths (a+n+1)/b of the slowest tail. A sampling choice, not an analytic
    result, so the oracle may share it."""
    return 40.0 * (params.a + n + 1) / params.b
