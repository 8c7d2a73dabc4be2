"""Exact intertwining-operator hierarchies for a charged particle in a
cylindrical 1/rho magnetic field, with independent finite-difference checks.

The scalar (nonrelativistic) and matrix (relativistic) radial problems are
solved in closed form inside an exact algebra of exponential-polynomial
functions; the oracle module discretizes the same operators from scratch and
confirms every eigenvalue and eigenfunction numerically.
"""

from .errors import (ContextMismatch, DegenerateDenominator, DivergentIntegral,
                     DomainError, GridTooCoarse, LadderError, LevelCapExceeded,
                     NegativeRadicand, NoBoundStates, NonFiniteSample, PrecisionLoss,
                     TailNotDecayed)
from .expalg import ExpoPoly
from .params import DiracParams, NRParams, PhysicalParams

__version__ = "0.1.0"

__all__ = [
    "ContextMismatch", "DegenerateDenominator", "DivergentIntegral",
    "DomainError", "GridTooCoarse", "LadderError",
    "LevelCapExceeded", "NegativeRadicand", "NoBoundStates", "NonFiniteSample",
    "PrecisionLoss", "TailNotDecayed",
    "ExpoPoly",
    "DiracParams", "NRParams", "PhysicalParams",
    "__version__",
]
