"""Exception types shared across the package."""


class LadderError(Exception):
    """Base class for all errors raised by susy_ladder."""


class ContextMismatch(LadderError):
    """Two exponential-polynomial values with different (a, b) contexts were mixed."""


class DomainError(LadderError):
    """A function was evaluated outside its domain: at a point that is not
    finite and positive (rho <= 0, inf or NaN), or over a window (0, rho_max]
    whose end is not finite and positive."""


class DivergentIntegral(LadderError):
    """A closed-form integral has a non-integrable power or a non-decaying rate."""


class NoBoundStates(LadderError):
    """Bound-state quantities requested in a regime with no bound spectrum (p_z * k <= 0)."""


class NegativeRadicand(LadderError):
    """Relativistic energy radicand is negative; parameters are outside the physical regime."""


class GridTooCoarse(LadderError):
    """The oracle's Ritz values did not converge: halving the Laguerre basis
    changed the count inside the window or moved a value by more than
    oracle.SHIFT_BOUND of itself."""


class TailNotDecayed(LadderError):
    """Quadrature requested on a grid that does not capture the exponential tail."""


class PrecisionLoss(LadderError):
    """Chain coefficients have left their Laguerre closed form to float
    roundoff, so the closed-form norm no longer applies to them."""


class LevelCapExceeded(LadderError):
    """More eigenfunction levels were requested than the sampling window holds."""


class NonFiniteSample(LadderError):
    """A table column holds a sample that is not finite: its window reaches
    past what a float can hold."""
