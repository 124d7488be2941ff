"""Error types shared across the package.

ValueError subclasses mark requests the caller could have known were bad
(domains, windows, time horizons); RuntimeError subclasses mark numerical
trouble discovered while computing.
"""


class InvalidInterval(ValueError):
    """Integration interval is empty, reversed, or not of finite length."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class NoBoundState(ValueError):
    """Point spectrum is empty; there is no bound state at zero field."""


class WindowTooLarge(ValueError):
    """Requested correlation window exceeds the supported size."""


class UndefinedAtOrigin(ValueError):
    """Quantity does not exist at zero field strength."""


class TimeHorizonExceeded(ValueError):
    """Evolution time long enough for boundary reflections to reach the probe sites."""


class NonConvergence(RuntimeError):
    """Quadrature exhausted its subdivision budget above the requested tolerance.

    Raised by ``numerics.refine_panels`` for every integral it certifies:
    band moments, flux integrals, the bound-state weight, the translation
    defect and the integrand of ``adaptive_integrate``; also when an error
    estimate is not finite or its summation roundoff reaches the tolerance.
    """


class ConsistencyError(RuntimeError):
    """Two independent evaluation routes disagree beyond tolerance."""
