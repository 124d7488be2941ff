"""Error types shared across the package.

ValueError subclasses mark requests the caller could have known were bad
(domains, windows, resources); RuntimeError subclasses mark numerical
trouble discovered while computing.
"""


class InvalidInterval(ValueError):
    """Integration interval is empty, reversed, or breakpoints fall outside it."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class NoBoundState(ValueError):
    """Point spectrum is empty; there is no bound state at zero field."""


class WindowTooLarge(ValueError):
    """Requested correlation window exceeds the supported size."""


class UndefinedAtOrigin(ValueError):
    """Quantity does not exist at zero field strength."""


class IllConditioned(ValueError):
    """Fit grid too narrow to determine the regression slope."""


class TimeHorizonExceeded(ValueError):
    """Evolution time long enough for boundary reflections to reach the probe sites."""


class ResourceLimit(RuntimeError):
    """Dense truncation would exceed the configured memory budget."""


class NonConvergence(RuntimeError):
    """Quadrature exhausted its subdivision budget above the requested tolerance.

    Raised by ``adaptive_integrate`` and by the certified panel families of
    ``refine_panels`` (band moments, flux integrals, the bound-state
    weight), also when an error estimate is not finite.
    """


class ConsistencyError(RuntimeError):
    """Two independent evaluation routes disagree beyond tolerance."""
