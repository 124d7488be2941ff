"""Numerical laboratory for the steady state of a driven chain with a one-site field.

Closed-form steady-state correlations, heat flux, entropy production, and
the log-divergence of the flux derivative at zero field, all checked
against an exact finite-lattice evolution oracle.
"""

from .exceptions import (
    ConsistencyError,
    DomainError,
    InvalidInterval,
    NoBoundState,
    NonConvergence,
    TimeHorizonExceeded,
    UndefinedAtOrigin,
    WindowTooLarge,
)
from .model import (
    BoundState,
    ModelParams,
    OperatorKind,
    ThermalConfig,
    bound_state,
    operator_stencil,
    planck_density,
    planck_difference,
)
from .ness import (
    CorrelationBlock,
    correlation_block,
    s_element,
    ti_commutator_direct,
)
from .numerics import (
    QuadratureResult,
    QuadratureSpec,
    adaptive_integrate,
    geometric_sine_sum,
)
from .scattering import (
    ac_overlap,
    magnetic_correction,
    pp_weight,
    wave_action,
)
from .transport import (
    DivergenceFit,
    FluxReport,
    LogDecomposition,
    divergence_fit,
    entropy_production,
    flux_derivative,
    flux_report,
    flux_second_derivative,
    heat_flux,
    log_coefficient,
    log_decomposition,
    remainder_bound,
    ti_commutator_element,
)

__version__ = "0.1.0"

# the lattice oracle's names, loaded from nesslab.oracle on first use, so a
# process that runs the closed forms alone never compiles that module
_ORACLE_NAMES = frozenset(
    {
        "EvolutionTrace",
        "TruncatedSystem",
        "build_truncation",
        "evolve_with_state",
        "initial_two_point",
        "ness_estimate",
        "numeric_wave_action",
        "oracle_flux",
    }
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundState",
    "ConsistencyError",
    "CorrelationBlock",
    "DivergenceFit",
    "DomainError",
    "EvolutionTrace",
    "FluxReport",
    "InvalidInterval",
    "LogDecomposition",
    "ModelParams",
    "NoBoundState",
    "NonConvergence",
    "OperatorKind",
    "QuadratureResult",
    "QuadratureSpec",
    "ThermalConfig",
    "TimeHorizonExceeded",
    "TruncatedSystem",
    "UndefinedAtOrigin",
    "WindowTooLarge",
    "ac_overlap",
    "adaptive_integrate",
    "bound_state",
    "build_truncation",
    "correlation_block",
    "divergence_fit",
    "entropy_production",
    "evolve_with_state",
    "flux_derivative",
    "flux_report",
    "flux_second_derivative",
    "geometric_sine_sum",
    "heat_flux",
    "initial_two_point",
    "log_coefficient",
    "log_decomposition",
    "magnetic_correction",
    "ness_estimate",
    "numeric_wave_action",
    "operator_stencil",
    "oracle_flux",
    "planck_density",
    "planck_difference",
    "pp_weight",
    "remainder_bound",
    "s_element",
    "ti_commutator_element",
    "ti_commutator_direct",
    "wave_action",
]
