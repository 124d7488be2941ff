"""Steady-state energy transport through the field site.

The flux out of the left reservoir has a closed momentum-space form: half
the band average of the current density ``j(e) = e sqrt(1-e^2) rho_diff(e)``
times the transmission suppression of the field.  Everything else here is
built from that integral: entropy production, the first and second
derivatives in the field strength, the split of the derivative into an
explicit logarithmic term plus a bounded remainder, and the regression
estimate of the log-divergence coefficient that marks the second-order
transition at zero field.

Derivatives in the field strength are taken under the integral sign, which
is legitimate away from zero field; the second derivative has no limit at
the origin, where the suppression factor loses differentiability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConsistencyError, IllConditioned, UndefinedAtOrigin
from .model import ModelParams, ThermalConfig, planck_density, planck_difference
from .numerics import QuadratureSpec, adaptive_integrate, with_breakpoints
from .scattering import magnetic_correction

_PI = math.pi

# Below this field strength the momentum-domain derivative integrand grows
# twin peaks at k = 0 and k = pi; the arcsin-domain route pins the spike at
# x = 0 and stays cheap, so the cross-check is skipped there.
_CROSS_CHECK_MIN_LAM = 1e-3
_CROSS_CHECK_TOL = 1e-9


def _current_density(th: ThermalConfig, e: float) -> float:
    return e * math.sqrt(max(0.0, 1.0 - e * e)) * planck_difference(th, e)


def _flux_momentum(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec):
    def integrand(k: float) -> float:
        e = math.cos(k)
        return 0.5 * _current_density(th, e) * magnetic_correction(params.lam, e)

    res = adaptive_integrate(integrand, -_PI, _PI, with_breakpoints(spec, 0.0))
    scale = 1.0 / (2.0 * _PI)
    return res.value * scale, res.error_estimate * scale


def _flux_energy(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec):
    def integrand(e: float) -> float:
        return e * planck_difference(th, e) * magnetic_correction(params.lam, e)

    res = adaptive_integrate(integrand, 0.0, 1.0, with_breakpoints(spec))
    return res.value / _PI, res.error_estimate / _PI


def _flux_arcsin(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec) -> float:
    # same substitution as the derivative: the width-lam feature moves to
    # the endpoint x = 0, where the subdivision bisects geometrically
    lam2 = params.lam * params.lam

    def integrand(x: float) -> float:
        return _thermal_profile(th, x) * x**3 / (x * x + lam2)

    return adaptive_integrate(integrand, 0.0, 1.0, with_breakpoints(spec)).value / _PI


def _flux_value(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec):
    """Flux with its error estimate, dual-route checked, small fields rerouted.

    At and above the 1e-3 field threshold the momentum form is returned and
    the energy form is the check.  Below it the momentum integrand develops
    width-``lam`` dips at the band edges that defeat the quadrature's
    roundoff control, so the energy form is returned and the arcsin
    substitution is the check.
    """
    small = params.lam != 0.0 and abs(params.lam) < _CROSS_CHECK_MIN_LAM
    if small:
        value, err = _flux_energy(params, th, spec)
        other = _flux_arcsin(params, th, spec)
    else:
        value, err = _flux_momentum(params, th, spec)
        other, _ = _flux_energy(params, th, spec)
    tol = 10.0 * spec.abs_tol
    if abs(value - other) > tol:
        raise ConsistencyError(
            f"flux quadratures disagree: {value!r} against cross-check {other!r}, "
            f"tolerance {tol!r}"
        )
    return value, err


def heat_flux(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Energy flux from the left reservoir into the chain.

    Momentum form ``1/2 integral dk/2pi j(cos k) corr(lam, cos k)`` split at
    the k = 0 kink, cross-checked against the energy-domain form
    ``1/pi integral_0^1 e rho_diff(e) corr(lam, e) de``; the two must agree
    within ten times the absolute tolerance.  Fields below 1e-3 in magnitude
    return the energy form checked against an arcsin-substituted variant
    instead, the momentum integrand being numerically intractable there.
    Positive when the left reservoir is the hotter one, zero at equal
    temperatures, even in the field strength, and independent of the sample
    half-width.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if th.is_equilibrium:
        return 0.0
    value, _ = _flux_value(params, th, spec)
    return value


def entropy_production(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Entropy production rate ``(beta_r - beta_l) * heat_flux``; nonnegative."""
    return (th.beta_r - th.beta_l) * heat_flux(params, th, spec)


def _thermal_profile(th: ThermalConfig, x: float) -> float:
    # rho_diff along the band parametrized by x = sin k
    return planck_difference(th, math.sqrt(max(0.0, 1.0 - x * x)))


def _derivative_arcsin(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec):
    lam = params.lam
    lam2 = lam * lam

    def integrand(x: float) -> float:
        den = x * x + lam2
        return _thermal_profile(th, x) * x**3 / (den * den)

    res = adaptive_integrate(integrand, 0.0, 1.0, with_breakpoints(spec))
    scale = 2.0 * lam / _PI
    return -scale * res.value, abs(scale) * res.error_estimate


def _derivative_momentum(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec) -> float:
    lam = params.lam
    lam2 = lam * lam

    def integrand(k: float) -> float:
        s = math.sin(k)
        den = s * s + lam2
        return math.cos(k) * planck_difference(th, math.cos(k)) * s**3 / (den * den)

    value = adaptive_integrate(integrand, 0.0, 0.5 * _PI, with_breakpoints(spec)).value
    return -2.0 * lam / _PI * value


def flux_derivative(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Derivative of the flux in the field strength; odd, zero at zero field.

    Returned from the arcsin-domain form
    ``-(2 lam / pi) integral_0^1 rho_diff(sqrt(1-x^2)) x^3 / (x^2+lam^2)^2 dx``,
    whose integrand pins its small-field spike at x = 0.  For field strengths
    of at least 1e-3 in magnitude the momentum-domain form is also computed
    and must agree within 1e-9.
    """
    spec = spec if spec is not None else QuadratureSpec()
    lam = params.lam
    if lam == 0.0 or th.is_equilibrium:
        return 0.0
    value, _ = _derivative_arcsin(params, th, spec)
    if abs(lam) >= _CROSS_CHECK_MIN_LAM:
        other = _derivative_momentum(params, th, spec)
        if abs(value - other) > _CROSS_CHECK_TOL:
            raise ConsistencyError(
                f"flux-derivative quadratures disagree: arcsin {value!r}, "
                f"momentum {other!r}, tolerance {_CROSS_CHECK_TOL!r}"
            )
    return value


def _second_derivative(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec):
    lam2 = params.lam * params.lam

    def integrand(k: float) -> float:
        s = math.sin(k)
        den = s * s + lam2
        kernel = -2.0 / (den * den) + 8.0 * lam2 / (den * den * den)
        return math.cos(k) * s**3 * planck_difference(th, math.cos(k)) * kernel

    res = adaptive_integrate(integrand, 0.0, 0.5 * _PI, with_breakpoints(spec))
    return res.value / _PI, res.error_estimate / _PI


def flux_second_derivative(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Second derivative of the flux in the field strength, for nonzero field.

    Quadrature of the field-differentiated momentum integrand.  Diverges
    logarithmically as the field strength approaches zero, so the origin
    itself raises UndefinedAtOrigin: the flux is C^1 but not C^2 there.
    Near zero field it follows the two-term asymptote
    ``(2/pi)[f0 (log|lam| + 3/2) - F2(0)] + O(lam^2 log|lam|)``, with ``f0``
    from ``log_coefficient`` and ``F2(0) = integral_0^1 (f(x) - f0)/x dx`` the
    zero-field remainder of ``log_decomposition``.
    """
    if params.lam == 0.0:
        raise UndefinedAtOrigin(
            "second flux derivative has no value at zero field strength"
        )
    spec = spec if spec is not None else QuadratureSpec()
    value, _ = _second_derivative(params, th, spec)
    return value


@dataclass(frozen=True)
class LogDecomposition:
    """Split of the scaled flux derivative into log term plus bounded rest.

    ``F1`` carries the explicit ``-f0 log|lam|`` divergence with its exact
    field-dependent completion; ``F2`` is the remainder integral, bounded
    by ``c_bound`` uniformly in the field strength.
    """

    F1: float
    F2: float
    f0: float
    c_bound: float

    def __post_init__(self) -> None:
        if abs(self.F2) > self.c_bound * (1.0 + 1e-12) + 1e-15:
            raise ConsistencyError(
                f"remainder {self.F2!r} exceeds its uniform bound {self.c_bound!r}"
            )


def log_coefficient(th: ThermalConfig) -> float:
    """Occupation difference at the band edge, ``rho_diff(1)``.

    Equals ``sinh(delta) / (cosh(delta) + cosh(beta_mean))`` and multiplies
    ``-log|lam|`` in ``F1`` of the log split; the scaled derivative
    ``flux_derivative / lam`` therefore diverges like ``(2/pi) f0 log|lam|``.
    """
    return planck_difference(th, 1.0)


def remainder_bound(th: ThermalConfig) -> float:
    """Uniform bound on the remainder term of the log split."""
    d, m = th.delta, th.beta_mean
    return 0.25 * (d + d * math.cosh(d) * math.cosh(m) + m * math.sinh(d) * math.sinh(m))


def log_decomposition(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> LogDecomposition:
    """Decompose the scaled flux derivative near zero field.

    With ``f(x) = rho_diff(sqrt(1-x^2))`` and ``f0 = f(0)``:
    ``F1 = -f0 log|lam| - (f0/2)(1/(1+lam^2) - log(1+lam^2))`` is the closed
    form of ``f0 integral_0^1 x^3/(x^2+lam^2)^2 dx``, and
    ``F2 = integral_0^1 (f(x) - f0) x^3/(x^2+lam^2)^2 dx`` is quadratured.
    Their sum is the full derivative integral, so ``F1 + F2`` equals
    ``-(pi/2) flux_derivative / lam``.
    """
    lam = params.lam
    if lam == 0.0:
        raise UndefinedAtOrigin("log split needs a nonzero field strength")
    spec = spec if spec is not None else QuadratureSpec()
    lam2 = lam * lam
    f0 = log_coefficient(th)
    f1 = -f0 * math.log(abs(lam)) - 0.5 * f0 * (1.0 / (1.0 + lam2) - math.log1p(lam2))

    def integrand(x: float) -> float:
        den = x * x + lam2
        return (_thermal_profile(th, x) - f0) * x**3 / (den * den)

    f2 = adaptive_integrate(integrand, 0.0, 1.0, with_breakpoints(spec)).value
    return LogDecomposition(F1=f1, F2=f2, f0=f0, c_bound=remainder_bound(th))


@dataclass(frozen=True)
class DivergenceFit:
    """Regression estimate of the log-divergence coefficient near zero field.

    ``C_fit`` is the slope of ``flux_derivative / lam`` against ``log lam``
    over a decreasing geometric grid; ``C_theory`` is its closed-form value
    ``(2/pi)(rho_{beta_l}(1) - rho_{beta_r}(1)) = (2/pi) f0`` for this
    package's flux (``docs/decisions.md``); ``rel_error`` compares the two
    (relative when ``C_theory`` is nonzero, absolute otherwise);
    ``residual`` is the rms misfit of the regression line.
    """

    lambda_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    C_fit: float
    C_theory: float
    intercept: float
    residual: float
    rel_error: float


def divergence_fit(
    th: ThermalConfig,
    lambda_min: float = 1e-5,
    lambda_max: float = 1e-3,
    n_samples: int = 9,
    spec: QuadratureSpec | None = None,
) -> DivergenceFit:
    """Fit the slope of ``flux_derivative / lam`` against ``log lam``.

    Grid is geometric and decreasing from ``lambda_max`` to ``lambda_min``;
    both must sit in (0, 1e-2] and span at least one decade, with at least
    four samples, or the regression of a logarithm is meaningless.
    """
    if not (0.0 < lambda_min < lambda_max <= 1e-2):
        raise ValueError(
            f"need 0 < lambda_min < lambda_max <= 1e-2, got [{lambda_min}, {lambda_max}]"
        )
    if n_samples < 4:
        raise ValueError(f"need at least 4 samples, got {n_samples}")
    if math.log10(lambda_max / lambda_min) < 1.0:
        raise IllConditioned(
            f"grid [{lambda_min}, {lambda_max}] spans less than one decade; "
            "the intercept absorbs the slope"
        )
    grid = np.geomspace(lambda_max, lambda_min, int(n_samples))
    ratios = np.array(
        [flux_derivative(ModelParams(float(lam)), th, spec) / lam for lam in grid]
    )
    logs = np.log(grid)
    slope, intercept = np.polyfit(logs, ratios, 1)
    fitted = slope * logs + intercept
    residual = float(np.sqrt(np.mean((ratios - fitted) ** 2)))
    c_theory = (2.0 / _PI) * (
        planck_density(th.beta_l, 1.0) - planck_density(th.beta_r, 1.0)
    )
    if c_theory != 0.0:
        rel = abs(slope - c_theory) / c_theory
    else:
        rel = abs(float(slope))
    return DivergenceFit(
        lambda_grid=tuple(float(x) for x in grid),
        ratios=tuple(float(r) for r in ratios),
        C_fit=float(slope),
        C_theory=float(c_theory),
        intercept=float(intercept),
        residual=residual,
        rel_error=float(rel),
    )


@dataclass(frozen=True)
class FluxReport:
    """Flux observables at one operating point, with quadrature error budget.

    ``J_second`` is None at zero field, where the second derivative has no
    value; ``quadrature_error`` sums the error estimates of the constituent
    integrals.
    """

    J: float
    sigma: float
    J_prime: float
    J_second: float | None
    quadrature_error: float
    params: ModelParams
    thermal: ThermalConfig

    def to_dict(self) -> dict:
        return {
            "J": self.J,
            "sigma": self.sigma,
            "J_prime": self.J_prime,
            "J_second": self.J_second,
            "quadrature_error": self.quadrature_error,
            "params": {"lambda": self.params.lam, "nu": self.params.nu},
            "thermal": {"beta_l": self.thermal.beta_l, "beta_r": self.thermal.beta_r},
        }


def flux_report(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> FluxReport:
    """Bundle flux, entropy production, and field derivatives at one point."""
    spec = spec if spec is not None else QuadratureSpec()
    if th.is_equilibrium:
        j, j_err = 0.0, 0.0
        jp, jp_err = 0.0, 0.0
    else:
        j, j_err = _flux_value(params, th, spec)
        if params.lam == 0.0:
            jp, jp_err = 0.0, 0.0
        else:
            jp, jp_err = _derivative_arcsin(params, th, spec)
    if params.lam == 0.0:
        jpp, jpp_err = None, 0.0
    else:
        jpp, jpp_err = _second_derivative(params, th, spec)
    return FluxReport(
        J=j,
        sigma=(th.beta_r - th.beta_l) * j,
        J_prime=jp,
        J_second=jpp,
        quadrature_error=j_err + jp_err + jpp_err,
        params=params,
        thermal=th,
    )
