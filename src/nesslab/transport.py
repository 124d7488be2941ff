"""Steady-state energy transport through the field site.

The flux out of the left reservoir is a band integral of the occupation
difference ``g(t) = rho_diff(cos t)`` against a rational kernel in
``sin t``:

    J = (1/pi) integral_0^{pi/2} g(t) cos t sin^3 t / (sin^2 t + lam^2) dt.

Its field derivatives, taken under the integral sign, and the remainder of
the log split of the first derivative are integrals of the same ``g``
against kernels with higher powers of ``sin^2 t + lam^2``, and so is the
translation defect ``s(0, 2) - s(-1, 1)`` of the steady state, against
``cos t sin^2 t |lam| / (sin^2 t + lam^2)``.  All five are sampled once on
one graded Gauss-Kronrod mesh and certified together by the embedded Gauss
rule (``numerics.refine_panels``), so every value the module returns is
within the requested absolute tolerance or the call raises NonConvergence.
Built on them: entropy production, the explicit logarithmic term of the
derivative, and the regression estimate of the log-divergence coefficient
that marks the second-order transition at zero field, where the second
derivative has no limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ConsistencyError, UndefinedAtOrigin
from .model import ModelParams, ThermalConfig, planck_difference
from .numerics import QuadratureSpec, field_ratios, graded_mesh, refine_panels

_PI = math.pi
# smallest normal double; below it 1/|lam| overflows in the field kernels
_MIN_FIELD = sys.float_info.min
# fields of divergence_fit: two decades, decreasing
_FIT_GRID = np.geomspace(1e-3, 1e-5, 9)


@dataclass(frozen=True)
class FluxReport:
    """Flux observables at one operating point, with quadrature error budget.

    ``J_second`` is None at zero field, where the second derivative has no
    value; ``quadrature_error`` is the certified error estimate of the one
    evaluation behind ``J``, ``J_prime`` and ``J_second``, and bounds the
    quadrature error of each, and of ``F2`` and the translation defect,
    which the same evaluation gives.
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


def _flux_integrals(
    params: ModelParams, th: ThermalConfig, spec: QuadratureSpec | None
) -> tuple[FluxReport, float | None, float]:
    """The ``FluxReport`` at one operating point, ``F2`` of the log split and the defect.

    One sampling on one mesh, certified to ``spec.abs_tol``.  With
    ``s = sin t``, ``c = cos t`` and ``D = s^2 + lam^2`` on ``[0, pi/2]``,
    ``g`` is contracted against ``c s^3/D`` (``pi J``), ``c s^3/D^2``
    (``F1 + F2 = -(pi/2) J'/lam``), ``c s^3 (-2/D^2 + 8 lam^2/D^3)``
    (``pi J''``), ``F2`` is the quadrature of ``(g - f0) c s^3/D^2``
    itself, and ``c s^2 |lam|/D`` gives ``(pi/2) |s(0, 2) - s(-1, 1)|``;
    ``sigma = (beta_r - beta_l) J`` is formed here alone.  The kernels are
    written in the ratios ``p, q, e, r`` of ``numerics.field_ratios(s,
    |lam|)``, so no tiny ``lam`` or ``s`` is squared.  The mesh is graded
    toward ``t = 0`` from ``|lam|/8`` and toward ``pi/2`` from
    ``1/beta_r``; each family is weighted as its value enters a returned
    number (``1/pi``, ``2|lam|/pi``, ``1/pi``, ``1``, ``2/pi``), so the
    certified estimate, summation roundoff included, bounds the error of
    each.  The defect is signed by ``lam``, its zero included.

    Equal temperatures sample nothing: every value is zero.  Zero field
    contracts the flux kernel alone, ``J_second`` and ``F2`` are None and
    the defect is zero.  Below the smallest normal double, where
    ``1/|lam|`` overflows, the flux, ``F2`` and defect kernels are
    contracted at zero field, the defect's factor ``|lam|`` moving to its
    weight, and the derivatives follow from their exact log terms, ``J' =
    -(2 lam/pi)(F1 + F2)`` with ``F1 = -f0 (log|lam| + 1/2)`` and ``J'' =
    (2/pi)[f0 (log|lam| + 3/2) - F2]``; every value differs from that limit
    by ``O(lam^2 log|lam|)``, below 1e-600.
    """
    lam = params.lam
    f2 = second = None if lam == 0.0 else 0.0
    flux = slope = error = defect = 0.0
    if not th.is_equilibrium:
        spec = spec if spec is not None else QuadratureSpec()
        a = abs(lam)
        f0 = log_coefficient(th)
        subnormal = 0.0 < a < _MIN_FIELD
        field = 0.0 if subnormal else a  # of the kernels and the mesh
        if field != 0.0:
            weights = [1.0 / _PI, 2.0 / _PI * a, 1.0 / _PI, 1.0, 2.0 / _PI]
        else:
            weights = [1.0 / _PI, 1.0, 2.0 / _PI * a][: 1 + 2 * subnormal]

        def sample(t):
            s, c = np.sin(t), np.cos(t)
            g = planck_difference(th, c)
            p, q, e, r = field_ratios(s, field)  # r = D / p^2
            gcsq = g * c * s * q
            families = [gcsq * q / r]  # c s^3 / D
            if lam != 0.0:
                k1 = c * q**3 / (p * r * r)  # c s^3 / D^2
                if field != 0.0:
                    families += [g * k1, g * k1 * (8.0 * e * e / r - 2.0)]
                # the defect c s^2 |lam| / D = c s q e / r; its factor |lam|
                # leaves the kernel for the weight at a subnormal field
                families += [(g - f0) * k1, gcsq * e / r if field != 0.0 else g * c]
            return np.array(families), None

        edges = graded_mesh(field, th.beta_r, 0.5 * _PI)
        what = f"flux integrals at lam={lam!r}"
        values, error, _ = refine_panels(sample, edges, np.array(weights)[:, None], spec, what)
        if lam == 0.0:
            flux = float(values[0, 0]) / _PI
        else:
            if subnormal:
                flux, f2, defect = (float(v) for v in values[:, 0])
                log_a = math.log(a)
                total = f2 - f0 * (log_a + 0.5)
                second = 2.0 * (f0 * (log_a + 1.5) - f2)
            else:
                flux, total, second, f2, defect = (float(v) for v in values[:, 0])
            flux, slope, second = flux / _PI, -(2.0 / _PI) * (lam * total), second / _PI
            defect = (2.0 / _PI) * defect * (a if subnormal else 1.0)
    sigma = (th.beta_r - th.beta_l) * flux
    report = FluxReport(flux, sigma, slope, second, error, params, th)
    return report, f2, math.copysign(defect, lam)


_DEFAULT_SPEC = QuadratureSpec()
# (params, th, spec, (report, f2, defect)) of the latest sampling, replaced whole
_latest: tuple = (None, None, None, None)


def _sampled(
    params: ModelParams, th: ThermalConfig, spec: QuadratureSpec | None
) -> tuple[FluxReport, float | None, float]:
    """``_flux_integrals``, sampled once for consecutive reads of one point.

    Returns the held result when ``params`` and ``th`` are the very objects
    of the latest sampling and the resolved ``spec`` is equal; otherwise
    samples and holds the new result in place of the old.  One entry and
    one tuple assignment (``docs/decisions.md`` entry 4); a sampling that
    raises holds nothing.
    """
    global _latest
    spec = _DEFAULT_SPEC if spec is None else spec
    held = _latest
    if held[0] is params and held[1] is th and held[2] == spec:
        return held[3]
    result = _flux_integrals(params, th, spec)
    _latest = (params, th, spec, result)
    return result


def heat_flux(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Energy flux from the left reservoir into the chain.

    ``J = (1/pi) integral_0^{pi/2} rho_diff(cos t) cos t sin^3 t /
    (sin^2 t + lam^2) dt``, the momentum form of half the band average of
    the current density ``e sqrt(1-e^2) rho_diff(e)`` times the
    transmission suppression of the field; certified to ``spec.abs_tol``
    together with its field derivatives (see ``flux_report``).  Positive
    when the left reservoir is the hotter one, zero at equal temperatures,
    even in the field strength, and independent of the sample half-width.
    Consecutive reads at one operating point share one sampling.
    """
    return _sampled(params, th, spec)[0].J


def entropy_production(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Entropy production rate ``(beta_r - beta_l) * heat_flux``; nonnegative.

    Consecutive reads at one operating point share one sampling.
    """
    return _sampled(params, th, spec)[0].sigma


def flux_derivative(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Derivative of the flux in the field strength; odd, zero at zero field.

    ``-(2 lam / pi) integral_0^{pi/2} rho_diff(cos t) cos t sin^3 t /
    (sin^2 t + lam^2)^2 dt``, from the same certified evaluation as
    ``heat_flux``; ``-(pi/2) J'/lam`` is the sum ``F1 + F2`` of
    ``log_decomposition``.  Consecutive reads at one operating point share
    one sampling.
    """
    return _sampled(params, th, spec)[0].J_prime


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
    zero-field remainder of ``log_decomposition``.  Consecutive reads at one
    operating point share one sampling.
    """
    if params.lam == 0.0:
        raise UndefinedAtOrigin(
            "second flux derivative has no value at zero field strength"
        )
    return _sampled(params, th, spec)[0].J_second


def ti_commutator_element(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Closed form of ``s(0, 2) - s(-1, 1)`` as a single momentum integral.

    ``lam * integral dk/2pi cos(k) rho_diff(cos k) corr(lam, cos k)``; real,
    and zero whenever ``lam = 0`` or the reservoirs agree.  The integrand is
    even in ``k`` and invariant under ``k -> pi - k``, which leaves
    ``(2 lam/pi) integral_0^{pi/2} rho_diff(cos t) cos t sin^2 t /
    (sin^2 t + lam^2) dt``, a sum of one sign at every field and a row of
    the flux integrals, certified with them; consecutive reads at one
    operating point share one sampling.  ``ness.ti_commutator_direct`` is
    the independent route through the two matrix elements.
    """
    return _sampled(params, th, spec)[2]


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

    ``planck_difference`` at ``e = 1``, exact to a few ulps.  It multiplies
    ``-log|lam|`` in ``F1`` of the log split, so the scaled derivative
    ``flux_derivative / lam`` diverges like ``(2/pi) f0 log|lam|``.
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
    ``-(pi/2) flux_derivative / lam``.  ``F2`` comes from the flux readers'
    sampling, which consecutive reads at one operating point share.
    """
    lam = params.lam
    if lam == 0.0:
        raise UndefinedAtOrigin("log split needs a nonzero field strength")
    a = abs(lam)
    f0 = log_coefficient(th)
    # log|lam| - log(1+lam^2)/2, in a form where neither lam^2 nor 1/lam^2 overflows
    if a <= 1.0:
        log_ratio = math.log(a) - 0.5 * math.log1p(a * a)
    else:
        log_ratio = -0.5 * math.log1p(1.0 / (a * a))
    f1 = -f0 * log_ratio - 0.5 * f0 / (1.0 + a * a)
    _, f2, _ = _sampled(params, th, spec)
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
    spec: QuadratureSpec | None = None,
) -> DivergenceFit:
    """Fit the slope of ``flux_derivative / lam`` against ``log lam``.

    Nine fields, geometric and decreasing from 1e-3 to 1e-5, where the
    ratio is linear in ``log lam`` up to ``O(lam^2 log|lam|)``.
    """
    ratios = np.array(
        [flux_derivative(ModelParams(float(lam)), th, spec) / lam for lam in _FIT_GRID]
    )
    logs = np.log(_FIT_GRID)
    slope, intercept = np.polyfit(logs, ratios, 1)
    fitted = slope * logs + intercept
    residual = float(np.sqrt(np.mean((ratios - fitted) ** 2)))
    c_theory = (2.0 / _PI) * log_coefficient(th)
    if c_theory != 0.0:
        rel = abs(slope - c_theory) / c_theory
    else:
        rel = abs(float(slope))
    return DivergenceFit(
        lambda_grid=tuple(float(x) for x in _FIT_GRID),
        ratios=tuple(float(r) for r in ratios),
        C_fit=float(slope),
        C_theory=float(c_theory),
        intercept=float(intercept),
        residual=residual,
        rel_error=float(rel),
    )


def flux_report(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> FluxReport:
    """Bundle flux, entropy production, and field derivatives at one point.

    One certified evaluation, the same that ``heat_flux``,
    ``entropy_production``, ``flux_derivative``, ``flux_second_derivative``,
    ``log_decomposition`` and ``ti_commutator_element`` read.  Consecutive
    reads at one operating point share one sampling: a reader called with
    the very ``params`` and ``th`` objects of the latest sampling and an
    equal ``spec`` (``None`` and the default are equal) returns its values
    without sampling again.
    """
    return _sampled(params, th, spec)[0]
