"""Closed-form steady-state two-point function of the driven chain.

``s_element`` assembles one matrix element from the band overlap and the
bound-state weight; ``correlation_block`` fills a finite window using
self-adjointness of the two-point operator.  ``ti_commutator_element`` gives
the closed-form momentum integral for the difference ``s(0,2) - s(-1,1)``,
which vanishes without driving or without the field and is the cheapest
witness that the driven steady state breaks translation invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConsistencyError, WindowTooLarge
from .model import ModelParams, ThermalConfig, bound_state
from .numerics import QuadratureSpec
from .scattering import (
    ZERO_FIELD_FLOOR,
    band_moments,
    overlap_frequencies,
    pp_weight,
)

MAX_WINDOW_SITES = 512


def _elements(params: ModelParams, th: ThermalConfig, x, y, spec: QuadratureSpec | None):
    """Steady-state correlations ``s(x, y)`` for integer arrays of sites.

    The band overlap from one set of band moments, with every frequency the
    pairs read, plus the bound-state term.  Below ``ZERO_FIELD_FLOOR`` the
    bound term is under |lam| * weight < 1e-14 and the band part already
    dropped its scattered terms.
    """
    value = band_moments(params.lam, th, overlap_frequencies(x, y), spec).overlap(x, y)
    if abs(params.lam) >= ZERO_FIELD_FLOOR:
        amp = bound_state(params.lam).amplitude
        value = value + pp_weight(params, th, spec) * amp(x) * amp(y)
    return value


def s_element(
    params: ModelParams,
    th: ThermalConfig,
    x: int,
    y: int,
    spec: QuadratureSpec | None = None,
) -> complex:
    """Steady-state correlation ``(e_x, S e_y)`` for sites ``x, y``."""
    return complex(_elements(params, th, x, y, spec))


@dataclass(frozen=True, eq=False)
class CorrelationBlock:
    """Window ``[lo, hi]`` of the steady-state two-point matrix."""

    lo: int
    hi: int
    params: ModelParams
    thermal: ThermalConfig
    matrix: np.ndarray

    @property
    def sites(self) -> range:
        return range(self.lo, self.hi + 1)

    def value(self, x: int, y: int) -> complex:
        if not (self.lo <= x <= self.hi and self.lo <= y <= self.hi):
            raise IndexError(f"site pair ({x}, {y}) outside window [{self.lo}, {self.hi}]")
        return complex(self.matrix[x - self.lo, y - self.lo])

    def to_dict(self) -> dict:
        return {
            "window": [self.lo, self.hi],
            "params": {"lambda": self.params.lam, "nu": self.params.nu},
            "thermal": {"beta_l": self.thermal.beta_l, "beta_r": self.thermal.beta_r},
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }


def correlation_block(
    params: ModelParams,
    th: ThermalConfig,
    lo: int,
    hi: int,
    spec: QuadratureSpec | None = None,
) -> CorrelationBlock:
    """Fill the window ``[lo, hi]`` of the steady-state matrix.

    The band part of the upper triangle comes from one set of band moments,
    with every frequency the window reads; the lower triangle is its exact
    conjugate, ``s(y, x) = conj(s(x, y))``.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"window bounds out of order: [{lo}, {hi}]")
    n = hi - lo + 1
    if n > MAX_WINDOW_SITES:
        raise WindowTooLarge(
            f"window of {n} sites exceeds the {MAX_WINDOW_SITES}-site cap; "
            "the cost of its band moments grows with the square of the window"
        )
    sites = np.arange(lo, hi + 1)
    i, j = np.triu_indices(n)
    matrix = np.zeros((n, n), dtype=np.complex128)
    # frequencies up to 2 max(|lo|, |hi|)
    matrix[i, j] = _elements(params, th, sites[i], sites[j], spec)
    matrix += np.triu(matrix, 1).conj().T
    return CorrelationBlock(lo=lo, hi=hi, params=params, thermal=th, matrix=matrix)


def ti_commutator_element(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
    verify: bool = False,
) -> float:
    """Closed form of ``s(0, 2) - s(-1, 1)`` as a single momentum integral.

    ``lam * integral dk/2pi cos(k) rho_diff(cos k) corr(lam, cos k)``; real,
    and zero whenever ``lam = 0`` or the reservoirs agree.  With
    ``verify=True`` the two matrix elements are also assembled from band
    moments and the difference is checked against the closed form.
    """
    spec = spec if spec is not None else QuadratureSpec()
    lam = params.lam
    # below the floor the integral is bounded by |lam| itself
    if abs(lam) < ZERO_FIELD_FLOOR or th.is_equilibrium:
        fast = 0.0
    else:
        # corr = 1 - lam^2/(sin^2 + lam^2) splits the integral (even in k)
        # into the m = 1 plane moments and the m = 1 kernel moments, weighted
        # by lam/pi and lam^3/pi; band_moments certifies them at 1/2pi and
        # 3 lam^2/2pi per reservoir, so a target of abs_tol/(2 max(1, |lam|))
        # keeps the difference under abs_tol.
        moments_spec = replace(spec, abs_tol=0.5 * spec.abs_tol / max(1.0, abs(lam)))
        moments = band_moments(lam, th, [1], moments_spec)
        plain = (moments.plane[0, 0] - moments.plane[1, 0]).real
        kernel = (moments.kernel[0, 0] - moments.kernel[1, 0]).real
        fast = (lam * plain - lam**3 * kernel) / math.pi

    if verify:
        direct = ti_commutator_direct(params, th, spec)
        tol = max(1e-10, 10.0 * spec.abs_tol)
        if abs(direct - fast) > tol:
            raise ConsistencyError(
                f"translation defect mismatch: closed form {fast!r}, "
                f"matrix elements give {direct!r}, tolerance {tol!r}"
            )
    return fast


def ti_commutator_direct(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """``s(0, 2) - s(-1, 1)`` assembled from the two matrix elements."""
    diff = s_element(params, th, 0, 2, spec) - s_element(params, th, -1, 1, spec)
    return diff.real
