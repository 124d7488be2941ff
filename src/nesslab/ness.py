"""Closed-form steady-state two-point function of the driven chain.

``s_element`` assembles one matrix element from the band overlap and the
bound-state weight, both from one certified sampling; ``correlation_block``
fills a finite window using self-adjointness of the two-point operator.
``ti_commutator_direct`` forms the difference ``s(0,2) - s(-1,1)``, which
vanishes without driving or without the field and witnesses that the
driven steady state breaks translation invariance, from the two matrix
elements; ``transport.ti_commutator_element``, its closed-form momentum
integral, is a row of the flux integrals and shares no sampling with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import WindowTooLarge
from .model import ModelParams, ThermalConfig, bound_state
from .numerics import QuadratureSpec
from .scattering import band_moments, bound_weight

MAX_WINDOW_SITES = 512


def _elements(params: ModelParams, th: ThermalConfig, x, y, spec: QuadratureSpec | None):
    """Steady-state correlations ``s(x, y)`` for integer arrays of sites.

    The band overlap from one set of band moments at the pairs' ``y - x``
    and ``x + y``, plus the bound-state term at every nonzero field, its
    weight completed from the bound-state integral of the same sampling;
    zero field has no bound state.
    """
    moments = band_moments(params.lam, th, (y - x, x + y), spec)
    value = moments.overlap(x, y)
    if params.lam != 0.0:
        amp = bound_state(params.lam).amplitude
        value = value + bound_weight(params, th, moments.bound) * amp(x) * amp(y)
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

    The upper triangle comes from one set of band moments, with every
    frequency the window reads and the bound-state integral; the lower
    triangle is its exact conjugate, ``s(y, x) = conj(s(x, y))``.
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


def ti_commutator_direct(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """``s(0, 2) - s(-1, 1)`` from the two matrix elements, one sampling for both."""
    upper, lower = _elements(params, th, np.array([0, -1]), np.array([2, 1]), spec)
    return float((upper - lower).real)
