"""Model data: reservoir temperatures, lattice operators, and the bound state.

The chain is the one-particle hopping operator on the integer lattice with
matrix elements 1/2 on nearest-neighbor bonds.  Three variants appear:

* XY          -- the translation-invariant chain itself,
* DECOUPLED   -- the chain with the two bonds severed that join the
                 (2 nu + 1)-site sample to the half-infinite reservoirs,
* MAGNETIC    -- the chain plus a single local field ``lam`` at site 0.

The initial state is quasifree: Planck densities of the decoupled blocks at
inverse temperatures ``beta_l`` (left), 0 (sample), and ``beta_r`` (right).
For ``lam != 0`` the magnetic operator has exactly one eigenvalue outside
the band [-1, 1], with an exponentially localized eigenvector; both are in
closed form below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import NoBoundState


@dataclass(frozen=True)
class ThermalConfig:
    """Reservoir inverse temperatures, left hotter or equal: 0 < beta_l <= beta_r."""

    beta_l: float
    beta_r: float

    def __post_init__(self) -> None:
        ok = (
            math.isfinite(self.beta_l)
            and math.isfinite(self.beta_r)
            and 0.0 < self.beta_l <= self.beta_r
        )
        if not ok:
            raise ValueError(
                f"need 0 < beta_l <= beta_r < inf, got ({self.beta_l}, {self.beta_r})"
            )

    @property
    def delta(self) -> float:
        """Half the inverse-temperature difference, (beta_r - beta_l)/2 >= 0."""
        return 0.5 * (self.beta_r - self.beta_l)

    @property
    def beta_mean(self) -> float:
        return 0.5 * (self.beta_r + self.beta_l)

    @property
    def is_equilibrium(self) -> bool:
        return self.beta_l == self.beta_r


@dataclass(frozen=True)
class ModelParams:
    """Local field strength at site 0 and sample half-width nu >= 0."""

    lam: float
    nu: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise ValueError(f"field strength must be finite, got {self.lam}")
        if self.nu != int(self.nu) or self.nu < 0:
            raise ValueError(f"sample half-width must be a nonnegative integer, got {self.nu}")
        object.__setattr__(self, "nu", int(self.nu))


class OperatorKind(Enum):
    XY = "xy"
    DECOUPLED = "decoupled"
    MAGNETIC = "magnetic"


def operator_stencil(kind: OperatorKind, params: ModelParams, x, y):
    """Matrix element ``(delta_x, h delta_y)`` of the chosen operator variant.

    Elementwise on integer arrays ``x`` and ``y``; a float for scalar sites.
    """
    x, y = np.asarray(x), np.asarray(y)
    hop = np.where(np.abs(x - y) == 1, 0.5, 0.0)
    if kind is OperatorKind.XY:
        out = hop
    elif kind is OperatorKind.MAGNETIC:
        out = hop + np.where((x == 0) & (y == 0), params.lam, 0.0)
    elif kind is OperatorKind.DECOUPLED:
        # sever the bonds (-nu-1, -nu) and (nu, nu+1)
        low = np.minimum(x, y)
        out = np.where((low == -(params.nu + 1)) | (low == params.nu), 0.0, hop)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def planck_density(r: float, e):
    """Fermi factor ``1 / (1 + exp(r e))``, overflow-safe, elementwise on arrays.

    Evaluated as ``t / (1 + t)`` with ``t = exp(-r e)`` where ``r e > 0``
    and as ``1 / (1 + t)`` with ``t = exp(r e)`` elsewhere, so the
    exponential never overflows.
    """
    z = np.multiply(r, e)
    t = np.exp(-np.abs(z))
    out = np.where(z > 0.0, t, 1.0) / (1.0 + t)
    return float(out) if np.ndim(out) == 0 else out


def planck_difference(th: ThermalConfig, e):
    """``planck_density(beta_l, e) - planck_density(beta_r, e)``, elementwise on arrays.

    Evaluated as ``sign(e) el (1 - exp(-(beta_r - beta_l)|e|)) /
    ((1 + el)(1 + er))`` with ``el, er = exp(-beta_{l,r} |e|)``: a product
    of positive factors and one ``expm1``, so nothing cancels, the result
    is within a few ulps plus the rounding of ``beta_l |e|`` at any
    temperatures and energy, and no exponential overflows.
    """
    a = np.abs(e)
    el, er = np.exp(-th.beta_l * a), np.exp(-th.beta_r * a)
    gap = -np.expm1((th.beta_l - th.beta_r) * a)  # 1 - er / el
    out = np.sign(e) * el * gap / ((1.0 + el) * (1.0 + er))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class BoundState:
    """Closed-form data of the single out-of-band eigenvector.

    energy:     sign(lam) * sqrt(1 + lam^2), outside [-1, 1]
    decay_rate: alpha with |amplitude(x)| = exp(-alpha |x|) / nu_norm
    norm_sq:    nu_norm^2 = sqrt(1 + lam^2) / |lam|, so the amplitudes are
                unit-normalized over the lattice
    staggered:  amplitude alternates sign site to site (lam < 0)
    """

    energy: float
    decay_rate: float
    norm_sq: float
    staggered: bool

    def amplitude(self, x):
        """Eigenvector component at site ``x`` (scalar or integer array)."""
        ax = np.abs(x)
        amp = np.exp(-self.decay_rate * ax) / math.sqrt(self.norm_sq)
        if self.staggered:
            amp = amp * np.where(np.mod(x, 2) == 0, 1.0, -1.0)
        return float(amp) if np.ndim(amp) == 0 else amp


def bound_state(lam: float) -> BoundState:
    """Bound-state data for field strength ``lam``; NoBoundState at lam = 0."""
    if lam == 0.0:
        raise NoBoundState("the point spectrum is empty at zero field strength")
    root = math.hypot(1.0, lam)
    return BoundState(
        energy=math.copysign(root, lam),
        # equals log(sqrt(1 + lam^2) + |lam|), in cancellation-free form
        decay_rate=math.asinh(abs(lam)),
        norm_sq=root / abs(lam),
        staggered=lam < 0.0,
    )
