"""Stationary scattering data of the single-site field on the chain.

The steady state of the driven chain splits into a band part, carried by
wave operators, and a bound part, carried by the out-of-band eigenvector.
This module evaluates both: the momentum-space action of the wave operator
on lattice basis vectors, the band-part overlap integrals it induces, the
transmission-suppression factor of the local field, and the thermal weight
the initial state puts on the bound state.

Every band overlap is a linear combination of Fourier moments over
``[0, pi]`` with integer frequencies, in which only the frequency and the
reservoir temperature vary.  ``band_moments`` samples the six real
kernels, the plane one and the field kernels already multiplied by their
field factors, so that each is bounded by 1 at every finite field, once on
a Gauss-Kronrod mesh graded at their near-poles, with the basis
``e^{imt}`` of every frequency a window needs beside them, and
``numerics.refine_panels`` contracts each panel's kernels with the basis
in one product and certifies the moments; ``ac_overlap`` and
``ness.correlation_block`` index into the result.  The
bound-state weight is one more such sampling, of both reservoirs'
sine-transform integrands on a mesh graded at the bound state's decay
rate.

Momentum-space convention: a lattice vector f transforms to
``fhat(k) = sum_x f(x) exp(i k x)`` with inverse measure ``dk / 2 pi`` on
``[-pi, pi]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .exceptions import DomainError
from .model import (
    ModelParams,
    ThermalConfig,
    bound_state,
    planck_density,
)
from .numerics import QuadratureSpec, field_ratios, graded_mesh, refine_panels

_PI = math.pi


def magnetic_correction(lam: float, e: float) -> float:
    """Transmission suppression ``(1 - e^2) / (1 - e^2 + lam^2)`` on the band.

    Identically 1 at zero field; vanishes at the band edges ``e = +-1`` and
    peaks at ``1 / (1 + lam^2)`` at the band center.
    """
    if not abs(e) <= 1.0 + 1e-12:
        raise DomainError(f"band energy {e} outside [-1, 1]")
    if not abs(lam) < math.inf:
        raise DomainError(f"field strength must be finite, got {lam}")
    if lam == 0.0:
        return 1.0
    s = max(0.0, 1.0 - e * e)
    # guards 0/0 when lam*lam underflows to zero at the band edges
    if s == 0.0:
        return 0.0
    return s / (s + lam * lam)


def wave_action(lam: float, x: int, k: float) -> complex:
    """Momentum function of the wave operator applied to the basis vector at ``x``.

    ``exp(ikx) + i lam exp(i|k||x|) / (sin|k| - i lam)``; the plane wave plus
    an outgoing scattered wave.  At ``lam = 0`` it is exactly the plane wave.
    """
    if not -_PI <= k <= _PI:
        raise DomainError(f"momentum {k} outside [-pi, pi]")
    if not abs(lam) < math.inf:
        raise DomainError(f"field strength must be finite, got {lam}")
    plane = cmath.exp(1j * k * x)
    if lam == 0.0:
        return plane
    ak = abs(k)
    return plane + 1j * lam * cmath.exp(1j * ak * abs(x)) / (math.sin(ak) - 1j * lam)


def overlap_frequencies(x, y) -> tuple:
    """Every frequency the band overlap of ``(x, y)`` reads, for integer arrays.

    The plane term reads ``+-(y - x)``; the wave products read ``m1, m2`` of
    the left reservoir, ``m1r, m2r`` of the right one, and ``m3`` of both.
    """
    x, y = np.asarray(x), np.asarray(y)
    ax, ay = np.abs(x), np.abs(y)
    return y - x, ay - x, y - ax, ay + x, -y - ax, ay - ax


@dataclass(frozen=True, eq=False)
class BandMoments:
    """Fourier moments over ``[0, pi]`` of both reservoirs' band integrands.

    Row 0 belongs to ``beta_l``, row 1 to ``beta_r``; column ``i`` holds
    frequency ``frequencies[i]`` (distinct, ascending, nonnegative):

    * ``plane[b, i]``     = ``integral rho_b(cos t) e^{imt} dt``
    * ``cross[b, i]``     = ``integral rho_b(cos t) e^{imt} lam sin t / (sin^2 t + lam^2) dt``
    * ``scattered[b, i]`` = ``integral rho_b(cos t) e^{imt} lam^2 / (sin^2 t + lam^2) dt``

    The field kernels of ``cross`` and ``scattered`` are bounded by 1/2 and
    1 at every finite field, and vanish at zero field.  Negative
    frequencies are the conjugates, the integrands being real but for
    ``e^{imt}``.  ``error_estimate`` bounds the error of any band overlap
    assembled from these moments.
    """

    frequencies: np.ndarray
    plane: np.ndarray
    cross: np.ndarray
    scattered: np.ndarray
    error_estimate: float

    def _index(self, m: np.ndarray) -> np.ndarray:
        """Column of every frequency in ``m``, by one search and one check."""
        i = np.minimum(np.searchsorted(self.frequencies, np.abs(m)), self.frequencies.size - 1)
        if np.any(self.frequencies[i] != np.abs(m)):
            raise ValueError("frequency outside the computed set")
        return i

    def overlap(self, x, y) -> np.ndarray:
        """Band overlap ``ac(x, y)`` for integer arrays of sites.

        The plane term takes ``k > 0`` from the left reservoir and ``k < 0``,
        mapped by ``k -> -t``, from the right one; the cross and scattered
        terms are the wave products of ``wave_action`` with the momentum
        folded onto ``[0, pi]``, so every frequency is an integer.  All
        seven frequency arrays are looked up at once, and the terms
        gathered one at a time.
        """
        d, m1, m2, m1r, m2r, m3 = overlap_frequencies(x, y)
        m = np.stack(np.broadcast_arrays(d, -d, m1, m2, m1r, m2r, m3))
        # each frequency array with its columns
        d, nd, m1, m2, m1r, m2r, m3 = zip(m, self._index(m))

        def at(family, row, frequency):
            m, i = frequency
            value = family[row, i]
            return np.where(m < 0, value.conj(), value)

        p, c, s = self.plane, self.cross, self.scattered
        plane = at(p, 0, d) + at(p, 1, nd)
        cross = at(c, 0, m1) - at(c, 0, m2) + at(c, 1, m1r) - at(c, 1, m2r)
        scattered = (
            at(s, 0, m1) + at(s, 0, m2) - at(s, 0, m3) + at(s, 1, m1r) + at(s, 1, m2r) - at(s, 1, m3)
        )
        return (plane + 1j * cross - scattered) / (2.0 * _PI)


def _moment_mesh(lam: float, beta_r: float, m_top: int) -> np.ndarray:
    """Panel edges on ``[0, pi]`` for band moments up to frequency ``m_top``.

    ``graded_mesh`` in panels no longer than ``min(pi/16, 4/m_top)`` for the
    oscillation, so all requests up to frequency 20 share one mesh.
    """
    return graded_mesh(lam, beta_r, _PI, 4.0 / max(m_top, 1))


def _moment_integrands(
    lam: float, betas: np.ndarray, m: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The band-moment kernels and frequency basis at nodes ``t``.

    The kernels are real, shape ``(6, N)``: the plane, cross and scattered
    kernels of ``BandMoments``, each for ``beta_l`` then ``beta_r``; the
    basis is ``e^{imt}``, shape ``(M, N)``, the exponential of each
    rounded ``m t``.  The field kernels are ``sign(lam) q e / r`` and
    ``e^2 / r`` in the ratios ``numerics.field_ratios(sin t, |lam|)``: no
    field is squared, so they stay finite from the smallest subnormal field
    to the largest double.  Their near-poles at distance ~|lam| off both
    endpoints are resolved by the grading of ``_moment_mesh``.
    """
    rho = planck_density(betas[:, None], np.cos(t))
    _, q, e, r = field_ratios(np.sin(t), abs(lam))
    kernels = np.concatenate([rho, rho * (math.copysign(1.0, lam) * q * e / r), rho * (e * e / r)])
    return kernels, np.exp(1j * np.multiply.outer(m, t))


def band_moments(
    lam: float,
    th: ThermalConfig,
    frequencies,
    spec: QuadratureSpec | None = None,
) -> BandMoments:
    """Band moments of both reservoirs at the given integer frequencies, on one mesh.

    Only ``|m|`` is computed; ``B(-m) = conj B(m)``.  The kernels and the
    frequency basis of ``_moment_integrands`` are sampled once on the
    graded mesh of ``_moment_mesh``, at every finite field alike, and
    ``numerics.refine_panels`` contracts them panel by panel in one batched
    product and certifies the moments, each family and reservoir a group
    weighted by how a matrix element combines the moments: one plane moment
    per reservoir, two cross moments and three scattered moments, each at
    ``1/2pi``.  The estimate, the Gauss gaps maximized over the frequencies
    plus the summation roundoff (about 9e-16 with frequency 0), bounds the
    error of any band overlap; above ``spec.abs_tol`` the mesh is refined
    or NonConvergence raised, as ``refine_panels`` says.
    """
    spec = spec if spec is not None else QuadratureSpec()
    m = np.unique(np.abs(np.concatenate([np.ravel(f) for f in frequencies]))).astype(int)
    betas = np.array([th.beta_l, th.beta_r])
    weights = np.repeat(np.array([1.0, 2.0, 3.0]) / (2.0 * _PI), 2)[:, None] * np.ones(m.size)
    sample = partial(_moment_integrands, lam, betas, m)
    edges = _moment_mesh(lam, th.beta_r, int(m[-1]))
    moments, error, _ = refine_panels(sample, edges, weights, spec, f"band moments at lam={lam!r}")
    return BandMoments(m, *moments.reshape(3, 2, -1), error)


def ac_overlap(
    params: ModelParams,
    th: ThermalConfig,
    x: int,
    y: int,
    spec: QuadratureSpec | None = None,
) -> complex:
    """Band contribution to the steady-state two-point function at ``(x, y)``.

    The overlap ``integral dk/2pi conj(w e_x)(k) theta(k) (w e_y)(k)`` with
    ``theta`` the thermal symbol, expanded into three terms (plane-plane,
    plane-scattered cross terms, scattered-scattered), each a linear
    combination of the band moments of ``band_moments`` at the frequencies
    of ``overlap_frequencies``, certified at every finite field.
    """
    moments = band_moments(params.lam, th, overlap_frequencies(x, y), spec)
    return complex(moments.overlap(x, y))


@lru_cache(maxsize=128)
def _pp_weight_cached(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec) -> float:
    lam, nu = params.lam, params.nu
    state = bound_state(lam)
    alpha = state.decay_rate
    r = math.exp(-alpha)
    gap = -math.expm1(-alpha)  # 1 - r without cancellation
    # e^{-2 alpha nu} / norm_sq, with norm_sq = sqrt(1 + lam^2)/|lam| kept
    # apart: it overflows at subnormal fields
    scale = math.exp(-2.0 * alpha * nu) / math.hypot(1.0, lam)
    prefactor = scale * abs(lam)
    sign = math.copysign(1.0, lam)
    betas = np.array([th.beta_l, th.beta_r])[:, None, None]

    # Reservoir overlaps via the half-line sine transform: the eigenvector
    # tail on sites >= nu+1 transforms to (e^{-alpha nu}/nu_norm) S(q, k),
    # S(q, k) = sum_{n>=1} q^n sin(nk) with q = sign(lam) r; the left and
    # right tails give identical |transform|^2.  S^2 peaks like 1/gap^2 at
    # the band edge the bound state hugs; Parseval integrates that peak,
    # (2/pi) integral S^2 = q^2/(1 - q^2), against the edge density, which
    # leaves the band integral of (rho(cos k) - rho_edge) S^2.  k -> pi - k
    # and rho(-e) = 1 - rho(e) map lam < 0 onto the kernel of lam > 0 with
    # the band integral's sign flipped, so the edge sits at k = 0:
    #   rho(cos k) - rho(1) = rho(cos k) rho(-1) (1 - exp(-x)),  x = 2 beta v^2,
    #   S^2 = r w^2 c^2 / (gap^2 + c^2)^2,  c = 2 sqrt(r) v,
    # with v, w = sin(k/2), cos(k/2); their product is the bounded kernel
    # below, in which only ratios of the small quantities enter.
    def sample(k):
        v = np.sin(0.5 * k)
        c = (2.0 * math.sqrt(r)) * v
        x = 2.0 * betas * v * v
        safe = np.where(x > 0.0, x, 1.0)
        expm1_ratio = np.where(x > 0.0, -np.expm1(-safe) / safe, 1.0)  # (1 - e^{-x})/x
        kernels = (
            planck_density(betas, -1.0)
            * planck_density(betas, np.cos(k))
            * (0.5 * betas)
            * expm1_ratio
            * np.cos(0.5 * k) ** 2
            * (c / np.hypot(gap, c)) ** 4
        )
        return kernels, None

    # S has its poles at k = +-i alpha, so the field grading starts from alpha/8
    edges = graded_mesh(alpha, th.beta_r, _PI)
    weights, what = np.full((2, 1), (2.0 / _PI) * prefactor), f"bound-state weight at lam={lam!r}"
    band, _, _ = refine_panels(sample, edges, weights, spec, what)
    edge = planck_density(th.beta_l, sign) + planck_density(th.beta_r, sign)
    # prefactor q^2/(1 - q^2), with |lam|/gap formed first: both may be subnormal
    geometric = scale * (abs(lam) / gap) * r * r / (1.0 + r)
    # Sample sites hold occupation 1/2 each: a geometric sum of amplitude^2.
    tail = math.expm1(-2.0 * alpha * nu) / math.expm1(-2.0 * alpha)
    sample = 0.5 * state.amplitude(0) ** 2 * (1.0 + 2.0 * r * r * tail)
    return float(geometric * edge + sign * (2.0 / _PI) * prefactor * band.sum() + sample)


def pp_weight(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Thermal weight of the initial state on the bound state, in [0, 1].

    Defined at every nonzero field; zero field, where ``bound_state`` raises
    NoBoundState, returns 0.  The band integrals of both reservoirs are
    sampled once on a mesh graded toward the band edge from the decay rate
    ``alpha = asinh|lam|`` and toward ``k = pi/2`` from ``1/beta_r``, and
    ``numerics.refine_panels`` certifies the weight to ``spec.abs_tol``,
    summation roundoff included, or raises NonConvergence; the ``2 nu + 1``
    sample sites sum in closed form.
    """
    if params.lam == 0.0:
        return 0.0
    return _pp_weight_cached(params, th, spec if spec is not None else QuadratureSpec())
