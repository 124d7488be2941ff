"""Stationary scattering data of the single-site field on the chain.

The steady state of the driven chain splits into a band part, carried by
wave operators, and a bound part, carried by the out-of-band eigenvector.
This module evaluates both: the momentum-space action of the wave operator
on lattice basis vectors, the band-part overlap integrals it induces, the
transmission-suppression factor of the local field, and the thermal weight
the initial state puts on the bound state.

Every band overlap is a linear combination of Fourier moments over
``[0, pi]`` with integer frequencies, in which only the frequency and the
reservoir temperature vary.  ``band_moments`` samples the few integrands,
the field kernels ``1/(sin^2 t + lam^2)`` as defined, once on a
Gauss-Kronrod mesh graded at their near-poles, contracts them against
``e^{imt}`` for every frequency a window needs, and certifies the result
with the embedded Gauss rule; ``ac_overlap`` and ``ness.correlation_block``
index into it.  The bound-state weight is one more such sampling, of both
reservoirs' sine-transform integrands on a mesh graded at the bound
state's decay rate.

Momentum-space convention: a lattice vector f transforms to
``fhat(k) = sum_x f(x) exp(i k x)`` with inverse measure ``dk / 2 pi`` on
``[-pi, pi]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, NoBoundState
from .model import (
    ModelParams,
    ThermalConfig,
    bound_state,
    planck_density,
)
from .numerics import QuadratureSpec, graded_mesh, panel_rule, refine_panels

_PI = math.pi

# Fields below this are handled by the zero-field closed forms: the scattered
# and bound-state contributions to any correlation element are bounded by
# |lam| * (6 pi + 8 log(1/|lam|)) < 3e-12 there, under the resolution the
# quadrature itself can certify in double precision.
ZERO_FIELD_FLOOR = 1e-14


def xy_symbol(th: ThermalConfig, k: float) -> float:
    """Momentum density of the driven chain without the field.

    Planck density of the band energy ``cos k`` at the right temperature for
    ``k <= 0`` and at the left temperature for ``k > 0``: right movers carry
    the left reservoir's occupation and vice versa.
    """
    if not -_PI <= k <= _PI:
        raise DomainError(f"momentum {k} outside [-pi, pi]")
    r = th.beta_r if k <= 0.0 else th.beta_l
    return planck_density(r, math.cos(k))


def magnetic_correction(lam: float, e: float) -> float:
    """Transmission suppression ``(1 - e^2) / (1 - e^2 + lam^2)`` on the band.

    Identically 1 at zero field; vanishes at the band edges ``e = +-1`` and
    peaks at ``1 / (1 + lam^2)`` at the band center.
    """
    if not abs(e) <= 1.0 + 1e-12:
        raise DomainError(f"band energy {e} outside [-1, 1]")
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
    plane = cmath.exp(1j * k * x)
    if lam == 0.0:
        return plane
    ak = abs(k)
    return plane + 1j * lam * cmath.exp(1j * ak * abs(x)) / (math.sin(ak) - 1j * lam)


# elements of one (reservoir, frequency, node) array; larger families are
# sampled a group of panels at a time
_CHUNK_ELEMENTS = 1 << 14


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

    * ``plane[b, i]``      = ``integral rho_b(cos t) e^{imt} dt``
    * ``kernel_sin[b, i]`` = ``integral rho_b(cos t) sin t e^{imt} / (sin^2 t + lam^2) dt``
    * ``kernel[b, i]``     = ``integral rho_b(cos t) e^{imt} / (sin^2 t + lam^2) dt``

    Negative frequencies are the conjugates, the integrands being real but
    for ``e^{imt}``.  The kernel rows are None for fields below
    ``ZERO_FIELD_FLOOR``.  ``error_estimate`` bounds the error of any band
    overlap assembled from these moments.
    """

    lam: float
    frequencies: np.ndarray
    plane: np.ndarray
    kernel_sin: np.ndarray | None
    kernel: np.ndarray | None
    error_estimate: float

    def at(self, family: np.ndarray, row: int, m) -> np.ndarray:
        """Moments of one family and reservoir at the integer frequencies ``m``."""
        m = np.asarray(m)
        i = np.minimum(np.searchsorted(self.frequencies, np.abs(m)), self.frequencies.size - 1)
        if np.any(self.frequencies[i] != np.abs(m)):
            raise ValueError("frequency outside the computed set")
        value = family[row, i]
        return np.where(m < 0, value.conj(), value)

    def overlap(self, x, y) -> np.ndarray:
        """Band overlap ``ac(x, y)`` for integer arrays of sites.

        The plane term takes ``k > 0`` from the left reservoir and ``k < 0``,
        mapped by ``k -> -t``, from the right one; the cross and scattered
        terms are the wave products of ``wave_action`` with the momentum
        folded onto ``[0, pi]``, so every frequency is an integer.
        """
        d, m1, m2, m1r, m2r, m3 = overlap_frequencies(x, y)
        at, p = self.at, self.plane
        total = (at(p, 0, d) + at(p, 1, -d)) / (2.0 * _PI)
        if self.kernel is None:
            return total
        ks, k = self.kernel_sin, self.kernel
        cross = at(ks, 0, m1) - at(ks, 0, m2) + at(ks, 1, m1r) - at(ks, 1, m2r)
        scattered = (
            at(k, 0, m1) + at(k, 0, m2) - at(k, 0, m3) + at(k, 1, m1r) + at(k, 1, m2r) - at(k, 1, m3)
        )
        lam = self.lam
        total += 1j * lam * cross / (2.0 * _PI)
        total -= lam * lam * scattered / (2.0 * _PI)
        return total


def _moment_mesh(lam: float, beta_r: float, m_top: int) -> np.ndarray:
    """Panel edges on ``[0, pi]`` for band moments up to frequency ``m_top``.

    ``graded_mesh`` without the field grading below ``ZERO_FIELD_FLOOR``,
    in panels no longer than ``min(pi/16, 4/m_top)`` for the oscillation,
    so all requests up to frequency 20 share one mesh.
    """
    width = lam if abs(lam) >= ZERO_FIELD_FLOOR else 0.0
    return graded_mesh(width, beta_r, _PI, 4.0 / max(m_top, 1))


def _moment_integrands(lam: float, betas: np.ndarray, m: np.ndarray, t: np.ndarray) -> list:
    """Samples of the moment families at nodes ``t``, as ``BandMoments`` defines them.

    One array of shape ``(2, M, N)`` per family: plane, and above
    ``ZERO_FIELD_FLOOR`` kernel_sin and kernel.  The kernel's near-poles at
    distance ~|lam| off both endpoints are resolved by the grading of
    ``_moment_mesh``.
    """
    rho = planck_density(betas[:, None], np.cos(t))[:, None, :]
    plane = rho * np.exp(1j * np.multiply.outer(m, t))
    if abs(lam) < ZERO_FIELD_FLOOR:
        return [plane]
    sin = np.sin(t)
    kernel = plane / (sin * sin + lam * lam)
    return [plane, kernel * sin, kernel]


def band_moments(
    lam: float,
    th: ThermalConfig,
    frequencies,
    spec: QuadratureSpec | None = None,
) -> BandMoments:
    """Band moments of both reservoirs at the given integer frequencies, on one mesh.

    Only ``|m|`` is computed; ``B(-m) = conj B(m)``.  The integrands,
    kernels included, are sampled as defined, once on the graded mesh of
    ``_moment_mesh``, and contracted against ``e^{imt}`` in numpy, and
    ``numerics.refine_panels`` certifies them.  The error estimate is the
    embedded Gauss rule's distance from the Kronrod rule, panel by panel,
    maximized over the frequencies and weighted by how a matrix element
    combines the moments: one plane moment per reservoir at ``1/2pi``, two
    cross moments at ``|lam|/2pi`` and three scattered moments at
    ``lam^2/2pi``.  While it exceeds ``spec.abs_tol``, the panels above
    their share are bisected; past ``spec.max_subdivisions`` bisections
    NonConvergence is raised.  ``spec.rel_tol`` and ``spec.breakpoints``
    are not used.
    """
    spec = spec if spec is not None else QuadratureSpec()
    m = np.unique(np.abs(np.concatenate([np.ravel(f) for f in frequencies]))).astype(int)
    betas = np.array([th.beta_l, th.beta_r])
    weights = np.array([1.0, 2.0 * abs(lam), 3.0 * lam * lam]) / (2.0 * _PI)
    if abs(lam) < ZERO_FIELD_FLOOR:
        weights = weights[:1]

    def contract(edges):
        t, wk, wg = panel_rule(edges)
        n_panels, n_nodes = t.shape
        chunk = max(1, _CHUNK_ELEMENTS // (2 * m.size * n_nodes))
        sums = [np.zeros((2, m.size), dtype=complex) for _ in weights]
        panel_err = np.zeros(n_panels)
        for start in range(0, n_panels, chunk):
            sl = slice(start, start + chunk)
            for f, samples in enumerate(_moment_integrands(lam, betas, m, t[sl].ravel())):
                panels = samples.reshape(2, m.size, -1, n_nodes)
                sums[f] += np.einsum("bmpk,pk->bm", panels, wk[sl])
                gap = np.abs(np.einsum("bmpk,pk->bmp", panels, wk[sl] - wg[sl]))
                panel_err[sl] += weights[f] * gap.max(axis=1).sum(axis=0)
        return sums, panel_err

    edges = _moment_mesh(lam, th.beta_r, int(m[-1]))
    moments, error = refine_panels(contract, edges, spec, f"band moments at lam={lam!r}")
    plane, kernel_sin, kernel = moments + [None] * (3 - len(moments))
    return BandMoments(lam, m, plane, kernel_sin, kernel, error)


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
    of ``overlap_frequencies``.  Fields with ``|lam| < ZERO_FIELD_FLOOR``
    take the plane term alone; the rest is bounded by ~3e-12 there.
    """
    moments = band_moments(params.lam, th, overlap_frequencies(x, y), spec)
    return complex(moments.overlap(x, y))


@lru_cache(maxsize=128)
def _pp_weight_cached(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec) -> float:
    lam, nu = params.lam, params.nu
    alpha = math.asinh(abs(lam))  # bound_state(lam).decay_rate
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
    def contract(edges):
        k, wk, wg = panel_rule(edges)
        v = np.sin(0.5 * k)
        c = (2.0 * math.sqrt(r)) * v
        x = 2.0 * betas * v * v
        safe = np.where(x > 0.0, x, 1.0)
        expm1_ratio = np.where(x > 0.0, -np.expm1(-safe) / safe, 1.0)  # (1 - e^{-x})/x
        samples = (
            planck_density(betas, -1.0)
            * planck_density(betas, np.cos(k))
            * (0.5 * betas)
            * expm1_ratio
            * np.cos(0.5 * k) ** 2
            * (c / np.hypot(gap, c)) ** 4
        )
        values = np.einsum("bpk,pk->b", samples, wk)
        spread = np.abs(np.einsum("bpk,pk->bp", samples, wk - wg))
        return values, (2.0 / _PI) * prefactor * spread.sum(axis=0)

    # S has its poles at k = +-i alpha, so the field grading starts from alpha/8
    edges = graded_mesh(alpha, th.beta_r, _PI)
    band, _ = refine_panels(contract, edges, spec, f"bound-state weight at lam={lam!r}")
    edge = planck_density(th.beta_l, sign) + planck_density(th.beta_r, sign)
    # prefactor q^2/(1 - q^2), with |lam|/gap formed first: both may be subnormal
    geometric = scale * (abs(lam) / gap) * r * r / (1.0 + r)
    # Sample sites hold occupation 1/2 each; staggering squares away.
    state = bound_state(lam)
    sample = 0.5 * sum(state.amplitude(x) ** 2 for x in range(-nu, nu + 1))
    return float(geometric * edge + sign * (2.0 / _PI) * prefactor * band.sum() + sample)


def pp_weight(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
    strict: bool = False,
) -> float:
    """Thermal weight of the initial state on the bound state, in [0, 1].

    Defined at every nonzero field.  Returns 0 at zero field by convention;
    with ``strict=True`` that case raises NoBoundState instead.  The band
    integrals of both reservoirs are sampled once on a mesh graded toward
    the band edge from the decay rate ``alpha = asinh|lam|`` and toward
    ``k = pi/2`` from ``1/beta_r``, and ``numerics.refine_panels``
    certifies the weight to ``spec.abs_tol`` or raises NonConvergence.
    ``spec.rel_tol`` and ``spec.breakpoints`` are not used.
    """
    if params.lam == 0.0:
        if strict:
            raise NoBoundState("no bound state to weight at zero field strength")
        return 0.0
    return _pp_weight_cached(params, th, spec if spec is not None else QuadratureSpec())
