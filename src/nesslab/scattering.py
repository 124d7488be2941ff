"""Stationary scattering data of the single-site field on the chain.

The steady state of the driven chain splits into a band part, carried by
wave operators, and a bound part, carried by the out-of-band eigenvector.
This module evaluates both: the momentum-space action of the wave operator
on lattice basis vectors, the band-part overlap integrals it induces, the
transmission-suppression factor of the local field, and the thermal weight
the initial state puts on the bound state.

The band overlap of sites ``(x, y)`` is a sum of Fourier moments over
``[0, pi]`` at two integer frequencies: in each quadrant of signs of
``(x, y)``, a Toeplitz part in ``y - x`` plus a Hankel part in ``x + y``,
the field's breaking of translation invariance, which vanishes at zero
field.  ``band_moments`` samples the moments' kernels, each bounded at
every finite field, and the bound-state kernel on one graded
Gauss-Kronrod mesh of ``[0, pi/2]``, each node standing for itself and
its mirror ``pi - t``, and certifies them together.  ``BandMoments.overlap``
sums the moments into the two parts' tables, and ``bound_weight`` adds
the closed-form rest of the bound-state weight, so a window is one
certified sampling.

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


@dataclass(frozen=True, eq=False)
class BandMoments:
    """Fourier moments over ``[0, pi]`` of both reservoirs' band integrands.

    Row 0 belongs to ``beta_l``, row 1 to ``beta_r``; column ``i`` holds
    frequency ``frequencies[i]`` (distinct, ascending, nonnegative, and
    starting at 0):

    * ``plane[b, i]``     = ``integral rho_b(cos t) e^{imt} dt``
    * ``cross[b, i]``     = ``integral rho_b(cos t) e^{imt} lam sin t / (sin^2 t + lam^2) dt``
    * ``scattered[b, i]`` = ``integral rho_b(cos t) e^{imt} lam^2 / (sin^2 t + lam^2) dt``

    The field kernels of ``cross`` and ``scattered`` are bounded by 1/2 and
    1 at every finite field, and vanish at zero field.  Negative
    frequencies are the conjugates, the integrands being real but for
    ``e^{imt}``.  ``bound`` is the band integral of the bound-state
    weight, both reservoirs' together, that ``bound_weight`` completes, or
    None at zero field, which has no bound state.  ``error_estimate``
    bounds the error of any matrix element ``s(x, y)`` assembled from
    these: the band overlap plus ``bound_weight`` times ``amp(x) amp(y)``,
    whose amplitudes are at most 1.
    """

    frequencies: np.ndarray
    plane: np.ndarray
    cross: np.ndarray
    scattered: np.ndarray
    bound: float | None
    error_estimate: float

    def _index(self, m: np.ndarray) -> np.ndarray:
        """Column of every signed frequency in ``m`` in ``_tables``, by one search and one check."""
        i = np.minimum(np.searchsorted(self.frequencies, np.abs(m)), self.frequencies.size - 1)
        if np.any(self.frequencies[i] != np.abs(m)):
            raise ValueError("frequency outside the computed set")
        return i + (m < 0) * self.frequencies.size

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``2 pi T_q`` and ``2 pi H_q`` of ``overlap``, ``(4, 2F)``; column ``F + i`` negates ``i``."""
        moments = np.stack([self.plane, self.cross, self.scattered])
        p, c, s = np.concatenate([moments, moments.conj()], axis=2)
        pn, cn, sn = np.concatenate([moments.conj(), moments], axis=2)  # at the negated frequency
        plane = p[0] + pn[1]
        toeplitz = [
            plane - s[0] + s[1],
            plane + 1j * (c[0] - cn[1]) - s[0] - sn[1],
            plane + 1j * (cn[1] - c[0]) - s[0] - sn[1],
            plane + sn[0] - sn[1],
        ]
        hankel = [
            1j * (c[1] - cn[1]) - s[1] - sn[1],
            1j * (c[1] - c[0]),
            1j * (cn[0] - cn[1]),
            1j * (cn[0] - c[0]) - s[0] - sn[0],
        ]
        return np.stack(toeplitz), np.stack(hankel)

    def overlap(self, x, y) -> np.ndarray:
        """Band overlap ``ac(x, y)`` for integer arrays of sites.

        The plane term takes ``k > 0`` from the left reservoir and ``k < 0``,
        mapped by ``k -> -t``, from the right one; the cross and scattered
        terms are the wave products of ``wave_action`` with the momentum
        folded onto ``[0, pi]``.  So in quadrant ``q = (x < 0) + 2 (y < 0)``
        the overlap is a Toeplitz part ``T_q(y - x)`` plus a Hankel part
        ``H_q(x + y)``, where the field breaks translation invariance: two
        gathers an element from the tables of ``_tables``.
        """
        x, y = np.asarray(x), np.asarray(y)
        d, s = self._index(np.stack([y - x, x + y]))
        toeplitz, hankel = self._tables()
        q = (x < 0) + 2 * (y < 0)
        return (toeplitz[q, d] + hankel[q, s]) / (2.0 * _PI)


def _moment_mesh(lam: float, beta_r: float, m_top: int, floor: float) -> np.ndarray:
    """Panel edges on ``[0, pi/2]`` for band moments up to frequency ``m_top``.

    ``graded_mesh`` from ``asinh|lam|``, where the field kernels and the
    bound-state kernels both have their poles, ``+-i asinh|lam|`` off
    ``t = 0`` and ``t = pi``, which the half band folds onto ``t = 0``,
    but no deeper than ``floor`` of ``_moment_floor``; in panels no longer
    than ``min(pi/16, 4/m_top)`` for the oscillation, so all requests up
    to frequency 20 share one mesh.
    """
    depth = max(math.asinh(abs(lam)), 8.0 * floor)
    return graded_mesh(depth, beta_r, 0.5 * _PI, 4.0 / max(m_top, 1))


def _moment_weights(lam: float, m: np.ndarray) -> np.ndarray:
    """How each moment of ``_moment_integrands`` enters a matrix element, ``(G, M)``.

    At either half, one plane moment per reservoir, two cross moments and
    three scattered moments, each at ``1/2pi``; the bound-state integral,
    at frequency 0 alone, at ``(2/pi) |lam| / sqrt(1 + lam^2)``, its factor
    in ``bound_weight`` at ``nu = 0``, which bounds it at every ``nu``.
    """
    band = np.tile(np.repeat(np.array([1.0, 2.0, 3.0]) / (2.0 * _PI), 2), 2)[:, None] * np.ones(m.size)
    if lam == 0.0:
        return band
    bound = np.zeros((1, m.size))
    bound[0, 0] = (2.0 / _PI) * (abs(lam) / math.hypot(1.0, lam))
    return np.concatenate([band, bound])


# largest magnitudes of the band kernels of _moment_integrands at every
# field: plane, cross and scattered, per reservoir, at t and at pi - t
_BAND_BOUNDS = np.tile(np.repeat([1.0, 0.5, 1.0], 2), 2)
# share of abs_tol that the end panel below the grading floor may hold
_END_SHARE = 1e-11


def _moment_floor(lam: float, betas: np.ndarray, weights: np.ndarray, abs_tol: float) -> float:
    """Where the grading of ``_moment_mesh`` stops toward ``t = 0``, or 0 if it need not.

    Every kernel of ``_moment_integrands`` is bounded at every finite
    field: ``|plane| <= 1``, ``|cross| <= 1/2`` and ``|scattered| <= 1`` at
    either half, and the folded bound-state row by
    ``(beta_l + beta_r)/2``, because ``rho(cos t) + rho(-cos t) = 1``.  So
    on the end panel ``[0, F]`` the integral of kernel ``g`` and its
    Kronrod sum, weighted by ``w_g``, differ by at most ``2 F w_g B_g``,
    whatever its near-pole does inside.  ``F`` is where that bound, summed
    over the kernels, is ``_END_SHARE`` of ``abs_tol``.  A field whose own
    grading, from ``asinh|lam| / 8``, stops above ``F`` returns 0, and so
    does zero field, which has no near-pole.
    """
    if lam == 0.0:
        return 0.0
    bounds = np.append(_BAND_BOUNDS, 0.5 * betas.sum())
    floor = _END_SHARE * abs_tol / (2.0 * float(weights[:, 0] @ bounds))
    return floor if 8.0 * floor > math.asinh(abs(lam)) else 0.0


def _bound_kernels(lam: float, betas: np.ndarray, t: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The bound-state kernel at nodes ``t`` and ``pi - t``, all summed, shape ``(1, N)``.

    Reservoir overlaps via the half-line sine transform: the eigenvector
    tail on sites >= nu+1 transforms to (e^{-alpha nu}/nu_norm) S(q, k),
    S(q, k) = sum_{n>=1} q^n sin(nk) with q = sign(lam) r, r = e^{-alpha};
    the left and right tails give identical |transform|^2.  S^2 peaks like
    1/gap^2, gap = 1 - r, at the band edge the bound state hugs; Parseval
    integrates that peak, (2/pi) integral S^2 = q^2/(1 - q^2), against the
    edge density, which leaves the band integral of (rho(cos k) - rho_edge) S^2.
    k -> pi - k and rho(-e) = 1 - rho(e) map lam < 0 onto the kernel of
    lam > 0 with the band integral's sign flipped, so the edge sits at k = 0:
      rho(cos k) - rho(1) = rho(cos k) rho(-1) (1 - exp(-x)),  x = 2 beta v^2,
      S^2 = r w^2 c^2 / (gap^2 + c^2)^2,  c = 2 sqrt(r) v,
    with v, w = sin(k/2), cos(k/2); their product is the bounded kernel
    below, in which only ratios of the small quantities enter.  A node
    ``t`` of the half band stands for ``k = t`` and ``k = pi - t``; the
    second swaps ``v`` and ``w`` and reads ``rho(-cos t)``, which ``rho``,
    shape ``(2, 2, N)`` by half and reservoir, holds.  The weight reads the
    integral only as the sum over both reservoirs and both halves, so the
    four thermal factors, each times its half's ``w^2 (c / hypot(gap, c))^4``,
    are added node by node and integrated once.
    """
    alpha = math.asinh(abs(lam))
    r, gap = math.exp(-alpha), -math.expm1(-alpha)  # gap = 1 - r without cancellation
    v = np.stack([np.sin(0.5 * t), np.cos(0.5 * t)])  # at k = t, then at k = pi - t
    w = v[::-1]
    betas = betas[:, None]
    c = (2.0 * math.sqrt(r)) * v
    x = 2.0 * betas * (v * v)[:, None]
    safe = np.where(x > 0.0, x, 1.0)
    expm1_ratio = np.where(x > 0.0, -np.expm1(-safe) / safe, 1.0)  # (1 - e^{-x})/x
    thermal = planck_density(betas, -1.0) * rho * (0.5 * betas) * expm1_ratio
    return (thermal.sum(axis=1) * (w**2 * (c / np.hypot(gap, c)) ** 4)).sum(axis=0, keepdims=True)


def _frequency_basis(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``e^{imt}`` at nodes ``t`` for ascending frequencies ``m >= 0``, shape ``(M, N)``.

    A frequency ``k`` is formed directly as ``exp(i k t_hi) exp(i k t_lo)``,
    with ``t_hi`` the node rounded to ``51 - bit_length(m_top)`` fractional
    bits and ``t_lo`` the rest: ``k t_hi`` is exact, and ``k t_lo`` is
    rounded relative to its own small size, so each is as accurate as one
    exponential at any frequency.  Most sets are formed by products
    instead: ``m = a B + b`` with ``B = isqrt(m_top + 1)``, and
    ``e^{imt} = E_a e_b``, ``E_a = e^{iaBt}``, ``e_b = e^{ibt}``, both runs
    repeated products of a seed ``e^{ikt}``, ``k`` ``B`` or 1, formed
    directly.  An element is at most ``A + B`` products from its seeds,
    and its error grows by about half an ulp a product.  At about 8
    products' time an exponential, the runs cost ``A + B + 32`` products,
    the direct form 16 a frequency; the cheaper is taken, which leaves the
    direct form to single pairs, a few frequencies up to ``m_top``, and the
    runs fewer than 16 rows of nodes a frequency beside the ``M`` returned.
    Either way frequency 0 is exactly 1, and the result is the transpose
    of a C-ordered ``(N, M)`` array, the layout ``refine_panels``
    contracts without a copy.
    """
    top = int(m[-1])
    width = math.isqrt(top + 1)
    bits = 51 - top.bit_length()
    t_hi = np.ldexp(np.rint(np.ldexp(t, bits)), -bits)
    t_lo = t - t_hi

    def exponentials(k) -> np.ndarray:
        # at nodes along the first axis
        return np.exp(1j * np.multiply.outer(t_hi, k)) * np.exp(1j * np.multiply.outer(t_lo, k))

    def powers(k: int, count: int) -> np.ndarray:
        out = np.ones((count, t.size), dtype=np.complex128)
        if count > 1:
            out[1] = exponentials(k)
            for j in range(2, count):
                np.multiply(out[j - 1], out[1], out=out[j])
        return out

    count = top // width + 1
    if count + width + 32 > 16 * m.size:
        out = np.ones((t.size, m.size), dtype=np.complex128)  # frequency 0 costs nothing
        out[:, m > 0] = exponentials(m[m > 0])
        return out.T
    large, small = powers(width, count), powers(1, width)
    return (large.T[:, m // width] * small.T[:, m % width]).T


def _moment_integrands(
    lam: float, betas: np.ndarray, m: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The band-moment and bound-state kernels at nodes ``t`` and ``pi - t``, and the basis at ``t``.

    A node ``t`` of ``[0, pi/2]`` stands for itself and its mirror
    ``pi - t``, where ``cos`` changes sign, ``sin`` and so every field ratio
    are unchanged, and ``e^{im(pi - t)} = (-1)^m conj e^{imt}``: one basis
    serves both halves, and ``band_moments`` combines their sums.  The
    kernels are real, shape ``(13, N)``: the plane, cross and scattered
    kernels of ``BandMoments``, each for ``beta_l`` then ``beta_r``, at
    ``t``, the same six at ``pi - t``, then the bound-state kernel of
    ``_bound_kernels``, both halves folded, left out at zero field.  The
    basis is ``_frequency_basis``, shape ``(M, N)``, mostly built by
    products.
    The field kernels are ``sign(lam) q e / r`` and ``e^2 / r`` in the
    ratios ``numerics.field_ratios(sin t, |lam|)``: no field is squared,
    so they stay finite from the smallest subnormal field to the largest
    double.  Their near-poles at distance ~asinh|lam| off ``t = 0`` are
    resolved by the grading of ``_moment_mesh``.
    """
    cos = np.cos(t)
    rho = planck_density(betas[:, None], np.stack([cos, -cos])[:, None])  # (half, reservoir, N)
    _, q, e, r = field_ratios(np.sin(t), abs(lam))
    fields = np.stack([np.ones_like(t), math.copysign(1.0, lam) * q * e / r, e * e / r])
    kernels = (rho[:, None] * fields[:, None]).reshape(-1, t.size)  # by half, family, reservoir
    if lam != 0.0:
        kernels = np.concatenate([kernels, _bound_kernels(lam, betas, t, rho)])
    return kernels, _frequency_basis(m, t)


def band_moments(
    lam: float,
    th: ThermalConfig,
    frequencies,
    spec: QuadratureSpec | None = None,
) -> BandMoments:
    """Band moments of both reservoirs and their bound-state integral, on one mesh.

    The moments are computed at frequency 0 and every ``|m|`` given;
    ``B(-m) = conj B(m)``.  The kernels and the frequency basis of
    ``_moment_integrands`` are sampled once on the graded half-band mesh
    of ``_moment_mesh``, at every finite field alike, and
    ``numerics.refine_panels`` contracts them panel by panel in one batched
    product and certifies them, each family, reservoir and half a group
    weighted by ``_moment_weights``; a moment is then the near half's sum
    plus ``(-1)^m`` times the conjugate of the far half's.  At frequency 0
    both reservoirs get the mean of their two moments, which are equal, as
    ``rho(cos t) + rho(-cos t) = 1``; so at a huge field, where the
    scattered kernels are the plane ones, ``s(x, x)`` cancels to exactly
    its bound-state part, whatever the temperatures.  The estimate,
    the Gauss gaps maximized over the frequencies plus the summation
    roundoff (about 9e-16), plus the end panel's bound where
    ``_moment_floor`` stops the grading, bounds the error of any matrix
    element; above ``spec.abs_tol`` the mesh is refined or NonConvergence
    raised, as ``refine_panels`` says.
    """
    spec = spec if spec is not None else QuadratureSpec()
    read = [np.abs(np.ravel(f)) for f in frequencies]
    seen = np.zeros(max((int(f.max()) for f in read if f.size), default=0) + 1, dtype=bool)
    seen[0] = True
    for f in read:
        seen[f] = True
    m = np.flatnonzero(seen)
    betas = np.array([th.beta_l, th.beta_r])
    weights = _moment_weights(lam, m)
    floor = _moment_floor(lam, betas, weights, spec.abs_tol)
    sample = partial(_moment_integrands, lam, betas, m)
    edges = _moment_mesh(lam, th.beta_r, int(m[-1]), floor)
    sums, error, _ = refine_panels(sample, edges, weights, spec, f"band moments at lam={lam!r}")
    far, odd = sums[6:12].conj(), m % 2 == 1
    far[:, odd] = -far[:, odd]
    moments = (sums[:6] + far).reshape(3, 2, -1)
    moments[:, :, 0] = 0.5 * moments[:, :, 0].sum(axis=1, keepdims=True)
    bound = float(sums[12, 0].real) if lam != 0.0 else None
    end = _END_SHARE * spec.abs_tol if floor else 0.0
    return BandMoments(m, *moments, bound, error + end)


def ac_overlap(
    params: ModelParams,
    th: ThermalConfig,
    x: int,
    y: int,
    spec: QuadratureSpec | None = None,
) -> complex:
    """Band contribution to the steady-state two-point function at ``(x, y)``.

    The overlap ``integral dk/2pi conj(w e_x)(k) theta(k) (w e_y)(k)`` with
    ``theta`` the thermal symbol: the Toeplitz-plus-Hankel sum of
    ``BandMoments.overlap`` over the band moments at ``y - x`` and
    ``x + y``, certified at every finite field.
    """
    moments = band_moments(params.lam, th, (y - x, x + y), spec)
    return complex(moments.overlap(x, y))


def bound_weight(params: ModelParams, th: ThermalConfig, bound: float) -> float:
    """Thermal weight on the bound state from the integral ``BandMoments.bound``.

    The band integral of ``_bound_kernels`` enters at
    ``sign(lam) (2/pi) e^{-2 alpha nu} |lam| / sqrt(1 + lam^2)``; the rest
    is closed: the edge occupations times Parseval's ``q^2/(1 - q^2)``, and
    the ``2 nu + 1`` sample sites, each occupied 1/2.
    """
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
    edge = planck_density(th.beta_l, sign) + planck_density(th.beta_r, sign)
    # prefactor q^2/(1 - q^2), with |lam|/gap formed first: both may be subnormal
    geometric = scale * (abs(lam) / gap) * r * r / (1.0 + r)
    # Sample sites hold occupation 1/2 each: a geometric sum of amplitude^2.
    tail = math.expm1(-2.0 * alpha * nu) / math.expm1(-2.0 * alpha)
    sample = 0.5 * state.amplitude(0) ** 2 * (1.0 + 2.0 * r * r * tail)
    return geometric * edge + sign * (2.0 / _PI) * prefactor * bound + sample


@lru_cache(maxsize=128)
def _pp_weight_cached(params: ModelParams, th: ThermalConfig, spec: QuadratureSpec) -> float:
    return bound_weight(params, th, band_moments(params.lam, th, [0], spec).bound)


def pp_weight(
    params: ModelParams,
    th: ThermalConfig,
    spec: QuadratureSpec | None = None,
) -> float:
    """Thermal weight of the initial state on the bound state, in [0, 1].

    Defined at every nonzero field; zero field, where ``bound_state`` raises
    NoBoundState, returns 0.  The band integral of both reservoirs is
    that of ``band_moments`` at frequency 0, sampled on its mesh, graded
    toward the band edges from the decay rate ``alpha = asinh|lam|`` and
    toward ``k = pi/2`` from ``1/beta_r``, and certified to
    ``spec.abs_tol``, summation roundoff included, or NonConvergence
    raised; ``bound_weight`` adds the rest in closed form.
    """
    if params.lam == 0.0:
        return 0.0
    return _pp_weight_cached(params, th, spec if spec is not None else QuadratureSpec())
