"""Deterministic quadrature rules and closed-form series sums.

One rule serves every integral: ``panel_rule``, a fixed Gauss-Kronrod pair
on the panels of a mesh, usually ``graded_mesh``.  ``refine_panels`` alone
samples on it: it sums a family of integrands panel by panel, estimates
the error from the embedded Gauss rule and the roundoff of the sums, and
bisects panels until the estimate meets the tolerance.  A family is
kernels times a shared basis, as the band moments are (every kernel times
``e^{imt}`` at every frequency), or kernels alone: each panel's sums are
one product of its weighted kernels with the basis, or their sums over
the nodes, and no integrand is ever formed.  Every closed form is
certified there; ``adaptive_integrate`` does the same for one scalar
integrand on an arbitrary interval, and has no caller in the library.
``field_ratios`` holds the one form in which the field kernels are written.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError, InvalidInterval, NonConvergence


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for one integral or one family of integrals.

    abs_tol: bound on the certified error estimate: the embedded Gauss
        rule's distance from the Kronrod rule plus the summation roundoff.
    max_subdivisions: how many panels ``refine_panels`` may add to the
        starting mesh by bisection.
    """

    abs_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError("abs_tol must be a positive finite number")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float | complex
    error_estimate: float
    subdivisions_used: int


# The 21-point Kronrod extension of the 10-point Gauss-Legendre rule on
# [-1, 1] (QUADPACK's qk21): the nonnegative nodes from the outside in, the
# Gauss nodes at the odd positions, and the weights of both rules there.
_GK21_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_GK21_KRONROD = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_GAUSS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _mirrored(half, sign: float = 1.0) -> np.ndarray:
    """Extend values given at ``_GK21_NODES`` to all 21 nodes in ascending order."""
    half = np.asarray(half, dtype=float)
    return np.concatenate([sign * half, half[-2::-1]])


_GK_NODES = _mirrored(_GK21_NODES, sign=-1.0)
_GK_WEIGHTS = _mirrored(_GK21_KRONROD)
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:20:2] = _GK21_GAUSS + _GK21_GAUSS[::-1]  # no Gauss node at 0


# longest panel of a graded mesh
_MAX_PANEL = math.pi / 16


def panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """21-point Gauss-Kronrod nodes and weights on every panel of ``edges``.

    Returns arrays of shape ``(panels, 21)``: the nodes, the Kronrod
    weights, and the weights of the embedded 10-point Gauss rule.  The
    difference of the two rules on a panel estimates the error of the
    Gauss rule there, which bounds that of the Kronrod rule many times over
    on smooth integrands.
    """
    edges = np.asarray(edges, dtype=float)
    left, right = edges[:-1, None], edges[1:, None]
    half, mid = 0.5 * (right - left), 0.5 * (left + right)
    return mid + half * _GK_NODES, half * _GK_WEIGHTS, half * _G_WEIGHTS


def graded_mesh(lam: float, beta: float, end: float, step: float = math.inf) -> np.ndarray:
    """Panel edges on ``[0, end]``, ``end`` being ``pi/2`` or ``pi``.

    Graded geometrically, ratio 2, toward ``t = 0`` and ``t = pi`` from
    ``|lam|/8``, or the smallest subnormal if that rounds to zero (not at
    all at ``lam = 0``), where a field kernel
    ``1/(sin^2 t + lam^2)`` has near-poles at distance ~|lam| off the axis,
    and toward ``t = pi/2`` from ``1/beta``, where a Fermi factor of
    ``cos t`` has poles at distance ``pi/beta`` off the axis; then split
    into panels no longer than ``min(pi/16, step)``.  Each graded panel is
    at least its own length away from the nearest pole, where the 10-point
    Gauss rule of ``panel_rule`` is accurate to ~1e-15 relative.
    """
    half = 0.5 * math.pi
    points = [0.0, half, end]
    if lam != 0.0:
        s = max(abs(lam) / 8.0, math.ulp(0.0))
        while s < half:
            points += [s, math.pi - s]
            s *= 2.0
    s = 1.0 / beta
    while s < half:
        points += [half - s, half + s]
        s *= 2.0
    points.sort()
    points = points[: bisect.bisect_right(points, end)]
    longest = min(_MAX_PANEL, step)
    mesh = []
    for a, b in zip(points, points[1:]):
        if b == a:
            continue
        pieces = math.ceil((b - a) / longest)
        if pieces == 1:
            mesh.append(a)
        else:
            # each piece as np.linspace(a, b, pieces, endpoint=False) makes it
            size = (b - a) / pieces
            mesh += [a + i * size for i in range(pieces)]
    mesh.append(end)
    return np.array(mesh)


# elements one chunk of panels samples; wider families are sampled a few
# panels at a time
_CHUNK_ELEMENTS = 3 << 14
# roundoff of a sum per unit of its weighted magnitude
_ROUNDOFF = 8.0 * sys.float_info.epsilon


def field_ratios(s, a):
    """``(p, q, e, r)`` with ``p = max(s, a)``, ``q = s/p``, ``e = a/p``, ``r = 1 + (q e)^2``.

    For ``s, a >= 0`` the field kernels are written in these: ``r`` is
    ``(s^2 + a^2)/p^2``, because one of ``q``, ``e`` is exactly 1, and no
    ``s`` or ``a`` is squared, so the kernels stay finite from the smallest
    subnormal field to the largest double.
    """
    p = np.maximum(s, a)
    q, e = s / p, a / p
    return p, q, e, 1.0 + (q * e) ** 2


def refine_panels(
    sample: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]],
    edges: np.ndarray,
    weights: np.ndarray,
    spec: QuadratureSpec,
    what: str,
) -> tuple[np.ndarray, float, int]:
    """Certify the integrals of a family of integrands on the panels of ``edges``.

    ``sample(t)`` gives ``(kernels, basis)`` at the flat nodes ``t`` of
    ``panel_rule(edges)``, each node once per round and a chunk of panels
    at a time.  ``kernels`` is ``(G, t.size)`` and ``basis`` ``(K, t.size)``,
    or None for ``K = 1``, the kernels being the integrands; integrand
    ``(g, k)`` is ``kernels[g] * basis[k]`` and enters a result times
    ``weights[g, k]``.  A chunk holds about ``_CHUNK_ELEMENTS`` sampled
    elements, ``G + K`` per node, so its panel count is fixed by
    ``weights.shape`` before the first sample.

    Each chunk stacks every panel's kernels times its Kronrod weights and
    times its Kronrod-minus-Gauss weights, shape ``(panels, 2G, 21)``; one
    batched product with the basis, or without one the sums over the 21
    nodes, gives each panel's Kronrod sums and Gauss-Kronrod gaps.  A
    complex basis enters that product as interleaved real and imaginary
    columns, so the real kernels are multiplied in real arithmetic; it is
    read fastest along ``K``, so the transpose of a C-ordered ``(N, K)``
    array is read without a copy.  A chunk's panel sums are added in panel
    order, and the chunks' in turn.

    The estimate sums each group's largest weighted Gauss-Kronrod gap over
    the groups and panels, plus the summation roundoff, ``8 eps`` times the
    sum over the groups of the largest weighted ``|integral|``.  While it
    exceeds ``spec.abs_tol``, the panels above their share of what the
    roundoff leaves are bisected.  Returns the Kronrod integrals, shape
    ``(G, K)``, the estimate and the panel count.  Raises NonConvergence,
    naming ``what``, for a non-finite estimate, when the roundoff alone
    reaches ``spec.abs_tol``, and past ``spec.max_subdivisions`` bisections.
    """
    n_groups, n_basis = weights.shape
    step = max(1, _CHUNK_ELEMENTS // ((n_groups + n_basis) * _GK_NODES.size))
    cap = edges.size - 1 + spec.max_subdivisions
    while True:
        t, wk, wg = panel_rule(edges)
        n_panels, dw = t.shape[0], wk - wg
        # per group, the largest weighted gap on each panel
        gaps = np.empty((n_groups, n_panels))
        for start in range(0, n_panels, step):
            sl = slice(start, start + step)
            kernels, basis = sample(t[sl].ravel())
            kernels = kernels.reshape(n_groups, -1, _GK_NODES.size).transpose(1, 0, 2)
            stacked = np.concatenate([kernels * wk[sl, None], kernels * dw[sl, None]], axis=1)
            # per panel, the Kronrod sums and then the gaps, (p, 2G, K)
            if basis is None:
                sums = stacked.sum(axis=2, keepdims=True)
            else:
                # (p, 21, K), a complex one multiplied as (p, 21, 2K) reals
                basis = np.ascontiguousarray(basis.T).reshape(-1, _GK_NODES.size, n_basis)
                sums = (stacked @ basis.view(basis.real.dtype)).view(basis.dtype)
            part = sums[:, :n_groups].sum(axis=0)
            values = part if start == 0 else values + part
            gaps[:, sl] = (weights * np.abs(sums[:, n_groups:])).max(axis=2).T
        panel_err = gaps.sum(axis=0)
        roundoff = _ROUNDOFF * float((weights * np.abs(values)).max(axis=1).sum())
        error = float(panel_err.sum()) + roundoff
        if not math.isfinite(error):
            raise NonConvergence(f"{what} are not finite")
        if error <= spec.abs_tol:
            return values, error, n_panels
        split = panel_err > (spec.abs_tol - roundoff) / n_panels
        if roundoff >= spec.abs_tol or n_panels + int(split.sum()) > cap:
            raise NonConvergence(
                f"{what}: error estimate {error:.3e} above {spec.abs_tol:.3e} "
                f"after {n_panels} panels, {roundoff:.3e} of it summation roundoff"
            )
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])[split]]))


def adaptive_integrate(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` to the accuracy demanded by ``spec``.

    ``f`` is called on one float node at a time, on the ``panel_rule``
    panels of ``[a, b]``, and ``refine_panels`` bisects them until the
    embedded Gauss estimate plus the summation roundoff is within
    ``spec.abs_tol``.  The value is complex when any sample is;
    ``subdivisions_used`` is the panel count of the final mesh.

    Raises InvalidInterval unless ``a < b`` and ``b - a`` is finite, and
    NonConvergence as ``refine_panels`` does.
    """
    spec = spec if spec is not None else QuadratureSpec()
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise InvalidInterval(f"need a finite interval with a < b, got [{a}, {b}]")

    def sample(t):
        return np.array([f(x) for x in t.tolist()]), None

    what = f"integrand samples on [{a:g}, {b:g}]"
    values, error, panels = refine_panels(sample, np.array([a, b]), np.ones((1, 1)), spec, what)
    value = complex(values[0, 0]) if np.iscomplexobj(values) else float(values[0, 0])
    return QuadratureResult(value=value, error_estimate=error, subdivisions_used=panels)


def geometric_sine_sum(q: float, k: float) -> float:
    """Closed form of ``sum_{n>=1} q^n sin(n k)`` for ``|q| < 1``.

    Equals ``q sin k / (1 - 2 q cos k + q^2)``.  The denominator is
    evaluated as ``(1-|q|)^2 + 4|q| sin^2(k/2)`` (``cos^2`` when ``q < 0``),
    a sum of nonnegative terms; the textbook form cancels catastrophically
    near the peak as ``|q| -> 1``, which is where the sum matters.
    """
    if not abs(q) < 1.0:
        raise DomainError(f"geometric ratio must satisfy |q| < 1, got {q}")
    r = abs(q)
    osc = math.sin(0.5 * k) if q >= 0.0 else math.cos(0.5 * k)
    return q * math.sin(k) / ((1.0 - r) ** 2 + 4.0 * r * osc * osc)
