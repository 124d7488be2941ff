"""Independent reference computations for the test suite.

Everything here is written against the definitions directly, avoiding the
package's own quadrature and special-function paths: plain Fermi factors,
vectorized midpoint Riemann sums, central differences, and raw partial sums.
Slower and cruder than the package by design; the only job is to disagree
when the package is wrong.  The sampling twins, ``moment_products`` and
``bound_integrals_standalone``, share the package's panel rule and differ
in how and where they sample.  ``overlap_gather`` sums given band moments
as the package once did, term by term.
"""

import cmath
import math
import weakref
from decimal import Decimal, localcontext
from operator import mul

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.blas import dgemm, zgemm

from nesslab.model import OperatorKind, operator_stencil, planck_density
from nesslab.numerics import QuadratureSpec, graded_mesh, panel_rule, refine_panels


def fermi(r: float, e):
    return 1.0 / (1.0 + np.exp(r * np.asarray(e, dtype=float)))


def fermi_difference(beta_l: float, beta_r: float, e):
    return fermi(beta_l, e) - fermi(beta_r, e)


def riemann(f, a: float, b: float, n: int = 1_000_000) -> float:
    """Midpoint rule with n panels; f must accept a numpy array."""
    x = a + (np.arange(n) + 0.5) * ((b - a) / n)
    return float(np.mean(f(x)) * (b - a))


def riemann_complex(f, a: float, b: float, n: int = 1_000_000) -> complex:
    x = a + (np.arange(n) + 0.5) * ((b - a) / n)
    return complex(np.mean(f(x)) * (b - a))


def flux_riemann(beta_l: float, beta_r: float, lam: float, n: int = 1_000_000) -> float:
    """Band-average form of the left-reservoir flux, by brute midpoint sum."""

    def integrand(k):
        e = np.cos(k)
        s = 1.0 - e * e
        corr = 1.0 if lam == 0.0 else s / (s + lam * lam)
        return 0.5 * e * np.sqrt(np.maximum(s, 0.0)) * fermi_difference(beta_l, beta_r, e) * corr

    return riemann(integrand, -math.pi, math.pi, n) / (2.0 * math.pi)


def f2_at_zero_riemann(beta_l: float, beta_r: float, n: int = 1_000_000) -> float:
    """Zero-field limit of the log-split remainder, ``int_0^1 (f(x) - f0)/x dx``.

    ``f(x)`` is the occupation difference at energy ``sqrt(1 - x^2)`` and
    ``f0 = f(0)`` its band-edge value; the integrand vanishes like ``x`` at
    the origin, so the midpoint sum needs no special care there.
    """
    f0 = fermi_difference(beta_l, beta_r, 1.0)

    def integrand(x):
        return (fermi_difference(beta_l, beta_r, np.sqrt(1.0 - x * x)) - f0) / x

    return riemann(integrand, 0.0, 1.0, n)


def symbol_coefficient(beta_l: float, beta_r: float, d: int, n: int = 1_000_000) -> complex:
    """Fourier coefficient of the two-temperature momentum symbol."""

    def integrand(k):
        occ = np.where(k <= 0.0, fermi(beta_r, np.cos(k)), fermi(beta_l, np.cos(k)))
        return occ * np.exp(1j * d * k)

    return riemann_complex(integrand, -math.pi, math.pi, n) / (2.0 * math.pi)


def _fermi_scalar(r: float, e: float) -> float:
    z = r * e
    if z > 0.0:
        q = math.exp(-z)
        return q / (1.0 + q)
    return 1.0 / (1.0 + math.exp(z))


def _field_cuts(lam: float, end: float) -> list[float]:
    """Cuts on ``[0, end]``, geometric toward 0 from ``|lam|/8``, ratio 2."""
    cuts = {0.0, end}
    s = abs(lam) / 8.0
    while 0.0 < s < end:
        cuts.add(s)
        s *= 2.0
    return sorted(cuts)


def _graded_edges(lam: float, beta_r: float) -> list[float]:
    """Cuts on ``[0, pi]``: ``_field_cuts`` on ``[0, pi/2]`` mirrored about
    pi/2, and geometric toward pi/2 from ``1/beta_r``, ratio 2."""
    half = 0.5 * math.pi
    cuts = {c for s in _field_cuts(lam, half) for c in (s, math.pi - s)}
    s = 1.0 / beta_r
    while s < half:
        cuts |= {half - s, half + s}
        s *= 2.0
    return sorted(cuts)


def graded_mesh_by_pieces(lam: float, beta: float, end: float, step: float = math.inf):
    """``numerics.graded_mesh`` written out: the same cuts, one ``linspace`` per piece."""
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
    edges = np.unique(points)
    edges = edges[edges <= end]
    pieces = np.ceil(np.diff(edges) / min(math.pi / 16, step)).astype(int)
    parts = [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(edges[:-1], edges[1:], pieces)]
    return np.concatenate([*parts, [end]])


def _quad_cut(f, edges) -> float:
    return sum(
        quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def log_term_integral(lam: float) -> float:
    """``integral_0^1 x^3 / (x^2 + lam^2)^2 dx``, the explicit log term's
    integral (``F1 = f0`` times it), by raw ``quad`` cut at ``x ~ lam``."""
    return _quad_cut(lambda x: x**3 / (x * x + lam * lam) ** 2, _field_cuts(lam, 1.0))


def pp_weight_direct(lam: float, beta_l: float, beta_r: float, nu: int = 0) -> float:
    """Thermal weight of the decoupled initial state on the bound state, by raw ``quad``.

    Per reservoir, ``(2/pi) integral_0^pi rho(cos k) S(q, k)^2 dk`` with
    ``S(q, k) = q sin k / ((1 - |q|)^2 + 4 |q| sin^2(k/2))`` (``cos^2`` for
    ``q < 0``), the sine transform of the eigenvector's tail, ``q =
    sign(lam) e^{-alpha}``: Parseval takes the edge density's share,
    ``rho_edge q^2 / (1 - q^2)``, and ``quad`` the rest, cut at the
    width-``alpha`` features next to ``k = 0`` and ``k = pi`` and at the
    Fermi edge.  ``1 - |q|`` is ``-expm1(-alpha)``.  Times ``e^{-2 alpha nu}
    / norm_sq``, plus ``1/2`` per sample site.
    """
    alpha = math.asinh(abs(lam))
    r = math.exp(-alpha)
    tail = -math.expm1(-alpha)  # 1 - r
    q = math.copysign(r, lam)
    edge = 1.0 if lam > 0.0 else -1.0
    norm_sq = math.hypot(1.0, lam) / abs(lam)

    def sine_sum(k: float) -> float:
        osc = math.sin(0.5 * k) if lam > 0.0 else math.cos(0.5 * k)
        return q * math.sin(k) / (tail * tail + 4.0 * r * osc * osc)

    total = 0.0
    for beta in (beta_l, beta_r):
        rho_edge = _fermi_scalar(beta, edge)
        band = _quad_cut(
            lambda k: (_fermi_scalar(beta, math.cos(k)) - rho_edge) * sine_sum(k) ** 2,
            _graded_edges(alpha, beta_r),
        )
        total += rho_edge * r * r / (tail * (1.0 + r)) + (2.0 / math.pi) * band
    sample = 0.5 * sum(math.exp(-2.0 * alpha * abs(x)) for x in range(-nu, nu + 1))
    return (math.exp(-2.0 * alpha * nu) * total + sample) / norm_sq


def bound_integrals_standalone(lam: float, beta_l: float, beta_r: float) -> tuple[np.ndarray, float]:
    """Both reservoirs' band integrals of the bound-state weight, on a mesh of their own.

    The integrals that ``scattering.BandMoments.bound`` holds, sampled in
    ``k`` with the kernel of ``lam > 0`` at either sign (for ``lam < 0``
    the map ``k -> pi - k`` leaves the integral unchanged): with
    ``v, w = sin(k/2), cos(k/2)``, ``x = 2 beta v^2``, ``c = 2 sqrt(r) v``,
    ``r = e^{-alpha}`` and ``gap = 1 - r``, the kernel
    ``rho(-1) rho(cos k) (beta/2) ((1 - e^{-x})/x) w^2 (c / hypot(gap, c))^4``.
    On ``graded_mesh(alpha, beta_r, pi)``, certified by ``refine_panels``
    at the weight ``(2/pi) |lam| / sqrt(1 + lam^2)``.  Returns the two
    integrals and the weighted estimate.
    """
    alpha = math.asinh(abs(lam))
    r, gap = math.exp(-alpha), -math.expm1(-alpha)
    betas = np.array([beta_l, beta_r])[:, None]

    def sample(k):
        v = np.sin(0.5 * k)
        c = (2.0 * math.sqrt(r)) * v
        x = 2.0 * betas * v * v
        safe = np.where(x > 0.0, x, 1.0)
        expm1_ratio = np.where(x > 0.0, -np.expm1(-safe) / safe, 1.0)
        kernels = (
            planck_density(betas, -1.0)
            * planck_density(betas, np.cos(k))
            * (0.5 * betas)
            * expm1_ratio
            * np.cos(0.5 * k) ** 2
            * (c / np.hypot(gap, c)) ** 4
        )
        return kernels, None

    weights = np.full((2, 1), (2.0 / math.pi) * (abs(lam) / math.hypot(1.0, lam)))
    edges = graded_mesh(alpha, beta_r, math.pi)
    values, error, _ = refine_panels(sample, edges, weights, QuadratureSpec(), "bound-state integrals")
    return values[:, 0], error


def _field_kernels(lam: float, x2: float) -> tuple[float, float, float]:
    """``1/D``, ``-2 lam/D^2`` and ``-2/D^2 + 8 lam^2/D^3`` for ``D = x2 + lam^2``:
    the field suppression of the flux and its two field derivatives, per ``x2``."""
    den = x2 + lam * lam
    return 1.0 / den, -2.0 * lam / den**2, -2.0 / den**2 + 8.0 * lam * lam / den**3


def flux_arcsin(beta_l: float, beta_r: float, lam: float) -> tuple[float, float, float]:
    """``J``, ``J'`` and ``J''`` from the arcsin form, by raw ``quad``.

    ``J = (1/pi) integral_0^1 f(x) x^3 / (x^2 + lam^2) dx`` with
    ``f(x)`` the occupation difference at energy ``sqrt(1 - x^2)``, and its
    derivatives in ``lam`` under the integral sign; cut at the width-``lam``
    feature at ``x = 0``.
    """

    def part(i: int):
        def integrand(x: float) -> float:
            e = math.sqrt(max(0.0, 1.0 - x * x))
            occ = _fermi_scalar(beta_l, e) - _fermi_scalar(beta_r, e)
            return occ * x**3 * _field_kernels(lam, x * x)[i] / math.pi

        return _quad_cut(integrand, _field_cuts(lam, 1.0))

    return part(0), part(1), part(2)


def flux_momentum(beta_l: float, beta_r: float, lam: float) -> tuple[float, float, float]:
    """``J``, ``J'`` and ``J''`` from the band-average form, by raw ``quad``.

    ``J = 1/2 integral_{-pi}^{pi} dk/2pi e |sin k| rho_diff(e) corr(lam, e)``
    with ``e = cos k`` and ``corr = sin^2 k / (sin^2 k + lam^2)``, and its
    derivatives in ``lam`` under the integral sign; the whole period is
    cut at ``k = 0, +-pi/2, +-pi`` and geometrically at the width-``lam``
    features next to ``k = 0`` and ``k = +-pi``.
    """
    half = 0.5 * math.pi
    cuts = _field_cuts(lam, half)
    cuts = cuts + [math.pi - c for c in reversed(cuts[:-1])]
    edges = [-c for c in reversed(cuts[1:])] + cuts

    def part(i: int):
        def integrand(k: float) -> float:
            e, s = math.cos(k), abs(math.sin(k))
            occ = _fermi_scalar(beta_l, e) - _fermi_scalar(beta_r, e)
            return e * s**3 * occ * _field_kernels(lam, s * s)[i] / (4.0 * math.pi)

        return _quad_cut(integrand, edges)

    return part(0), part(1), part(2)


def overlap_direct(lam: float, beta_l: float, beta_r: float, x: int, y: int) -> complex:
    """Band overlap ``integral dk/2pi conj(W_x) theta W_y``, by raw ``quad``.

    ``W_x(k) = e^{ikx} + i lam e^{i|k||x|} / (sin|k| - i lam)`` is the wave
    operator applied to the basis vector at ``x``, and ``theta`` the
    occupation symbol: the right reservoir's Fermi factor of ``cos k`` for
    ``k <= 0``, the left one's for ``k > 0``.  The integrand is taken as
    defined, with no subtraction; the momentum interval is cut at its
    width-``lam`` features next to ``k = 0`` and ``k = +-pi`` and at the
    width-``1/beta`` Fermi edges at ``k = +-pi/2``, and every panel goes to
    ``quad`` on its own.
    """

    def wave(k: float, site: int) -> complex:
        ak = abs(k)
        return cmath.exp(1j * k * site) + 1j * lam * cmath.exp(1j * ak * abs(site)) / (
            math.sin(ak) - 1j * lam
        )

    def integrand(k: float) -> complex:
        occ = _fermi_scalar(beta_r if k <= 0.0 else beta_l, math.cos(k))
        return wave(k, x).conjugate() * occ * wave(k, y)

    edges = _graded_edges(lam, beta_r)
    total = 0j
    for sign in (-1.0, 1.0):
        for a, b in zip(edges[:-1], edges[1:]):
            lo, hi = sorted((sign * a, sign * b))
            for part, unit in ((lambda k: integrand(k).real, 1.0), (lambda k: integrand(k).imag, 1j)):
                total += unit * quad(part, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total / (2.0 * math.pi)


def overlap_gather(moments, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Band overlap from ``BandMoments`` by six frequency arrays and twelve gathers.

    The plane term reads ``+-(y - x)``; the wave products read ``m1, m2`` of
    the left reservoir, ``m1r, m2r`` of the right one, and ``m3`` of both,
    each moment looked up on its own and conjugated at a negative
    frequency.  The twin of the Toeplitz and Hankel tables of
    ``BandMoments.overlap``, which sum the same twelve terms in another
    order.  Returns the overlap and the sum of its terms' magnitudes, the
    scale of its rounding, both over ``2 pi``.
    """
    x, y = np.asarray(x), np.asarray(y)
    ax, ay = np.abs(x), np.abs(y)
    d, m1, m2, m1r, m2r, m3 = y - x, ay - x, y - ax, ay + x, -y - ax, ay - ax

    def at(row, m):
        i = np.searchsorted(moments.frequencies, np.abs(m))
        assert np.array_equal(moments.frequencies[i], np.abs(m)), "frequency not computed"
        return np.where(m < 0, row[i].conj(), row[i])

    p, c, s = moments.plane, moments.cross, moments.scattered
    plane = [at(p[0], d), at(p[1], -d)]
    cross = [at(c[0], m1), -at(c[0], m2), at(c[1], m1r), -at(c[1], m2r)]
    scattered = [at(s[0], m1), at(s[0], m2), -at(s[0], m3), at(s[1], m1r), at(s[1], m2r), -at(s[1], m3)]
    value = sum(plane) + 1j * sum(cross) - sum(scattered)
    scale = sum(np.abs(term) for term in plane + cross + scattered)
    return value / (2.0 * math.pi), scale / (2.0 * math.pi)


def moment_products(lam: float, betas, m, edges, chunk: int = 64) -> np.ndarray:
    """Band moments from the full product array, on the panels of ``edges``.

    The plane, cross and scattered kernels of ``scattering.BandMoments``,
    in the same no-square field form, are each multiplied by ``e^{imt}``
    for every frequency into one ``(3, 2, M, N)`` complex array per
    ``chunk`` panels, and that array is contracted with the Kronrod weights
    by one einsum; the chunks' sums are added in order.  The twin of the
    factored kernel-times-basis product of ``numerics.refine_panels``.
    """
    t, wk, _ = panel_rule(edges)
    betas, m = np.asarray(betas, dtype=float), np.asarray(m)
    sign, a = math.copysign(1.0, lam), abs(lam)
    total = 0.0
    for start in range(0, t.shape[0], chunk):
        nodes, w = t[start : start + chunk].ravel(), wk[start : start + chunk].ravel()
        rho = planck_density(betas[:, None], np.cos(nodes))[:, None, :]
        plane = rho * np.exp(1j * np.multiply.outer(m, nodes))
        sin = np.sin(nodes)
        p = np.maximum(sin, a)
        q, e = sin / p, a / p
        r = q * q + e * e
        products = np.stack([plane, plane * (sign * q * e / r), plane * (e * e / r)])
        total = total + np.einsum("fbmn,n->fbm", products, w)
    return total


def _cos_sin(x: Decimal, tiny: Decimal) -> tuple[Decimal, Decimal]:
    """``cos x`` and ``sin x`` from the Taylor series of ``e^{ix}``, to ``tiny``."""
    c, s, term, n = Decimal(0), Decimal(0), Decimal(1), 0
    while abs(term) > tiny:
        if n % 2 == 0:
            c += term if n % 4 == 0 else -term
        else:
            s += term if n % 4 == 1 else -term
        n += 1
        term = term * x / n
    return c, s


def kronrod_sums_decimal(lam: float, betas, m, t, wk, digits: int = 30) -> list:
    """Band-moment Kronrod sums on the nodes ``t`` and ``pi - t`` with weights ``wk``, at ``digits`` digits.

    ``sum_n wk[n] (kernel(t[n]) e^{i m t[n]} + kernel(pi - t[n]) e^{i m (pi - t[n])})``
    for the plane, cross and scattered kernels of ``scattering.BandMoments``
    (rows as there: family then reservoir), from their definitions,
    ``1 / (1 + e^{beta cos t})``, ``lam sin t / (sin^2 t + lam^2)`` and
    ``lam^2 / (sin^2 t + lam^2)``, with every node and weight the exact
    value of its double and ``pi - t[n]`` exact too: there ``cos`` changes
    sign, ``sin`` does not, and ``e^{i m (pi - t)} = (-1)^m conj e^{imt}``.
    The weighted kernels, cosine and sine (by their series) are evaluated
    in decimal arithmetic ten digits beyond ``digits`` and rounded to
    integers in units of ``2^-(4 digits)``; the frequencies are then powers
    of ``e^{it}`` by recurrence in those units, and each sum over the nodes
    is exact in integers.  Returns rows of ``(re, im)`` pairs of Decimals,
    shape ``(6, len(m))``.
    """
    m = [int(k) for k in m]
    bits = 4 * digits
    one = Decimal(1 << bits)
    with localcontext() as ctx:
        ctx.prec = digits + 10
        tiny = Decimal(10) ** -(digits + 15)
        lam_d = Decimal(lam)

        def fixed(x: Decimal) -> int:
            return int((x * one).to_integral_value())

        kernels, cos, sin = [], [], []
        for node, weight in zip(np.ravel(t).tolist(), np.ravel(wk).tolist()):
            c, s = _cos_sin(Decimal(node), tiny)
            d = s * s + lam_d * lam_d
            field = (lam_d * s / d, lam_d * lam_d / d)
            row = []
            for sign in (1, -1):  # at t, then at pi - t
                rho = [1 / (1 + (Decimal(beta) * sign * c).exp()) for beta in betas]
                row += [fixed(Decimal(weight) * r * f) for f in (1, *field) for r in rho]
            kernels.append(row)
            cos.append(fixed(c))
            sin.append(fixed(s))
        rows = list(zip(*kernels))
        re, im = [1 << bits] * len(cos), [0] * len(cos)
        sums = {}
        for k in range(max(m) + 1):
            if k in m:
                half = [(sum(map(mul, row, re)), sum(map(mul, row, im))) for row in rows]
                sign = -1 if k % 2 else 1
                sums[k] = [(a + sign * c, b - sign * d) for (a, b), (c, d) in zip(half[:6], half[6:])]
            re, im = (
                [(a * c - b * s) >> bits for a, b, c, s in zip(re, im, cos, sin)],
                [(a * s + b * c) >> bits for a, b, c, s in zip(re, im, cos, sin)],
            )
        scale = one * one
        return [[(Decimal(sums[k][i][0]) / scale, Decimal(sums[k][i][1]) / scale) for k in m] for i in range(6)]


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sine_partial_sum(q: float, k: float, n_terms: int = 10_000) -> float:
    n = np.arange(1, n_terms + 1, dtype=float)
    return float(np.sum(q**n * np.sin(n * k)))


def dense_hamiltonians(M: int, params) -> dict:
    """The window's three Hamiltonians as dense ``n x n`` matrices.

    Filled entry by entry from the stencil with a plain loop; the oracle's
    tridiagonal storage and eigensolves are checked against these.
    """
    sites = list(range(-M, M + 1))
    n = len(sites)
    hams = {}
    for kind in OperatorKind:
        mat = np.zeros((n, n))
        for i in range(n - 1):
            hop = operator_stencil(kind, params, sites[i], sites[i + 1])
            mat[i, i + 1] = hop
            mat[i + 1, i] = hop
        mat[M, M] = operator_stencil(kind, params, 0, 0)
        hams[kind] = mat
    return hams


def _product(a, b):
    """``a @ b`` of two real or two complex matrices by scipy's ``dgemm`` or ``zgemm``.

    The OpenBLAS the oracle's eigensolves and products load, so a twin
    never wakes numpy's second thread pool beside it.  A C-ordered operand
    is passed as its transpose with the transpose flag, which ``gemm``
    reads in place.
    """
    gemm = zgemm if np.iscomplexobj(a) else dgemm
    (a, ta), (b, tb) = ((x, 0) if x.flags.f_contiguous else (x.T, 1) for x in (a, b))
    return gemm(1.0, a, b, trans_a=ta, trans_b=tb)


def dense_initial_state(h_d, M: int, nu: int, beta_l: float, beta_r: float):
    """Decoupled initial two-point matrix, one dense eigensolve per block.

    Each reservoir block of ``h_d`` is diagonalized on its own and filled
    with its Fermi occupations; the sample block is identity over two.
    """
    n = 2 * M + 1
    n_res = M - nu
    state = np.zeros((n, n))
    for block, beta in ((slice(0, n_res), beta_l), (slice(n - n_res, n), beta_r)):
        w, u = eigh(h_d[block, block])
        state[block, block] = _product(u * fermi(beta, w), u.T)
    mid = slice(n_res, n - n_res)
    state[mid, mid] = 0.5 * np.eye(2 * nu + 1)
    return state


# The oracle solves each window Hamiltonian as its even and odd parity
# blocks.  The twins below keep the single solve of all ``n`` sites, full
# eigenvector frames and a dense ``n x n`` state, and read nothing of the
# window but its ``M``, ``params`` and ``hamiltonians``.


# each window's solves, per kind, and dense states, per temperature pair;
# a window is immutable once built, and its entries go with it
_UNSPLIT_HELD = weakref.WeakKeyDictionary()


def _per_window(sys, key, solve):
    held = _UNSPLIT_HELD.setdefault(sys, {})
    if key not in held:
        held[key] = solve()
    return held[key]


def unsplit_factorization(sys, kind):
    """Eigenpairs of one window Hamiltonian from one tridiagonal solve of every site."""
    return _per_window(sys, kind, lambda: eigh_tridiagonal(*sys.hamiltonians[kind]))


def unsplit_bound_data(sys):
    """The one eigenpair of the field Hamiltonian outside the band, or None."""
    w, u = unsplit_factorization(sys, OperatorKind.MAGNETIC)
    (outside,) = np.nonzero(np.abs(w) > 1.0 + 1e-9)
    assert outside.size <= 1
    return None if outside.size == 0 else (float(w[outside[0]]), u[:, outside[0]])


def unsplit_initial_state(sys, th):
    """Dense decoupled initial two-point matrix of the window."""

    def solve():
        h_d = dense_hamiltonians(sys.M, sys.params)[OperatorKind.DECOUPLED]
        return dense_initial_state(h_d, sys.M, sys.params.nu, th.beta_l, th.beta_r)

    return _per_window(sys, (th.beta_l, th.beta_r), solve)


def _real_matmul(mat, z):
    """``mat @ z`` for a real ``mat`` and a complex ``z``, its parts as interleaved real columns."""
    real = _product(mat, np.ascontiguousarray(z).view(float))
    return np.ascontiguousarray(real).view(complex)


def unsplit_evolve(sys, state, x, y, times, split=True):
    """``(e_x, S(t) e_y)`` through all ``n`` eigenvectors, with its band/bound parts.

    Returns the values and the components ``aa``, ``ap``, ``pa``, ``pp``;
    without a bound state (or with ``split`` false) ``aa`` is everything.
    """
    times = np.asarray(times, dtype=float)
    w, u = unsplit_factorization(sys, OperatorKind.MAGNETIC)
    ix, iy = x + sys.M, y + sys.M
    phases = np.exp(1j * np.outer(w, times))
    fx, fy = (_real_matmul(u, phases * u[i][:, None]) for i in (ix, iy))
    bound = unsplit_bound_data(sys) if split else None
    if bound is None:
        px = py = np.zeros_like(fx)
    else:
        energy, vec = bound
        px, py = (np.outer(vec, vec[i] * np.exp(1j * energy * times)) for i in (ix, iy))
    band_x, band_y, bound_y = fx - px, _real_matmul(state, fy - py), _real_matmul(state, py)
    pairs = {"aa": (band_x, band_y), "ap": (band_x, bound_y), "pa": (px, band_y), "pp": (px, bound_y)}
    parts = {name: np.einsum("it,it->t", a.conj(), b) for name, (a, b) in pairs.items()}
    return sum(parts.values()), parts


def unsplit_ness_estimate(sys, state, x, y, t_star):
    times = np.linspace(0.8 * t_star, t_star, int(round(0.2 * t_star)) + 1)
    values, _ = unsplit_evolve(sys, state, x, y, times, split=False)
    return complex(np.mean(values))


def unsplit_oracle_flux(sys, state, t_star):
    """Left and right contact fluxes, each from its own pair of evolved frames."""
    nu = sys.params.nu
    return tuple(
        0.5 * unsplit_ness_estimate(sys, state, s * (nu + 2), s * nu, t_star).imag
        for s in (-1, 1)
    )


def unsplit_wave_action(sys, x, t, k_grid):
    """Band part of ``e_x``, forward under the field and back under the free chain, in momenta."""
    psi = np.zeros(sys.n_sites)
    psi[x + sys.M] = 1.0
    bound = unsplit_bound_data(sys)
    if bound is not None:
        psi -= bound[1] * bound[1][x + sys.M]
    wm, um = unsplit_factorization(sys, OperatorKind.MAGNETIC)
    w0, u0 = unsplit_factorization(sys, OperatorKind.XY)
    phi = _real_matmul(um, np.exp(1j * t * wm)[:, None] * _product(um.T, psi[:, None]))
    chi = _real_matmul(u0, np.exp(-1j * t * w0)[:, None] * _real_matmul(u0.T, phi))
    return _product(np.exp(1j * np.outer(k_grid, np.arange(-sys.M, sys.M + 1))), chi)[:, 0]
