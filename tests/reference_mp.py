"""mpmath values of the weight, the defect, the band overlap and the flux family, the source of the test literals.

    PYTHONPATH=src python tests/reference_mp.py

Prints ``lam: weight`` for the pinned fields at ``th = (1, 2)``, ``nu = 0``,
as the ``PP_WEIGHT_MP`` literals of ``test_scattering.py`` hold them, then
``lam: (defect at (1, 2), defect at (0.1, 50))`` as the ``TI_DEFECT_MP``
literals of ``test_ness.py`` hold them, then ``lam: (weight, {(x, y): band
overlap})`` at the tiny fields, as the ``S_ELEMENT_MP`` literals of
``test_ness.py`` hold them, then ``lam: (J'', F1 + F2)`` at the tiny
fields of the flux family, as the ``FLUX_FAMILY_MP`` literals of
``test_transport.py`` hold them.  The name keeps pytest from collecting
this file.

The weight is evaluated from its definition, independently of the
library: the half-line sine transform of the bound eigenvector's tail,
``(2/pi) integral_0^pi rho(cos k) S(q, k)^2 dk`` per reservoir with
``S(q, k) = q sin k / ((1 - |q|)^2 + 4 |q| sin^2(k/2))`` (``cos^2`` for
``q < 0``) and ``q = sign(lam) e^{-alpha}``, times ``e^{-2 alpha nu} /
norm_sq``, plus the sample's occupation ``1/2`` on each of its sites.
No edge subtraction: at 40 digits the peak of height ``~1/lam^2`` costs
nothing.  Panels are split geometrically, ratio 2, toward the band edge the
bound state hugs from ``alpha/8``, and toward ``k = pi/2`` from ``1/beta``.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
BETAS = (1.0, 2.0)
FIELDS = (
    0.5, 1e-2, -1e-3, 1e-6, 1e-7, -1e-8, 1e-10, 1e-12, 1e-14,
    -8.4039e-05, 7.08503e-05,  # window-pool fields of perfbench/refs/window.json
)


def _edges(alpha, beta_r):
    half = mp.pi / 2
    points = {mp.mpf(0), half, mp.pi}
    s = alpha / 8
    while s < half:
        points |= {s, mp.pi - s}
        s *= 2
    s = 1 / mp.mpf(beta_r)
    while s < half:
        points |= {half - s, half + s}
        s *= 2
    return sorted(points)


def pp_weight_mp(lam: float, betas=BETAS, nu: int = 0):
    """The bound-state weight at ``DPS`` digits; ``lam`` is taken as its exact binary value."""
    with mp.workdps(DPS):
        lam_m = mp.mpf(lam)
        alpha = mp.asinh(abs(lam_m))
        r = mp.exp(-alpha)
        q = r if lam_m > 0 else -r
        norm_sq = mp.sqrt(1 + lam_m**2) / abs(lam_m)
        edges = _edges(alpha, max(betas))

        def sine_sum(k):
            osc = mp.sin(k / 2) if q > 0 else mp.cos(k / 2)
            return q * mp.sin(k) / ((1 - r) ** 2 + 4 * r * osc**2)

        def reservoir(beta):
            return (2 / mp.pi) * mp.quad(
                lambda k: sine_sum(k) ** 2 / (1 + mp.exp(beta * mp.cos(k))), edges
            )

        tails = sum(reservoir(b) for b in betas) * mp.exp(-2 * alpha * nu) / norm_sq
        sample = sum(mp.exp(-2 * alpha * abs(x)) for x in range(-nu, nu + 1)) / (2 * norm_sq)
        return tails + sample


TI_DPS = 30
TI_THERMALS = ((1.0, 2.0), (0.1, 50.0))
TI_FIELDS = (0.2, 1e5, 6e5, 1e6, 1e-10, 1e-300, 1e-310)


def ti_commutator_mp(lam: float, betas=BETAS):
    """``s(0, 2) - s(-1, 1)`` at ``TI_DPS`` digits, from its momentum integral.

    ``lam integral_{-pi}^{pi} dk/2pi cos k rho_diff(cos k) corr(lam, cos k)``
    with ``corr = sin^2 k/(sin^2 k + lam^2)``, the integrand even in ``k``,
    so ``(lam/pi)`` times the integral over ``[0, pi]``; panels graded as
    for the weight, from ``|lam|/8`` toward both ends and from ``1/beta``
    toward ``pi/2``.
    """
    with mp.workdps(TI_DPS):
        lam_m = mp.mpf(lam)
        beta_l, beta_r = (mp.mpf(b) for b in betas)

        def integrand(k):
            e, s2 = mp.cos(k), mp.sin(k) ** 2
            rho_diff = 1 / (1 + mp.exp(beta_l * e)) - 1 / (1 + mp.exp(beta_r * e))
            return e * rho_diff * s2 / (s2 + lam_m**2)

        return lam_m / mp.pi * mp.quad(integrand, _edges(abs(lam_m), max(betas)))


BAND_DPS = 30
BAND_FIELDS = (9.9e-15, 1e-15)
BAND_SITES = ((0, 0), (0, 2))


def band_overlap_mp(lam: float, x: int, y: int, betas=BETAS):
    """The band overlap ``integral dk/2pi conj(W_x) theta W_y`` at ``BAND_DPS`` digits.

    ``W_x(k) = e^{ikx} + i lam e^{i|k||x|} / (sin|k| - i lam)`` is the wave
    operator applied to the basis vector at ``x``, and ``theta`` the
    occupation symbol: the left reservoir's Fermi factor of ``cos k`` for
    ``k > 0``, the right one's for ``k <= 0``.  Each half of ``[-pi, pi]``
    is integrated as defined on the panels of the weight, graded from
    ``|lam|/8`` toward both ends and from ``1/beta`` toward ``pi/2``.
    """
    with mp.workdps(BAND_DPS):
        lam_m = mp.mpf(lam)

        def wave(k, site):
            ak = abs(k)
            scattered = 1j * lam_m * mp.expj(ak * abs(site)) / (mp.sin(ak) - 1j * lam_m)
            return mp.expj(k * site) + scattered

        def half(sign, beta):
            def integrand(t):
                k = sign * t
                return mp.conj(wave(k, x)) * wave(k, y) / (1 + mp.exp(beta * mp.cos(k)))

            return mp.quad(integrand, _edges(abs(lam_m), max(betas)))

        return (half(1, mp.mpf(betas[0])) + half(-1, mp.mpf(betas[1]))) / (2 * mp.pi)


FLUX_FIELDS = (1e-10, -1e-14, 1e-100, 1e-300, 5e-324)


def flux_family_mp(lam: float, betas=BETAS):
    """``(J'', F1 + F2)`` at ``DPS`` digits, from their defining integrals.

    With ``s = sin t``, ``c = cos t``, ``D = s^2 + lam^2`` and the occupation
    difference ``g = 1/(1 + e^{beta_l c}) - 1/(1 + e^{beta_r c})``, the sum
    of the log split is ``F1 + F2 = integral_0^{pi/2} g c s^3/D^2 dt`` and
    the flux differentiated twice under the integral sign is ``J'' = (1/pi)
    integral_0^{pi/2} g c s^3 (8 lam^2/D^3 - 2/D^2) dt``.  No log term is
    split off: at 40 digits the peak of height ``~1/lam`` costs nothing.
    Panels are the weight's edges on ``[0, pi/2]``, graded from ``|lam|/8``
    toward ``t = 0`` and from ``1/beta_r`` toward ``pi/2``.
    """
    with mp.workdps(DPS):
        lam2 = mp.mpf(lam) ** 2
        beta_l, beta_r = (mp.mpf(b) for b in betas)
        edges = [t for t in _edges(abs(mp.mpf(lam)), max(betas)) if t <= mp.pi / 2]

        def family(kernel):
            def integrand(t):
                s, c = mp.sin(t), mp.cos(t)
                g = 1 / (1 + mp.exp(beta_l * c)) - 1 / (1 + mp.exp(beta_r * c))
                return g * c * s**3 * kernel(s**2 + lam2)

            return mp.quad(integrand, edges)

        second = family(lambda d: 8 * lam2 / d**3 - 2 / d**2) / mp.pi
        return second, family(lambda d: 1 / d**2)


def main() -> None:
    for lam in FIELDS:
        print(f"    {lam!r}: {mp.nstr(pp_weight_mp(lam), 20)},")
    for lam in TI_FIELDS:
        values = ", ".join(mp.nstr(ti_commutator_mp(lam, th), 17) for th in TI_THERMALS)
        print(f"    {lam!r}: ({values}),")
    for lam in BAND_FIELDS:
        bands = ", ".join(
            f"{site}: complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)})"
            for site, v in ((s, band_overlap_mp(lam, *s)) for s in BAND_SITES)
        )
        print(f"    {lam!r}: ({mp.nstr(pp_weight_mp(lam), 20)}, {{{bands}}}),")
    for lam in FLUX_FIELDS:
        values = ", ".join(mp.nstr(v, 17) for v in flux_family_mp(lam))
        print(f"    {lam!r}: ({values}),")


if __name__ == "__main__":
    main()
