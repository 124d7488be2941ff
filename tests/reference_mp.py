"""40-digit mpmath values of the bound-state weight, the source of the test literals.

    PYTHONPATH=src python tests/reference_mp.py

Prints ``lam: weight`` for the pinned fields at ``th = (1, 2)``, ``nu = 0``,
as the ``PP_WEIGHT_MP`` literals of ``test_scattering.py`` hold them.  The
name keeps pytest from collecting this file.

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


def main() -> None:
    for lam in FIELDS:
        print(f"    {lam!r}: {mp.nstr(pp_weight_mp(lam), 20)},")


if __name__ == "__main__":
    main()
