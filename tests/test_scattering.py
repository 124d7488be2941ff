"""Wave-operator action, overlap integrals, and the bound-state weight."""

import cmath
import json
import math
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslab import scattering
from nesslab.exceptions import DomainError, NonConvergence
from nesslab.model import ModelParams, ThermalConfig, planck_density
from nesslab.ness import correlation_block
from nesslab.numerics import QuadratureSpec, panel_rule, refine_panels
from nesslab.scattering import (
    ac_overlap,
    band_moments,
    magnetic_correction,
    pp_weight,
    wave_action,
)

from bruteforce import (
    kronrod_sums_decimal,
    moment_products,
    overlap_gather,
    pp_weight_direct,
    symbol_coefficient,
    unsplit_evolve,
    unsplit_initial_state,
)

# the fields of the benchmark's window pool, perfbench/refs/window.json
WINDOW_REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "window.json").read_text())
WINDOW_FIELDS = [f["lam"] for f in WINDOW_REFS["fields"]]


def window_tasks() -> list:
    """``(field, half-width)`` of every window task, at the half-width the benchmark pins."""
    decades = {}
    for f in WINDOW_REFS["fields"]:
        decades.setdefault(f["stratum"].rsplit(":", 1)[0], []).append(f)
    return [(f, 2 + (d + k) % 7) for d, fields in enumerate(decades.values()) for k, f in enumerate(fields)]

# 40-digit mpmath values of the weight at th = (1, 2), nu = 0, printed by
# tests/reference_mp.py; adaptive quadrature missed every field from 1e-6
# down, and the two window-pool fields, by more than 1e-12 (4.3e-6 at 1e-12)
PP_WEIGHT_MP = {
    0.5: 0.38927935128778578832,
    1e-2: 0.19960947409498725852,
    -1e-3: 0.80537133619844956456,
    1e-6: 0.19407272849298350536,
    1e-7: 0.1940722273757765005,
    -1e-8: 0.80592782273597137099,
    1e-10: 0.19407217175173606155,
    1e-12: 0.19407217169661313558,
    1e-14: 0.19407217169606190632,
    -8.4039e-05: 0.80588103777518014057,
    7.08503e-05: 0.19411161941615385696,
}


class TestMagneticCorrection:
    def test_zero_field_is_unity(self):
        for e in (-1.0, -0.3, 0.0, 0.9, 1.0):
            assert magnetic_correction(0.0, e) == 1.0

    def test_band_center_peak_and_edge_zeros(self):
        lam = 0.2
        assert abs(magnetic_correction(lam, 0.0) - 25.0 / 26.0) < 1e-15
        assert magnetic_correction(lam, 1.0) == 0.0
        assert magnetic_correction(lam, -1.0) == 0.0

    def test_even_in_field(self):
        assert magnetic_correction(0.7, 0.3) == magnetic_correction(-0.7, 0.3)

    def test_roundoff_overshoot_clamped(self):
        assert magnetic_correction(0.5, 1.0 + 1e-13) == 0.0

    def test_domain(self):
        for e in (1.1, math.nan):
            with pytest.raises(DomainError):
                magnetic_correction(0.5, e)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                magnetic_correction(lam, 0.5)


class TestWaveAction:
    def test_point_values(self):
        # lam=1, x=0, k=pi/2: 1 + i/(1-i) = 1/2 + i/2
        assert abs(wave_action(1.0, 0, math.pi / 2.0) - (0.5 + 0.5j)) < 1e-15
        # lam=1, x=1, k=-pi/2: -i + i*i/(1-i) = -1/2 - 3i/2
        assert abs(wave_action(1.0, 1, -math.pi / 2.0) - (-0.5 - 1.5j)) < 1e-15

    def test_zero_field_plane_wave(self):
        for x in (-3, 0, 2):
            for k in (-2.0, 0.0, 1.3):
                assert wave_action(0.0, x, k) == cmath.exp(1j * k * x)

    def test_domain(self):
        with pytest.raises(DomainError):
            wave_action(1.0, 0, 3.2)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                wave_action(lam, 0, 0.5)

    @given(lam=st.floats(-3.0, 3.0), x=st.integers(-8, 8), k=st.floats(-3.1, 3.1))
    def test_bounded_amplitude(self, lam, x, k):
        # |scattered part| <= |lam| / sqrt(sin^2 + lam^2) <= 1
        assert abs(wave_action(lam, x, k)) <= 2.0 + 1e-12


class TestAcOverlap:
    def test_conjugate_swap(self, th12):
        p = ModelParams(0.7)
        for x, y in ((0, 1), (-1, 2), (2, 2), (0, 3)):
            left = ac_overlap(p, th12, x, y)
            right = ac_overlap(p, th12, y, x)
            assert abs(left - right.conjugate()) < 1e-12

    def test_diagonal_real(self, th12):
        p = ModelParams(1.0)
        for x in (0, 2):
            assert abs(ac_overlap(p, th12, x, x).imag) < 1e-10

    def test_zero_field_fourier_coefficient(self, th12):
        p = ModelParams(0.0)
        for d in (0, 1, 3):
            ref = symbol_coefficient(1.0, 2.0, d)
            assert abs(ac_overlap(p, th12, 0, d) - ref) < 1e-9

    def test_matches_band_component_of_evolution(self, th12, sys_m1000_lam05):
        # late-time average of the band-band component of the unsplit
        # twin's evolution against the overlap integral
        t_star = 500.0
        n = int(round(0.2 * t_star)) + 1
        times = np.linspace(0.8 * t_star, t_star, n)
        dense = unsplit_initial_state(sys_m1000_lam05, th12)
        _, parts = unsplit_evolve(sys_m1000_lam05, dense, 0, 1, times, split=True)
        band_mean = complex(np.mean(parts["aa"]))
        assert abs(band_mean - ac_overlap(ModelParams(0.5), th12, 0, 1)) < 1e-3


class TestBandMoments:
    def test_negative_frequencies_conjugate(self, th12):
        # s(y, x) reads the negatives of the frequencies s(x, y) reads, of
        # every family and reservoir; conjugated, it is s(x, y) up to the
        # order of its sums
        mom = band_moments(0.3, th12, range(5))
        x, y = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij")
        forward, backward = mom.overlap(x, y), mom.overlap(y, x)
        assert np.abs(forward.imag).max() > 0.01
        assert np.abs(backward - forward.conj()).max() <= sys.float_info.epsilon * np.abs(forward).max()

    def test_frequency_subset_matches_full_range(self, th12):
        # same mesh up to frequency 20, so the shared moments agree to
        # roundoff; frequency 0, which the bound-state rows read, is always there
        full = band_moments(0.3, th12, range(13))
        subset = band_moments(0.3, th12, [-12, 3, 7])
        assert list(subset.frequencies) == [0, 3, 7, 12]
        for name in ("plane", "cross", "scattered"):
            a, b = getattr(full, name), getattr(subset, name)
            assert np.max(np.abs(a[:, [0, 3, 7, 12]] - b)) < 1e-13 * max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(full.bound - subset.bound)) < 1e-13

    def test_zero_field_plane_only(self, th12):
        # the field rows carry their field factors, so they vanish exactly,
        # and there is no bound state
        mom = band_moments(0.0, th12, range(4))
        assert not np.any(mom.cross) and not np.any(mom.scattered) and mom.bound is None
        assert abs(mom.overlap(0, 2) - symbol_coefficient(1.0, 2.0, 2)) < 1e-9

    def test_certified_below_target(self, th12):
        for lam in (1e-9, 1e-4, 0.5, 3.0):
            assert band_moments(lam, th12, range(17)).error_estimate < QuadratureSpec().abs_tol

    def test_refines_a_coarse_mesh(self, th12, monkeypatch):
        lam = 0.05
        graded = band_moments(lam, th12, range(7))
        monkeypatch.setattr(scattering, "_moment_mesh", lambda *args: np.array([0.0, 0.5 * math.pi]))
        with pytest.raises(NonConvergence):
            band_moments(lam, th12, range(7), QuadratureSpec(max_subdivisions=3))
        refined = band_moments(lam, th12, range(7))
        assert refined.error_estimate < QuadratureSpec().abs_tol
        for name in ("plane", "cross", "scattered"):
            a, b = getattr(refined, name), getattr(graded, name)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_refuses_unreachable_target(self, th12):
        spec = QuadratureSpec(abs_tol=1e-30, max_subdivisions=5)
        with pytest.raises(NonConvergence):
            band_moments(0.5, th12, range(5), spec)

    def test_rejects_frequencies_not_computed(self, th12):
        mom = band_moments(0.5, th12, range(5))
        with pytest.raises(ValueError):
            mom.overlap(3, -2)


# centred, off-centre and asymmetric windows, and the corners of the four
# sign quadrants, x = 0 against y = -1
WINDOWS = {"centred": (-8, 8), "off-centre": (3, 9), "asymmetric": (-7, 2), "corners": (-1, 0)}


class TestToeplitzHankel:
    """The overlap as ``T_q(y - x) + H_q(x + y)`` in each quadrant of signs."""

    @pytest.mark.parametrize("lam", [*WINDOW_FIELDS, 5e-324, 1e300])
    def test_matches_the_twelve_term_gather(self, th12, lam):
        # the same twelve moments summed in another order: every element,
        # both triangles, within a few eps of the magnitude of its terms
        for lo, hi in WINDOWS.values():
            x, y = np.meshgrid(np.arange(lo, hi + 1), np.arange(lo, hi + 1), indexing="ij")
            mom = band_moments(lam, th12, (y - x, x + y))
            value, scale = overlap_gather(mom, x, y)
            assert np.all(np.abs(mom.overlap(x, y) - value) <= 4.0 * sys.float_info.epsilon * scale)

    def test_zero_field_is_exactly_toeplitz(self, th12):
        # no field, no Hankel part: every diagonal is one value, bitwise
        mom = band_moments(0.0, th12, range(17))
        _, hankel = mom._tables()
        assert not np.any(hankel)
        for lo, hi in WINDOWS.values():
            m = correlation_block(ModelParams(0.0), th12, lo, hi).matrix
            assert np.array_equal(m[1:, 1:], m[:-1, :-1])

    @pytest.mark.parametrize("lam", [1e-300, 1e-5, -0.3, 0.5, 1e300])
    def test_field_makes_a_hankel_part(self, th12, lam):
        # every quadrant's Hankel table is nonzero, down to fields whose
        # moments are of order 1e-298 (at 5e-324 they underflow to zero)
        mom = band_moments(lam, th12, range(17))
        _, hankel = mom._tables()
        assert np.all(np.any(hankel != 0.0, axis=1))
        if abs(lam) >= 1e-5:  # above roundoff next to the Toeplitz part
            m = correlation_block(ModelParams(lam), th12, -8, 8).matrix
            assert not np.array_equal(m[1:, 1:], m[:-1, :-1])

    @pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-5, -0.3, 0.5, -1.5, 1e300])
    @pytest.mark.parametrize("window", list(WINDOWS.values()), ids=list(WINDOWS))
    def test_block_is_bitwise_hermitian(self, th12, lam, window):
        m = correlation_block(ModelParams(lam, 1), th12, *window).matrix
        assert np.array_equal(m, m.conj().T)


def first_mesh(lam: float, th: ThermalConfig, m: np.ndarray) -> np.ndarray:
    """The half-band mesh ``band_moments`` starts from for frequencies ``m``."""
    betas = np.array([th.beta_l, th.beta_r])
    weights = scattering._moment_weights(lam, m)
    floor = scattering._moment_floor(lam, betas, weights, QuadratureSpec().abs_tol)
    return scattering._moment_mesh(lam, th.beta_r, int(m[-1]), floor)


class TestFactoredMoments:
    """The kernel-times-basis product against its product-array twin and exact sums."""

    @pytest.mark.parametrize("lam", [*WINDOW_FIELDS, 5e-324, 1e300])
    def test_match_the_product_array_twin(self, th12, lam):
        # weighted as the estimate weighs them: each group's largest miss
        # times its weight, summed over the groups; the twin samples the
        # whole band, on the half-band mesh and its mirror image
        m = np.arange(17)  # every frequency of a half-width-8 window
        mom = band_moments(lam, th12, m)
        half = first_mesh(lam, th12, m)
        edges = np.concatenate([half, math.pi - half[-2::-1]])
        twin = moment_products(lam, [th12.beta_l, th12.beta_r], m, edges)
        factored = np.stack([mom.plane, mom.cross, mom.scattered])
        miss = np.abs(factored - twin).max(axis=2).sum(axis=1)
        assert miss @ np.array([1.0, 2.0, 3.0]) / (2.0 * math.pi) <= mom.error_estimate

    @pytest.mark.parametrize("lam, width", [(1e-4, 2), (1e-4, 8), (0.5, 8), (0.5, 64), (0.5, 128)])
    def test_kronrod_sums_within_roundoff(self, th12, lam, width):
        # 30-digit sums on the same nodes and their mirror images: the
        # weighted miss of the band moments, summed over the families and
        # reservoirs, stays within the band groups' share of the estimate's
        # roundoff term.  The moments are certified as band_moments
        # certifies them, on its first mesh
        m = np.arange(2 * width + 1)
        weights = scattering._moment_weights(lam, m)
        sample = partial(scattering._moment_integrands, lam, np.array([1.0, 2.0]), m)
        edges = first_mesh(lam, th12, m)
        values, error, panels = refine_panels(sample, edges, weights, QuadratureSpec(), "moments")
        mom = band_moments(lam, th12, m)
        assert panels == edges.size - 1 and mom.error_estimate == error
        t, wk, _ = panel_rule(edges)
        exact = kronrod_sums_decimal(lam, (th12.beta_l, th12.beta_r), m, t, wk)
        moments = np.concatenate([mom.plane, mom.cross, mom.scattered])
        miss = np.array(
            [
                [abs(complex(Decimal(v.real) - re, Decimal(v.imag) - im)) for v, (re, im) in zip(*rows)]
                for rows in zip(moments, exact)
            ]
        )
        roundoff = 8.0 * sys.float_info.epsilon * (weights[:12] * np.abs(values[:12])).max(axis=1).sum()
        assert (weights[:6] * miss).max(axis=1).sum() <= roundoff

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs a 64-bit long double")
    @pytest.mark.parametrize(
        "x, y, window",
        [(-8, 8, True), (-64, 64, True), (-255, 255, True), (1000, 1016, True), (400, 403, False)],
        ids=["w8", "w64", "w255", "off-centre", "pair"],
    )
    def test_basis_as_accurate_as_the_exponential(self, th12, x, y, window):
        # the frequencies of the window [x, y] (or, far out, of the pair
        # s(x, y) alone, which reads 0, 3 and 803, formed by exponentials)
        # on its nodes, against e^{imt} in long double, where m t is exact:
        # the basis is no less accurate than the exponential of the rounded
        # m t, and within an ulp per product on the longest run of powers
        sites = np.arange(x, y + 1)
        left, right = np.meshgrid(sites, sites) if window else (np.array(x), np.array(y))
        read = np.concatenate([[0], np.ravel(right - left), np.ravel(left + right)])
        m = np.unique(np.abs(read))
        t = panel_rule(first_mesh(0.5, th12, m))[0].ravel()
        reference = np.exp(1j * np.multiply.outer(m.astype(np.longdouble), t.astype(np.longdouble)))
        basis = np.abs(scattering._frequency_basis(m, t) - reference).max()
        exponential = np.abs(np.exp(1j * np.multiply.outer(m, t)) - reference).max()
        width = math.isqrt(int(m[-1]) + 1)
        assert basis <= exponential and basis < (m[-1] // width + width) * sys.float_info.epsilon


class TestWindowPool:
    """Every window of the benchmark's pool against its mpmath reference."""

    # the worst element's miss over its tolerance when the band moments
    # sampled the whole band; a window's err_to_tol_max may not rise above it
    WORST = 1.5946188402400507e-6

    @pytest.mark.parametrize(
        "field, w", window_tasks(), ids=[f"{f['lam']!r}-w{w}" for f, w in window_tasks()]
    )
    def test_within_tolerance(self, field, w):
        block = correlation_block(ModelParams(field["lam"]), ThermalConfig(*WINDOW_REFS["thermal"]), -w, w)
        # the references hold the upper triangle of the pinned window in row
        # order; this window's rows and columns sit `off` into it
        top, off = 2 * WINDOW_REFS["half_width"] + 1, WINDOW_REFS["half_width"] - w
        i, j = np.triu_indices(2 * w + 1)
        a, b = i + off, j + off
        at = a * top - a * (a - 1) // 2 + b - a
        ref = np.array(field["re"])[at] + 1j * np.array(field["im"])[at]
        miss = np.abs(block.matrix[i, j] - ref) / np.array(field["tol"])[at]
        assert miss.max() <= self.WORST


class TestPpWeight:
    def test_zero_field_is_zero(self, th12):
        assert pp_weight(ModelParams(0.0), th12) == 0.0

    def test_wide_sample_holds_half(self, th12):
        # the bound state lies almost wholly on the 2 nu + 1 sample sites,
        # each occupied 1/2; the cost does not grow with nu
        assert abs(pp_weight(ModelParams(0.5, 10**9), th12) - 0.5) < 1e-15

    def test_infinite_temperature_half(self):
        th = ThermalConfig(1e-9, 1e-9)
        for lam, nu in ((0.8, 0), (0.8, 2), (-1.5, 1)):
            assert abs(pp_weight(ModelParams(lam, nu), th) - 0.5) < 1e-9

    def test_against_dense_functional_calculus(self, th12):
        from nesslab.oracle import build_truncation, initial_two_point

        sysm = build_truncation(1500, ModelParams(0.5))
        _, vec = sysm.bound_data()
        dense = float(vec @ (initial_two_point(sysm, th12) @ vec))
        assert abs(pp_weight(ModelParams(0.5), th12) - dense) < 1e-8

    def test_dense_grid(self, th12):
        from nesslab.oracle import build_truncation, initial_two_point

        for lam in (0.25, 0.5, 1.0):
            for nu in (0, 1, 2):
                params = ModelParams(lam, nu)
                sysm = build_truncation(500, params)
                _, vec = sysm.bound_data()
                dense = float(vec @ (initial_two_point(sysm, th12) @ vec))
                assert abs(pp_weight(params, th12) - dense) < 1e-8

    @settings(max_examples=25)
    @given(
        lam=st.one_of(st.floats(0.05, 4.0), st.floats(-4.0, -0.05)),
        nu=st.integers(0, 2),
        beta_l=st.floats(0.1, 5.0),
        gap=st.floats(0.0, 5.0),
    )
    def test_is_an_occupation(self, lam, nu, beta_l, gap):
        th = ThermalConfig(beta_l, beta_l + gap)
        w = pp_weight(ModelParams(lam, nu), th)
        assert 0.0 < w < 1.0

    @pytest.mark.parametrize("lam", list(PP_WEIGHT_MP))
    def test_matches_mpmath(self, th12, lam):
        assert abs(pp_weight(ModelParams(lam), th12) - PP_WEIGHT_MP[lam]) < 1e-12

    @pytest.mark.parametrize("nu", [0, 2])
    @pytest.mark.parametrize("lam", [0.7, -0.7, 2.5, -2.5, 1e-2, -1e-3])
    def test_matches_raw_quadrature(self, th12, lam, nu):
        ref = pp_weight_direct(lam, th12.beta_l, th12.beta_r, nu)
        assert abs(pp_weight(ModelParams(lam, nu), th12) - ref) < 1e-12

    @pytest.mark.parametrize("lam", [1e-17, 1e-300, 5e-324, -5e-324])
    def test_tiny_fields_weigh_the_edge_occupation(self, th12, lam):
        # the bound state spreads over ~1/|lam| sites and hugs the band edge
        # sign(lam); its weight tends to the mean edge occupation of the two
        # reservoirs, which it reaches to O(lam)
        edge = math.copysign(1.0, lam)
        limit = 0.5 * (planck_density(1.0, edge) + planck_density(2.0, edge))
        assert abs(pp_weight(ModelParams(lam), th12) - limit) < 1e-15

    @pytest.mark.parametrize("lam", [1e300, -1.7e308])
    def test_huge_fields_sit_on_the_sample(self, th12, lam):
        assert pp_weight(ModelParams(lam, 2), th12) == 0.5

    def test_refuses_unreachable_target(self, th12):
        spec = QuadratureSpec(abs_tol=1e-30, max_subdivisions=5)
        with pytest.raises(NonConvergence):
            pp_weight(ModelParams(0.5), th12, spec)
