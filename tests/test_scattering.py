"""Wave-operator action, overlap integrals, and the bound-state weight."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslab import scattering
from nesslab.exceptions import DomainError, NonConvergence, NoBoundState
from nesslab.model import ModelParams, ThermalConfig, planck_density
from nesslab.numerics import QuadratureSpec
from nesslab.scattering import (
    ac_overlap,
    band_moments,
    magnetic_correction,
    pp_weight,
    wave_action,
    xy_symbol,
)

from bruteforce import pp_weight_direct, symbol_coefficient

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


class TestXySymbol:
    def test_momentum_sign_selects_reservoir(self, th12):
        # cos(pi/3) = 1/2; negative momenta carry the right occupation
        assert abs(xy_symbol(th12, -math.pi / 3.0) - planck_density(2.0, 0.5)) < 1e-15
        assert abs(xy_symbol(th12, math.pi / 3.0) - planck_density(1.0, 0.5)) < 1e-15
        assert xy_symbol(th12, 0.0) == planck_density(2.0, 1.0)

    def test_domain(self, th12):
        with pytest.raises(DomainError):
            xy_symbol(th12, 3.3)
        with pytest.raises(DomainError):
            xy_symbol(th12, -3.3)

    def test_continuous_at_equilibrium(self):
        th = ThermalConfig(1.5, 1.5)
        assert abs(xy_symbol(th, -0.4) - xy_symbol(th, 0.4)) < 1e-15


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
        # late-time average of the band-band component of the dense
        # evolution against the overlap integral
        from nesslab.oracle import evolve_correlation

        t_star = 500.0
        n = int(round(0.2 * t_star)) + 1
        times = np.linspace(0.8 * t_star, t_star, n)
        trace = evolve_correlation(sys_m1000_lam05, th12, 0, 1, times)
        band_mean = complex(np.mean(trace.components["aa"]))
        assert abs(band_mean - ac_overlap(ModelParams(0.5), th12, 0, 1)) < 1e-3


class TestBandMoments:
    def test_negative_frequencies_conjugate(self, th12):
        mom = band_moments(0.3, th12, range(5))
        for family in (mom.plane, mom.kernel_sin, mom.kernel):
            for row in (0, 1):
                assert np.array_equal(mom.at(family, row, -np.arange(5)), family[row].conj())

    def test_frequency_subset_matches_full_range(self, th12):
        # same mesh up to frequency 20, so the shared moments agree to roundoff
        full = band_moments(0.3, th12, range(13))
        subset = band_moments(0.3, th12, [-12, 3, 7])
        assert list(subset.frequencies) == [3, 7, 12]
        for name in ("plane", "kernel_sin", "kernel"):
            a, b = getattr(full, name), getattr(subset, name)
            assert np.max(np.abs(a[:, [3, 7, 12]] - b)) < 1e-13 * max(1.0, np.max(np.abs(a)))

    def test_zero_field_plane_only(self, th12):
        mom = band_moments(0.0, th12, range(4))
        assert mom.kernel is None and mom.kernel_sin is None
        assert abs(mom.overlap(0, 2) - symbol_coefficient(1.0, 2.0, 2)) < 1e-9

    def test_certified_below_target(self, th12):
        for lam in (1e-9, 1e-4, 0.5, 3.0):
            assert band_moments(lam, th12, range(17)).error_estimate < QuadratureSpec().abs_tol

    def test_refines_a_coarse_mesh(self, th12, monkeypatch):
        lam = 0.05
        graded = band_moments(lam, th12, range(7))
        monkeypatch.setattr(scattering, "_moment_mesh", lambda *args: np.array([0.0, math.pi]))
        with pytest.raises(NonConvergence):
            band_moments(lam, th12, range(7), QuadratureSpec(max_subdivisions=3))
        refined = band_moments(lam, th12, range(7))
        assert refined.error_estimate < QuadratureSpec().abs_tol
        for a, b, weight in (
            (refined.plane, graded.plane, 1.0),
            (refined.kernel_sin, graded.kernel_sin, lam),
            (refined.kernel, graded.kernel, lam * lam),
        ):
            assert weight * np.max(np.abs(a - b)) < 1e-12

    def test_refuses_unreachable_target(self, th12):
        spec = QuadratureSpec(abs_tol=1e-30, max_subdivisions=5)
        with pytest.raises(NonConvergence):
            band_moments(0.5, th12, range(5), spec)

    def test_rejects_frequencies_not_computed(self, th12):
        mom = band_moments(0.5, th12, range(5))
        with pytest.raises(ValueError):
            mom.overlap(3, -2)


class TestPpWeight:
    def test_zero_field_convention(self, th12):
        assert pp_weight(ModelParams(0.0), th12) == 0.0
        with pytest.raises(NoBoundState):
            pp_weight(ModelParams(0.0), th12, strict=True)

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
