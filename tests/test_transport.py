"""Flux observables, their field derivatives, and the log-divergence split."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslab import transport
from nesslab.exceptions import (
    ConsistencyError,
    NonConvergence,
    UndefinedAtOrigin,
)
from nesslab.model import ModelParams, ThermalConfig
from nesslab.ness import s_element
from nesslab.numerics import QuadratureSpec
from nesslab.transport import (
    DivergenceFit,
    FluxReport,
    LogDecomposition,
    divergence_fit,
    entropy_production,
    flux_derivative,
    flux_report,
    flux_second_derivative,
    heat_flux,
    log_coefficient,
    log_decomposition,
    remainder_bound,
    ti_commutator_element,
)

from bruteforce import (
    central_difference,
    f2_at_zero_riemann,
    fermi_difference,
    flux_arcsin,
    flux_momentum,
    flux_riemann,
    log_term_integral,
)

# midpoint Riemann sum with 10^6 panels, frozen; the momentum-space sum
# below reproduces it to 1e-12 (its integrand has a kink at k = 0)
GOLDEN_FLUX_12 = 0.019467106206978297
# occupation difference at the band edge for (beta_l, beta_r) = (1, 2)
EDGE_STEP_12 = 0.14973849934787753
# J at lam = 0.5, (beta_l, beta_r) = (1, 1 + 1e-9): mpmath at 45 digits on
# the defining integral, with the plain Fermi factors at the same doubles
FLUX_NEAR_EQUILIBRIUM_MP = 1.26632580693135980e-11
# (J'', F1 + F2) at th (1, 2): tests/reference_mp.py, 40 digits on the
# defining integrals; 5e-324 is below the smallest normal double, where
# both come from their exact log terms
FLUX_FAMILY_MP = {
    1e-10: (-2.0395223671892435, 3.3534127421447736),
    -1e-14: (-2.917511780747991, 4.7325552879276596),
    1e-100: (-21.794284172261063, 34.38412002225971),
    1e-300: (-65.693754850198441, 103.34124731140401),
    5e-324: (-70.809407435542473, 111.37689560162123),
}
# the log terms f0 log|lam|, up to 112, are formed in doubles beside the
# quadrature: a few eps of the value on top of the certified estimate
LOG_TERM_ALLOWANCE = 4 * np.finfo(float).eps


@pytest.fixture
def samplings(monkeypatch):
    """The ``what`` label of every ``refine_panels`` call the flux family makes."""
    calls = []
    real = transport.refine_panels

    def counted(sample, edges, weights, spec, what):
        calls.append(what)
        return real(sample, edges, weights, spec, what)

    monkeypatch.setattr(transport, "refine_panels", counted)
    return calls


class TestHeatFlux:
    def test_pinned_golden(self, th12):
        assert abs(flux_riemann(1.0, 2.0, 0.0) - GOLDEN_FLUX_12) < 1e-12
        assert abs(heat_flux(ModelParams(0.0), th12) - GOLDEN_FLUX_12) < 1e-9

    def test_riemann_agreement_with_field(self, th12):
        for lam in (0.3, 1.0):
            ref = flux_riemann(1.0, 2.0, lam)
            assert abs(heat_flux(ModelParams(lam), th12) - ref) < 1e-9

    def test_equilibrium_vanishes(self):
        assert heat_flux(ModelParams(0.7), ThermalConfig(2.0, 2.0)) == 0.0

    def test_even_in_field(self, th12):
        assert abs(heat_flux(ModelParams(0.3), th12) - heat_flux(ModelParams(-0.3), th12)) < 1e-12

    def test_positive_and_shrinking_with_field(self, th12):
        values = [heat_flux(ModelParams(lam), th12) for lam in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0)]
        assert all(v > 0.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_independent_of_sample_width(self, th12):
        a = heat_flux(ModelParams(0.4, nu=0), th12)
        b = heat_flux(ModelParams(0.4, nu=3), th12)
        assert a == b

    def test_continuity_at_zero_field(self, th12):
        j0 = heat_flux(ModelParams(0.0), th12)
        gaps = [abs(heat_flux(ModelParams(2.0**-n), th12) - j0) for n in (8, 12, 16, 20)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-8

    def test_refuses_unreachable_target(self, th12):
        spec = QuadratureSpec(abs_tol=1e-30, max_subdivisions=5)
        for lam in (0.0, 0.5):
            with pytest.raises(NonConvergence):
                heat_flux(ModelParams(lam), th12, spec)

    def test_near_equilibrium_within_its_estimate(self):
        # the occupation difference, at most 2e-10 here, is formed without
        # cancellation, so the flux keeps its digits: within its certified
        # estimate, and within 1e-15 relative, of the 45-digit value
        report = flux_report(ModelParams(0.5), ThermalConfig(1.0, 1.0 + 1e-9))
        miss = abs(report.J - FLUX_NEAR_EQUILIBRIUM_MP)
        assert miss <= report.quadrature_error
        assert miss <= 1e-15 * FLUX_NEAR_EQUILIBRIUM_MP

    @settings(max_examples=20)
    @given(lam=st.floats(0.0, 4.0))
    def test_even_in_field_property(self, th12, lam):
        a = heat_flux(ModelParams(lam), th12)
        b = heat_flux(ModelParams(-lam), th12)
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("betas", [(1.0, 2.0), (0.1, 50.0), (1.5, 1.5)])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_is_the_contact_bond_correlation(self, betas, nu):
        # the flux family and the band moments are two closed forms of one
        # number: half the imaginary part of the steady correlation across
        # the left contact bond pair, as the lattice oracle measures it
        th = ThermalConfig(*betas)
        for lam in (0.0, 5e-324, 1e-20, 1e-12, 1e-8, 1e-3, -0.7, 2.0, 1e6, -1e100):
            p = ModelParams(lam, nu)
            bond = 0.5 * s_element(p, th, -(nu + 2), -nu).imag
            assert abs(heat_flux(p, th) - bond) < 1e-15, lam


class TestEntropyProduction:
    def test_exact_multiple_of_flux(self, th12):
        p = ModelParams(0.5)
        assert entropy_production(p, th12) == (2.0 - 1.0) * heat_flux(p, th12)

    def test_strictly_positive_out_of_equilibrium(self, th12):
        for lam in (0.0, 0.5, 2.0, 10.0):
            assert entropy_production(ModelParams(lam), th12) > 0.0

    def test_equilibrium_zero(self):
        assert entropy_production(ModelParams(1.0), ThermalConfig(3.0, 3.0)) == 0.0


class TestFluxDerivative:
    def test_zero_at_zero_field(self, th12):
        assert flux_derivative(ModelParams(0.0), th12) == 0.0

    def test_odd_in_field(self, th12):
        a = flux_derivative(ModelParams(0.4), th12)
        assert abs(a + flux_derivative(ModelParams(-0.4), th12)) < 1e-12
        assert a < 0.0

    def test_matches_finite_difference(self, th12):
        def j(lam):
            return heat_flux(ModelParams(lam), th12)

        fd = central_difference(j, 0.5, 1e-4)
        assert abs(flux_derivative(ModelParams(0.5), th12) - fd) < 1e-6

    def test_dual_routes_agree(self, th12):
        # the arcsin and band-average forms, each by raw quad
        p = ModelParams(0.5)
        got = (heat_flux(p, th12), flux_derivative(p, th12), flux_second_derivative(p, th12))
        for twin in (flux_arcsin, flux_momentum):
            for value, ref in zip(got, twin(1.0, 2.0, 0.5)):
                assert abs(value - ref) < 1e-10

    def test_equilibrium_zero(self):
        assert flux_derivative(ModelParams(0.8), ThermalConfig(2.0, 2.0)) == 0.0


class TestFluxSecondDerivative:
    def test_matches_finite_difference(self, th12):
        def jp(lam):
            return flux_derivative(ModelParams(lam), th12)

        fd = central_difference(jp, 0.5, 1e-4)
        assert abs(flux_second_derivative(ModelParams(0.5), th12) - fd) < 1e-6

    def test_origin_undefined(self, th12):
        with pytest.raises(UndefinedAtOrigin):
            flux_second_derivative(ModelParams(0.0), th12)

    def test_log_asymptote_dominates_near_zero_field(self, th12):
        # two-term model J'' = (2/pi)[f0 (log lam + 3/2) - F2(0)] + O(lam^2 log lam)
        # (docs/decisions.md); it replaces the leading term (4/pi) f0 log lam,
        # which carries twice this flux's rate, and even at the right rate
        # the leading term alone is 24% off at 1e-3 without the offset
        f0 = float(fermi_difference(1.0, 2.0, 1.0))
        offset = 1.5 * f0 - f2_at_zero_riemann(1.0, 2.0)
        val = flux_second_derivative(ModelParams(1e-3), th12)
        model = (2.0 / math.pi) * (f0 * math.log(1e-3) + offset)
        assert abs(val - model) / abs(model) < 1e-4

    @pytest.mark.parametrize("lam", [1e-100, 1e-300])
    def test_tiny_fields_follow_asymptote(self, th12, lam):
        # lam^2 underflows here; the correction to the two-term model is
        # O(lam^2 log lam), so only the quadratures separate the two
        f0 = float(fermi_difference(1.0, 2.0, 1.0))
        model = (2.0 / math.pi) * (f0 * (math.log(lam) + 1.5) - f2_at_zero_riemann(1.0, 2.0))
        p = ModelParams(lam)
        assert abs(flux_second_derivative(p, th12) - model) < 1e-9
        dec = log_decomposition(p, th12)
        scaled = flux_derivative(p, th12) / lam
        assert abs(dec.F1 + dec.F2 - (-math.pi / 2.0) * scaled) < 1e-10

    @pytest.mark.parametrize("lam", [5e-324, 1.5e-323, 1e-310, 2.2e-308, 2.3e-308])
    def test_subnormal_fields_are_their_zero_field_limit(self, th12, lam):
        # below the smallest normal double (2.2250738585072014e-308) 1/lam
        # overflows; there the family is the zero-field evaluation with the
        # exact log terms, and 2.3e-308 checks the graded path beside it
        f0 = float(fermi_difference(1.0, 2.0, 1.0))
        f2 = f2_at_zero_riemann(1.0, 2.0)
        model = (2.0 / math.pi) * (f0 * (math.log(lam) + 1.5) - f2)
        for p in (ModelParams(lam), ModelParams(-lam)):
            rep = flux_report(p, th12)
            assert abs(rep.J - GOLDEN_FLUX_12) < 1e-9
            assert abs(rep.J_prime) < 1e-300
            assert abs(rep.J_second - model) < 1e-9
            assert abs(log_decomposition(p, th12).F2 - f2) < 1e-9

    @pytest.mark.parametrize("lam", [1e300, 9e307, 1e308, -1.7e308])
    def test_huge_fields_are_finite(self, th12, lam):
        # the flux and its derivatives fall like powers of 1/lam and underflow
        p = ModelParams(lam)
        rep = flux_report(p, th12)
        assert (rep.J, rep.J_prime, rep.J_second) == (0.0, 0.0, 0.0)
        dec = log_decomposition(p, th12)
        assert abs(dec.F1) < 1e-300 and abs(dec.F2) < 1e-300

    def test_blows_down_as_field_shrinks(self, th12):
        values = [flux_second_derivative(ModelParams(lam), th12) for lam in (0.1, 0.03, 0.01, 0.003)]
        assert all(v < 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLogDecomposition:
    def test_explicit_term_equals_its_quadrature(self, th12):
        for lam in (0.5, 3.0):  # either side of the closed form's branch at |lam| = 1
            dec = log_decomposition(ModelParams(lam), th12)
            assert abs(dec.F1 - dec.f0 * log_term_integral(lam)) < 1e-12

    def test_edge_coefficient(self, th12):
        assert log_coefficient(th12) == EDGE_STEP_12
        dec = log_decomposition(ModelParams(0.3), th12)
        assert dec.f0 == EDGE_STEP_12

    def test_remainder_bound_value(self, th12):
        assert abs(remainder_bound(th12) - 0.8726638434190023) < 1e-15

    def test_remainder_bound_where_cosh_overflows(self):
        # 40-digit mpmath: 4.537586780843784e302 at (720, 720 + 2e-12) and
        # 1.23e436, beyond the largest float, at (700, 1000)
        assert remainder_bound(ThermalConfig(1000.0, 1000.0)) == 0.0
        big = remainder_bound(ThermalConfig(720.0, 720.0 + 2e-12))
        assert abs(big / 4.537586780843784e302 - 1.0) < 1e-15
        assert remainder_bound(ThermalConfig(700.0, 1000.0)) == math.inf
        dec = log_decomposition(ModelParams(0.3), ThermalConfig(999.0, 1000.0))
        assert abs(dec.F2) <= dec.c_bound == math.inf

    def test_remainder_within_bound(self, th12):
        for lam in (1e-4, 1e-2, 0.5, 2.0):
            dec = log_decomposition(ModelParams(lam), th12)
            assert abs(dec.F2) <= dec.c_bound

    def test_origin_undefined(self, th12):
        with pytest.raises(UndefinedAtOrigin):
            log_decomposition(ModelParams(0.0), th12)

    def test_bound_enforced_on_construction(self):
        with pytest.raises(ConsistencyError):
            LogDecomposition(F1=0.0, F2=1.0, f0=0.1, c_bound=0.5)

    def test_sum_is_quarter_turn_of_scaled_derivative(self, th12):
        # J'/lam = -(2/pi)(F1 + F2) exactly, so the factor is -pi/2; the
        # quarter turn -pi/4 of the name belongs to a flux 2J (docs/decisions.md)
        lam = 0.25
        dec = log_decomposition(ModelParams(lam), th12)
        scaled = flux_derivative(ModelParams(lam), th12) / lam
        assert abs(dec.F1 + dec.F2 - (-math.pi / 2.0) * scaled) < 1e-10

    def test_sum_is_half_turn_of_scaled_derivative(self, th12):
        # same identity, also at a small field
        for lam in (0.25, 0.01):
            dec = log_decomposition(ModelParams(lam), th12)
            scaled = flux_derivative(ModelParams(lam), th12) / lam
            assert abs(dec.F1 + dec.F2 - (-math.pi / 2.0) * scaled) < 1e-10


class TestDivergenceFit:
    def test_theory_coefficient_identity(self, th12):
        fit = divergence_fit(th12)
        assert abs(fit.C_theory - (2.0 / math.pi) * log_coefficient(th12)) < 1e-15
        assert abs(fit.C_theory - 0.09532648936950905) < 1e-14

    def test_grid_shape(self, th12):
        fit = divergence_fit(th12)
        assert fit.lambda_grid == tuple(np.geomspace(1e-3, 1e-5, 9))
        assert all(a > b for a, b in zip(fit.lambda_grid, fit.lambda_grid[1:]))
        assert isinstance(fit, DivergenceFit)

    def test_regression_is_tight(self, th12):
        fit = divergence_fit(th12)
        assert fit.residual < 1e-6
        assert abs(fit.C_fit - 0.09532648936950905) < 1e-6

    def test_slope_matches_plateau_coefficient(self, th12):
        # the slope of J'/lam against log lam is (2/pi) f0 (docs/decisions.md),
        # here from raw Fermi factors
        rate = (2.0 / math.pi) * float(fermi_difference(1.0, 2.0, 1.0))
        fit = divergence_fit(th12)
        assert abs(fit.C_fit - rate) / rate < 0.02

    def test_slope_matches_half_plateau_coefficient(self, th12):
        # the same rate read off the library's coefficient; rel_error is the
        # fit's own gap to it, measured 2.9e-7
        fit = divergence_fit(th12)
        assert abs(fit.C_fit - fit.C_theory) / fit.C_theory < 0.02
        assert fit.rel_error < 1e-5

    def test_equilibrium_slope_is_flat(self):
        fit = divergence_fit(ThermalConfig(2.0, 2.0))
        assert fit.C_theory == 0.0
        assert fit.rel_error < 1e-12


class TestFluxReport:
    def test_zero_field_fields(self, th12):
        rep = flux_report(ModelParams(0.0), th12)
        assert rep.J_second is None
        assert rep.J_prime == 0.0
        assert abs(rep.J - GOLDEN_FLUX_12) < 1e-9
        assert rep.sigma == rep.J
        assert rep.quadrature_error < 1e-9

    def test_equilibrium_fields(self):
        rep = flux_report(ModelParams(0.5), ThermalConfig(2.0, 2.0))
        assert rep.J == 0.0 and rep.sigma == 0.0 and rep.J_prime == 0.0
        assert rep.J_second == 0.0

    def test_consistent_with_scalar_calls(self, th12):
        p = ModelParams(0.7)
        rep = flux_report(p, th12)
        assert rep.J == heat_flux(p, th12)
        assert rep.J_prime == flux_derivative(p, th12)
        assert rep.J_second == flux_second_derivative(p, th12)
        assert isinstance(rep, FluxReport)

    @pytest.mark.parametrize(
        "lam, betas",
        [(0.0, (1.0, 2.0)), (5e-324, (1.0, 2.0)), (-1e-8, (1.0, 2.0)), (0.5, (1.0, 2.0)),
         (3.0, (1.0, 2.0)), (0.0, (2.0, 2.0)), (0.5, (2.0, 2.0)), (-0.0, (1.0, 2.0)),
         (-5e-324, (1.0, 2.0)), (-0.3, (2.0, 2.0))],
    )
    def test_every_reader_is_the_one_report(self, lam, betas):
        # one construction: each reader is bitwise (repr keeps the sign of
        # zero) a field of the report, the log-split remainder or the defect
        p, th = ModelParams(lam), ThermalConfig(*betas)
        rep, f2, defect = transport._flux_integrals(p, th, None)
        got = [flux_report(p, th), heat_flux(p, th), entropy_production(p, th),
               flux_derivative(p, th), ti_commutator_element(p, th)]
        want = [rep, rep.J, rep.sigma, rep.J_prime, defect]
        if lam != 0.0:
            got += [flux_second_derivative(p, th), log_decomposition(p, th).F2]
            want += [rep.J_second, f2]
        assert list(map(repr, got)) == list(map(repr, want))

    def test_one_operating_point_samples_once(self, samplings):
        p, th = ModelParams(0.37), ThermalConfig(1.0, 2.0)
        heat_flux(p, th)
        entropy_production(p, th)
        flux_derivative(p, th, QuadratureSpec())  # equal to the default
        flux_second_derivative(p, th)
        flux_report(p, th)
        log_decomposition(p, th)
        ti_commutator_element(p, th)
        assert len(samplings) == 1

    def test_another_point_samples_again(self, samplings):
        p, q, th = ModelParams(0.37), ModelParams(-1.3), ThermalConfig(1.0, 2.0)
        tight = QuadratureSpec(abs_tol=1e-12)
        for params, thermal, spec in [
            (p, th, None), (ModelParams(0.37), th, None), (p, ThermalConfig(1.0, 2.0), None),
            (p, th, tight), (p, th, None), (q, th, None), (p, th, None), (q, th, None),
        ]:
            before = len(samplings)
            got = flux_report(params, thermal, spec)
            assert len(samplings) == before + 1
            assert repr(got) == repr(transport._flux_integrals(params, thermal, spec)[0])

    def test_report_echoes_the_callers_params(self):
        # equal values are not the same point: the sign of a zero field and
        # nu are echoed from the caller's own params
        th = ThermalConfig(1.0, 2.0)
        heat_flux(ModelParams(0.0), th)
        assert math.copysign(1.0, flux_report(ModelParams(-0.0), th).params.lam) == -1.0
        heat_flux(ModelParams(0.5), th)
        assert flux_report(ModelParams(0.5, nu=3), th).to_dict()["params"]["nu"] == 3

    def test_failed_sampling_holds_nothing(self, samplings):
        p, th = ModelParams(0.5), ThermalConfig(1.0, 2.0)
        spec = QuadratureSpec(abs_tol=1e-30, max_subdivisions=5)
        j = heat_flux(p, th)
        for _ in range(2):
            with pytest.raises(NonConvergence):
                heat_flux(p, th, spec)
        assert heat_flux(p, th) == j  # the entry before the failures
        assert len(samplings) == 3
        assert heat_flux(ModelParams(0.5), th, spec=None) == j
        assert len(samplings) == 4

    def test_threads_read_their_own_points(self):
        # each thread alternates readers at its own point; a torn or lost
        # entry would hand one thread another's values
        th = ThermalConfig(1.0, 2.0)
        points = [ModelParams(lam) for lam in (0.2, -0.7, 1.5, 3e-3)]
        misses = []

        def read(p):
            want = transport._flux_integrals(p, th, None)[0]
            for _ in range(40):
                if repr(flux_report(p, th)) != repr(want) or heat_flux(p, th) != want.J:
                    misses.append(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(p,)) for p in points]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert misses == []

    def test_to_dict_round_trip(self, th12):
        doc = flux_report(ModelParams(0.2, nu=1), th12).to_dict()
        assert doc["params"] == {"lambda": 0.2, "nu": 1}
        assert doc["thermal"] == {"beta_l": 1.0, "beta_r": 2.0}
        assert set(doc) == {"J", "sigma", "J_prime", "J_second", "quadrature_error",
                            "params", "thermal"}


class TestTinyFieldGolden:
    """``J''`` and ``F1 + F2`` below 1e-8 against ``FLUX_FAMILY_MP``."""

    @pytest.mark.parametrize("lam", list(FLUX_FAMILY_MP))
    def test_second_derivative(self, th12, lam):
        ref = FLUX_FAMILY_MP[lam][0]
        rep = flux_report(ModelParams(lam), th12)
        assert abs(rep.J_second - ref) <= rep.quadrature_error + LOG_TERM_ALLOWANCE * abs(ref)

    @pytest.mark.parametrize("lam", list(FLUX_FAMILY_MP))
    def test_log_split_sum(self, th12, lam):
        ref = FLUX_FAMILY_MP[lam][1]
        p = ModelParams(lam)
        dec = log_decomposition(p, th12)
        error = flux_report(p, th12).quadrature_error  # bounds F2
        assert abs(dec.F1 + dec.F2 - ref) <= error + LOG_TERM_ALLOWANCE * abs(ref)


class TestMpmathReference:
    """Literals from ``perfbench/refs/transport.json`` (mpmath, 30 digits),
    each with its tolerance ``1e-10 + 1e-12 |value|``."""

    def test_flux_at_stiff_fields(self, th12):
        for lam, ref, tol in (
            (0.0102069, 0.01944498914921132, 1.0001944498914922e-10),
            (2.74011e-05, 0.019467105835723704, 1.0001946710583573e-10),
        ):
            assert abs(heat_flux(ModelParams(lam), th12) - ref) < tol

    def test_report_at_small_field(self, th12):
        rep = flux_report(ModelParams(3.69967e-05), th12)
        assert abs(rep.J - 0.019467105549762054) < 1.0001946710554976e-10
        assert abs(rep.J_prime - -3.3765105505781106e-05) < 1.000000337651055e-10
        assert abs(rep.J_second - -0.8173253289560017) < 1.0081732532895601e-10

    def test_log_split_sum(self, th12):
        dec = log_decomposition(ModelParams(-0.0001244), th12)
        assert abs(dec.F1 + dec.F2 - 1.2520062232375895) < 1.012520062232376e-10
