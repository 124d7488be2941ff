"""Steady-state matrix elements, window assembly, and the shift defect."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslab import numerics, scattering, transport
from nesslab.exceptions import NonConvergence, WindowTooLarge
from nesslab.model import ModelParams, ThermalConfig, bound_state
from nesslab.numerics import QuadratureSpec
from nesslab.ness import (
    MAX_WINDOW_SITES,
    correlation_block,
    s_element,
    ti_commutator_direct,
)
from nesslab.scattering import ac_overlap, band_moments, pp_weight
from nesslab.transport import ti_commutator_element

from bruteforce import overlap_direct

# 30-digit mpmath values of s(0, 2) - s(-1, 1) at th = (1, 2) and (0.1, 50),
# printed by tests/reference_mp.py; the closed form as lam*plain -
# lam^3*kernel missed by 1.3e-10 at 6e5 and raised NonConvergence at 1e6;
# 1e-310 is below the smallest normal double, and so is its defect
TI_DEFECT_MP = {
    0.2: (0.011909127466196463, 0.044455705592329944),
    1e5: (2.4096155257420706e-7, 1.027704471477255e-6),
    6e5: (4.0160258764444905e-8, 1.7128407858957119e-7),
    1e6: (2.4096155258689731e-8, 1.0277044715385275e-7),
    1e-10: (8.5133214305905458e-12, 3.0560796139625749e-11),
    1e-300: (8.5133214320879307e-302, 3.0560796144375957e-301),
    1e-310: (8.5133214320879045e-312, 3.0560796144375863e-311),
}


class TestSElement:
    def test_zero_field_diagonal_is_half(self, th12):
        p = ModelParams(0.0)
        assert abs(s_element(p, th12, 0, 0) - 0.5) < 1e-10
        assert abs(s_element(p, th12, 3, 3) - 0.5) < 1e-10

    def test_zero_field_translation_invariant(self, th12):
        p = ModelParams(0.0)
        assert abs(s_element(p, th12, 0, 1) - s_element(p, th12, 5, 6)) < 1e-10

    def test_field_breaks_translation_invariance(self, th12):
        p = ModelParams(1.0)
        assert abs(s_element(p, th12, 0, 1) - s_element(p, th12, 5, 6)) > 1e-4

    @settings(max_examples=20)
    @given(
        lam=st.floats(-2.0, 2.0),
        x=st.integers(-4, 4),
        y=st.integers(-4, 4),
    )
    def test_self_adjoint(self, th12, lam, x, y):
        p = ModelParams(lam)
        assert abs(s_element(p, th12, x, y) - s_element(p, th12, y, x).conjugate()) < 1e-9

    def test_bound_state_term_at_tiny_field(self, th12):
        # the 40-digit weight of test_scattering.PP_WEIGHT_MP times the
        # amplitudes, ~2e-13 in all; the sum with the band part rounds at
        # one ulp of |s(0, 1)| ~ 0.16
        lam = 1e-12
        p = ModelParams(lam)
        amp = bound_state(lam).amplitude
        term = 0.19407217169661313558 * amp(0) * amp(1)
        assert abs(s_element(p, th12, 0, 1) - ac_overlap(p, th12, 0, 1) - term) < 1e-16

    def test_diagonal_report(self, th12, capsys):
        # the on-site occupations shift under the field; record the profile
        # without pinning it (no closed form is asserted here)
        p = ModelParams(1.0)
        for x in range(-2, 3):
            val = s_element(p, th12, x, x)
            assert abs(val.imag) < 1e-10
            assert 0.0 < val.real < 1.0
            print(f"s({x},{x}) - 1/2 = {val.real - 0.5:+.6f}")


class TestCorrelationBlock:
    def test_zero_field_toeplitz(self, th12):
        block = correlation_block(ModelParams(0.0), th12, -3, 3)
        m = block.matrix
        for off in range(-6, 7):
            diag = np.diagonal(m, offset=off)
            assert np.max(np.abs(diag - diag[0])) < 1e-12

    def test_hermitian_by_construction(self, th12):
        block = correlation_block(ModelParams(0.5), th12, -2, 2)
        assert np.max(np.abs(block.matrix - block.matrix.conj().T)) < 1e-12

    def test_value_accessor(self, th12):
        block = correlation_block(ModelParams(0.3), th12, -2, 2)
        assert block.value(-2, 1) == complex(block.matrix[0, 3])
        assert list(block.sites) == [-2, -1, 0, 1, 2]
        with pytest.raises(IndexError):
            block.value(3, 0)

    def test_matches_pointwise_element(self, th12):
        p = ModelParams(0.8)
        block = correlation_block(p, th12, -1, 1)
        assert abs(block.value(0, 1) - s_element(p, th12, 0, 1)) < 1e-13

    def test_to_dict_shape(self, th12):
        block = correlation_block(ModelParams(0.2, nu=1), th12, -1, 1)
        doc = block.to_dict()
        assert doc["window"] == [-1, 1]
        assert doc["params"] == {"lambda": 0.2, "nu": 1}
        assert doc["thermal"] == {"beta_l": 1.0, "beta_r": 2.0}
        assert len(doc["re"]) == 3 and len(doc["re"][0]) == 3
        assert len(doc["im"]) == 3

    def test_window_cap(self, th12):
        with pytest.raises(WindowTooLarge):
            correlation_block(ModelParams(0.1), th12, 0, MAX_WINDOW_SITES)

    def test_window_order(self, th12):
        with pytest.raises(ValueError):
            correlation_block(ModelParams(0.1), th12, 2, 1)


class TestOneSampling:
    @pytest.mark.parametrize("lam", [0.0, 5e-324, -0.3, 0.5, 1e300])
    def test_each_call_samples_once(self, monkeypatch, th12, lam):
        # band moments and bound-state weight from one certified sampling,
        # with no cached weight to skip a second one
        calls = []
        refine = numerics.refine_panels

        def counted(*args):
            calls.append(args[-1])
            return refine(*args)

        for module in (numerics, scattering, transport):
            monkeypatch.setattr(module, "refine_panels", counted)
        scattering._pp_weight_cached.cache_clear()
        correlation_block(ModelParams(lam, 1), th12, -3, 3)
        assert len(calls) == 1
        s_element(ModelParams(lam), th12, 2, -1)
        assert len(calls) == 2


def direct_block(params, th, lo, hi):
    """Window from the raw-quadrature twin plus the bound-state term.

    The twin gives the band part; the bound part is the library's thermal
    weight times the closed-form amplitudes, which the dense-oracle tests
    of ``pp_weight`` cover.
    """
    sites = range(lo, hi + 1)
    band = np.array(
        [[overlap_direct(params.lam, th.beta_l, th.beta_r, x, y) for y in sites] for x in sites]
    )
    amp = bound_state(params.lam).amplitude(np.arange(lo, hi + 1))
    return band + pp_weight(params, th) * np.outer(amp, amp)


class TestAgainstDirectOverlap:
    @pytest.mark.parametrize("lam", [1e-3, -1e-3, 0.1, -0.1, 0.5, -0.5, 1.5, -1.5])
    def test_block_matches_twin(self, th12, lam):
        for nu in (0, 2):
            params = ModelParams(lam, nu)
            block = correlation_block(params, th12, -2, 2)
            assert np.max(np.abs(block.matrix - direct_block(params, th12, -2, 2))) < 1e-10

    @pytest.mark.parametrize("lam", [0.5, -1e-3])
    def test_off_centre_window(self, th12, lam):
        params = ModelParams(lam)
        block = correlation_block(params, th12, 3, 9)
        assert np.max(np.abs(block.matrix - direct_block(params, th12, 3, 9))) < 1e-10

    def test_far_pair(self, th12):
        # frequencies up to 75; the element reads only six of them
        value = ac_overlap(ModelParams(-0.3), th12, 40, -35)
        assert abs(value - overlap_direct(-0.3, 1.0, 2.0, 40, -35)) < 1e-10

    @pytest.mark.parametrize(
        "lam, betas", [(-1e6, (0.1, 50.0)), (-1e6, (1.0, 2.0)), (1e6, (1.0, 2.0))]
    )
    def test_huge_field_element(self, lam, betas):
        # |s| ~ 3e-8 and 3e-9 here; a matched pole subtraction of the field
        # kernels missed by 8.0e-11 and 2.5e-11, the kernels sampled as
        # defined by 1.9e-17 at most
        value = ac_overlap(ModelParams(lam), ThermalConfig(*betas), -5, 9)
        assert abs(value - overlap_direct(lam, *betas, -5, 9)) < 1e-13

    @pytest.mark.parametrize("lam", [1e6, 1e-12])
    def test_domain_edges_certified_or_refused(self, lam):
        th = ThermalConfig(500.0, 1000.0)
        params = ModelParams(lam)
        try:
            block = correlation_block(params, th, -2, 2)
        except NonConvergence:
            return
        assert np.max(np.abs(block.matrix - direct_block(params, th, -2, 2))) < 1e-10

    @pytest.mark.parametrize("lam", [8e153, 1e200, 1.7e308, -1e200])
    def test_overflowing_field_certified(self, th12, lam):
        # 3 lam^2/2pi overflows above about 7.7e153 and lam^2 above 1.3e154;
        # the kernels are sampled with their field factors, so no field is
        # squared, and the suite turns any RuntimeWarning into an error
        params = ModelParams(lam)
        for x, y in ((-5, 9), (0, 1), (0, 0)):
            value = ac_overlap(params, th12, x, y)
            assert abs(value - overlap_direct(lam, 1.0, 2.0, x, y)) < 1e-13
        assert s_element(params, th12, 0, 0) == 0.5

    @pytest.mark.parametrize("betas", [(0.5, 3.0), (2.0, 3.0), (3.0, 10.0), (1.0, 1.000000001)])
    def test_huge_field_diagonal_at_any_temperatures(self, betas):
        # the band part of s(0, 0) cancels exactly, because both reservoirs
        # read one moment at frequency 0; summed per reservoir, it missed
        # by an ulp at these temperatures
        th = ThermalConfig(*betas)
        for lam in (1e200, -1e250, 1.7e308):
            assert s_element(ModelParams(lam), th, 0, 0) == 0.5

    def test_largest_field_below_overflow(self, th12):
        value = ac_overlap(ModelParams(7e153), th12, -5, 9)
        assert abs(value - overlap_direct(7e153, 1.0, 2.0, -5, 9)) < 1e-13


class TestMpmathReference:
    """Elements of the benchmark's mpmath references at small fields.

    Values, tolerances and layout as in ``perfbench/refs/window.json``
    (band overlap at 20 digits plus the bound-state term; each tolerance
    is one 1e-10 share for the band and one for the bound weight).
    """

    def test_small_field_element(self, th12):
        # adaptive quadrature returned 1.83e-8 here, 46 tolerances off
        value = s_element(ModelParams(7.08503e-05), th12, -3, 3)
        ref = complex(9.129654423713225e-09, 0.00809932819988112)
        assert abs(value - ref) < 2.000080993281999e-10

    def test_small_field_window(self, th12):
        # adaptive quadrature raised NonConvergence on this window
        block = correlation_block(ModelParams(-2.87931e-04), th12, -7, 7)
        refs = {
            (-7, -7): (0.5000214244839849, -1.0236079754887956e-30, 2.00500021424484e-10),
            (-7, 7): (-4.597164033843587e-08, 0.003405356846574246, 2.0000340535684688e-10),
            (-3, 3): (-7.182511608647098e-08, 0.008099178928098482, 2.0000809917892843e-10),
            (-1, 2): (0.007935795172925132, 2.242069692053454e-05, 2.0000793582684503e-10),
            (0, 0): (0.5000880399482996, 1.4197621439297164e-32, 2.005000880399483e-10),
            (0, 1): (-0.1603522656974421, 0.0, 2.0016035226569745e-10),
            (6, 7): (-0.16035234402409235, 0.0, 2.0016035234402409e-10),
            (7, 7): (0.4999784835727344, -1.0241470791421876e-29, 2.0049997848357274e-10),
        }
        for (x, y), (re, im, tol) in refs.items():
            assert abs(block.value(x, y) - complex(re, im)) < tol


# 30-digit mpmath band overlaps at th = (1, 2) and the 40-digit bound-state
# weight, printed by tests/reference_mp.py; below 1e-14 the elements took
# the plane term alone and missed by up to 3.0e-15 at abs_tol = 1e-15
S_ELEMENT_MP = {
    9.9e-15: (
        0.19407217169606185064,
        {
            (0, 0): complex(0.49999999999999505, 0.0),
            (0, 2): complex(-9.3220535859875982e-16, 0.038934212413960928),
        },
    ),
    1e-15: (
        0.19407217169605689514,
        {
            (0, 0): complex(0.4999999999999995, 0.0),
            (0, 2): complex(-9.4162157434220286e-17, 0.038934212413960928),
        },
    ),
}

# abs_tol plus the roundoff of assembling an element from its moments and
# the bound-state term, which no estimate counts
TINY_SPEC, TINY_BOUND = QuadratureSpec(abs_tol=1e-15), 2e-15


class TestTinyFields:
    @pytest.mark.parametrize("site", [(0, 0), (0, 2)])
    @pytest.mark.parametrize("lam", list(S_ELEMENT_MP))
    def test_tight_tolerance_matches_mpmath(self, th12, lam, site):
        weight, bands = S_ELEMENT_MP[lam]
        amp = bound_state(lam).amplitude
        ref = bands[site] + weight * amp(site[0]) * amp(site[1])
        assert abs(s_element(ModelParams(lam), th12, *site, TINY_SPEC) - ref) < TINY_BOUND

    @pytest.mark.parametrize("site", [(0, 0), (0, 2)])
    @pytest.mark.parametrize("lam", list(S_ELEMENT_MP))
    def test_band_estimate_covers_the_miss(self, th12, lam, site):
        # with frequency 0 the summation roundoff is most of the estimate, 9e-16
        x, y = site
        moments = band_moments(lam, th12, (y - x, x + y), TINY_SPEC)
        assert abs(moments.overlap(*site) - S_ELEMENT_MP[lam][1][site]) <= moments.error_estimate

    @pytest.mark.parametrize("site", [(0, 0), (0, 2)])
    @pytest.mark.parametrize("lam", [1e-300, 5e-324, -5e-324])
    def test_subnormal_fields_meet_zero_field(self, th12, lam, site):
        # the field terms are O(|lam| log(1/|lam|)), far below roundoff
        zero = s_element(ModelParams(0.0), th12, *site, TINY_SPEC)
        assert abs(s_element(ModelParams(lam), th12, *site, TINY_SPEC) - zero) < TINY_BOUND

    @settings(max_examples=80)
    @given(
        log_lam=st.floats(math.log(5e-324), math.log(1.7e308)),
        sign=st.sampled_from([1.0, -1.0]),
        x=st.integers(-4, 4),
        y=st.integers(-4, 4),
    )
    def test_whole_field_range(self, th12, log_lam, sign, x, y):
        params = ModelParams(sign * min(max(math.exp(log_lam), 5e-324), 1.7e308))
        forward = s_element(params, th12, x, y)
        assert cmath.isfinite(forward)
        assert abs(forward - s_element(params, th12, y, x).conjugate()) < 1e-12
        assert 0.0 < s_element(params, th12, x, x).real < 1.0


class TestTiCommutator:
    def test_zero_iff_zero_field(self, th12):
        assert ti_commutator_element(ModelParams(0.0), th12) == 0.0
        for lam in (0.05, -0.05, 0.2, -0.2, 1.0, -1.0):
            assert abs(ti_commutator_element(ModelParams(lam), th12)) > 1e-6

    def test_sign_follows_field(self, th12):
        for lam in (0.1, -0.1, 0.5, -0.5):
            val = ti_commutator_element(ModelParams(lam), th12)
            assert math.copysign(1.0, val) == math.copysign(1.0, lam)

    def test_equilibrium_vanishes(self):
        # a zero defect carries the sign of the field, zero included
        th = ThermalConfig(2.0, 2.0)
        for lam in (0.0, 0.3, 1.0, -0.0, -0.3, -5e-324):
            val = ti_commutator_element(ModelParams(lam), th)
            assert val == 0.0 and math.copysign(1.0, val) == math.copysign(1.0, lam)

    def test_fast_path_matches_matrix_elements(self):
        for lam, refs in TI_DEFECT_MP.items():
            for betas, ref in zip(((1.0, 2.0), (0.1, 50.0)), refs):
                th = ThermalConfig(*betas)
                for sign in (1.0, -1.0):
                    p = ModelParams(sign * lam)
                    fast = ti_commutator_element(p, th)
                    # relative, as 1e-15 absolute says nothing at 1e-10 and
                    # below; at 1e-310 the defect is subnormal, and its ulp
                    # is the smallest subnormal, 2^-1074
                    assert abs(fast - sign * ref) <= 8 * math.ulp(ref)
                    assert abs(fast - ti_commutator_direct(p, th)) < 1e-10

    @pytest.mark.parametrize("nu", [0, 2, 10**9])
    @pytest.mark.parametrize("lam", [0.2, -0.7, 1e-300, 5e-324, 3.0, 1e6, -1e-5])
    def test_direct_route_is_the_two_elements(self, th12, lam, nu):
        # both pairs from one sampling: bitwise the two separate elements
        p = ModelParams(lam, nu)
        pair = s_element(p, th12, 0, 2) - s_element(p, th12, -1, 1)
        assert ti_commutator_direct(p, th12) == pair.real
