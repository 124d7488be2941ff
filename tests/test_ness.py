"""Steady-state matrix elements, window assembly, and the shift defect."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslab.exceptions import NonConvergence, WindowTooLarge
from nesslab.model import ModelParams, ThermalConfig, bound_state
from nesslab.ness import (
    MAX_WINDOW_SITES,
    correlation_block,
    s_element,
    ti_commutator_direct,
    ti_commutator_element,
)
from nesslab.scattering import ac_overlap, pp_weight

from bruteforce import overlap_direct


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
        th = ThermalConfig(2.0, 2.0)
        for lam in (0.0, 0.3, 1.0):
            assert ti_commutator_element(ModelParams(lam), th) == 0.0

    def test_fast_path_matches_matrix_elements(self, th12):
        p = ModelParams(0.2)
        fast = ti_commutator_element(p, th12)
        direct = ti_commutator_direct(p, th12)
        assert abs(fast - direct) < 1e-10

    def test_verify_flag_cross_checks(self, th12):
        val = ti_commutator_element(ModelParams(0.7), th12, verify=True)
        assert math.isfinite(val)
