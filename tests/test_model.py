"""Thermal data, lattice stencils, and the out-of-band eigenvector."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nesslab.exceptions import NoBoundState
from nesslab.model import (
    BoundState,
    ModelParams,
    OperatorKind,
    ThermalConfig,
    bound_state,
    operator_stencil,
    planck_density,
    planck_difference,
)

from bruteforce import fermi_difference

# rho_l(e) - rho_r(e) at 40 digits (mpmath at 800 digits, from the plain
# Fermi factors at the exact binary values of beta and e), for e in ENERGIES
ENERGIES = (1.0, 0.3, 1e-3, 1e-300, -0.7)
PLANCK_DIFFERENCE_MP = {
    (1.0, 2.0): (
        "1.497384993478775648085698994805605208412e-1",
        "7.121378941413646339104120465063915119122e-2",
        "2.499998541667312551773880180602138787299e-4",
        "2.50000000000000006264772958802189921424e-301",
        "-1.339961163904156373755345845612877635033e-1",
    ),
    (1.0, 1.000000001): (
        "1.966119494637972704260565162327246429276e-10",
        "7.33374995735573505085187393640997669971e-11",
        "2.499999581850979378696362123798380035067e-13",
        "2.500000206850927560373668561725196757551e-310",
        "-1.551990241281282956424989016023251692029e-10",
    ),
    (3.0, 3.0000001): (
        "4.517665761239829433735377011982764820012e-9",
        "6.165009171163210449564360600796977434766e-9",
        "2.49999437091681206653312221357169568775e-11",
        "2.499999995908552881593920595210840807739e-308",
        "-6.803629138739881582796095033143549788343e-9",
    ),
    (0.001, 1000.0): (
        "4.997500000208333312447960416865826754308e-1",
        "4.99925000000562499996151806451966780981e-1",
        "2.310583286300048833647902018285117818725e-1",
        "2.499997500000000062647614898588031888127e-298",
        "-4.998250000071458329906468273943314620061e-1",
    ),
    (100.0, 1000.0): (
        "3.720075976020835962959695803863118337359e-44",
        "9.357622968839309342888038418922039565659e-14",
        "2.060793911510648967256559287093996183718e-1",
        "2.250000000000000056382956629219709292816e-298",
        "-3.975449735908664462332419936943046874242e-31",
    ),
}


class TestConfigs:
    def test_thermal_accessors(self):
        th = ThermalConfig(1.0, 2.0)
        assert th.delta == 0.5
        assert th.beta_mean == 1.5
        assert not th.is_equilibrium
        assert ThermalConfig(3.0, 3.0).is_equilibrium

    @pytest.mark.parametrize(
        "pair",
        [(0.0, 1.0), (-1.0, 2.0), (2.0, 1.0), (math.inf, 1.0), (1.0, math.nan)],
    )
    def test_thermal_rejects(self, pair):
        with pytest.raises(ValueError):
            ThermalConfig(*pair)

    def test_params_normalizes_nu(self):
        assert ModelParams(0.5, 2.0).nu == 2
        assert isinstance(ModelParams(0.5, 2.0).nu, int)

    @pytest.mark.parametrize("kwargs", [{"lam": math.nan}, {"lam": 1.0, "nu": -1},
                                        {"lam": 1.0, "nu": 0.5}])
    def test_params_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestPlanck:
    def test_point_value(self):
        assert abs(planck_density(2.0, 1.0) - 1.0 / (1.0 + math.e**2)) < 1e-16
        assert planck_density(5.0, 0.0) == 0.5
        assert planck_density(0.0, 0.7) == 0.5

    def test_overflow_safe(self):
        assert planck_density(1e6, 1.0) == 0.0
        assert planck_density(1e6, -1.0) == 1.0

    def test_vectorized(self):
        out = planck_density(2.0, np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert abs(out[1] - 0.5) < 1e-16

    def test_difference_point_value(self):
        th = ThermalConfig(1.0, 2.0)
        assert abs(planck_difference(th, 1.0) - 0.14973849934787758) < 1e-16

    @given(
        beta_l=st.floats(0.05, 30.0),
        gap=st.floats(0.0, 30.0),
        e=st.floats(-1.0, 1.0),
    )
    def test_difference_matches_plain_fermi(self, beta_l, gap, e):
        th = ThermalConfig(beta_l, beta_l + gap)
        plain = float(fermi_difference(th.beta_l, th.beta_r, e))
        assert abs(planck_difference(th, e) - plain) < 1e-15

    def test_difference_survives_extreme_betas(self):
        th = ThermalConfig(1e3, 2e3)
        val = planck_difference(th, 1.0)
        assert math.isfinite(val)
        assert 0.0 <= val <= 1.0

    @pytest.mark.parametrize("pair", list(PLANCK_DIFFERENCE_MP), ids=str)
    def test_difference_golden_table(self, pair):
        # within a few eps plus the rounding of beta_l |e|, the argument of
        # exp, relative; below the smallest normal double, doubles are
        # spaced by 2^-1074, so the bound adds one such spacing
        th = ThermalConfig(*pair)
        got = planck_difference(th, np.array(ENERGIES))
        eps = Fraction(sys.float_info.epsilon)
        for e, value, ref in zip(ENERGIES, got.tolist(), PLANCK_DIFFERENCE_MP[pair]):
            exact = Fraction(Decimal(ref))
            bound = (3 + Fraction(th.beta_l * abs(e))) * eps * abs(exact) + Fraction(math.ulp(0.0))
            assert abs(Fraction(value) - exact) <= bound, e

    def test_difference_odd_in_energy(self):
        th = ThermalConfig(0.7, 2.3)
        for e in (0.1, 0.5, 1.0):
            assert abs(planck_difference(th, -e) + planck_difference(th, e)) < 1e-15
        assert planck_difference(th, 0.0) == 0.0


class TestStencil:
    def test_field_entries(self):
        p = ModelParams(0.2)
        assert operator_stencil(OperatorKind.MAGNETIC, p, 0, 0) == 0.2
        assert operator_stencil(OperatorKind.MAGNETIC, p, 3, 4) == 0.5
        assert operator_stencil(OperatorKind.MAGNETIC, p, 1, 1) == 0.0
        assert operator_stencil(OperatorKind.XY, p, 0, 0) == 0.0
        assert operator_stencil(OperatorKind.XY, p, 0, 2) == 0.0

    def test_severed_bonds(self):
        p = ModelParams(0.7, nu=1)
        assert operator_stencil(OperatorKind.DECOUPLED, p, 1, 2) == 0.0
        assert operator_stencil(OperatorKind.DECOUPLED, p, -2, -1) == 0.0
        assert operator_stencil(OperatorKind.DECOUPLED, p, 2, 3) == 0.5
        assert operator_stencil(OperatorKind.DECOUPLED, p, 0, 1) == 0.5

    def test_decoupled_differs_from_chain_only_on_contact_bonds(self):
        p = ModelParams(0.3, nu=1)
        cut = {(-2, -1), (-1, -2), (1, 2), (2, 1)}
        for x in range(-6, 7):
            for y in range(-6, 7):
                free = operator_stencil(OperatorKind.XY, p, x, y)
                dec = operator_stencil(OperatorKind.DECOUPLED, p, x, y)
                if (x, y) in cut:
                    assert dec == 0.0 and free == 0.5
                else:
                    assert dec == free

    @pytest.mark.parametrize("nu", range(4))
    @pytest.mark.parametrize("lam", [0.4, -0.7, 5e-324, -0.0])
    def test_arrays_match_scalar_calls_bitwise(self, lam, nu):
        # every pair of sites in [-6, 6], neighbours and non-neighbours alike
        p = ModelParams(lam, nu)
        x, y = (a.ravel() for a in np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)))
        for kind in OperatorKind:
            out = operator_stencil(kind, p, x, y)
            scalar = np.array([operator_stencil(kind, p, int(i), int(j)) for i, j in zip(x, y)])
            assert out.dtype == np.float64 and out.tobytes() == scalar.tobytes()

    def test_unknown_kind_rejected(self):
        for x in (0, np.arange(3)):
            with pytest.raises(ValueError, match="unknown operator kind"):
                operator_stencil("xy", ModelParams(0.2), x, x)

    def test_symmetry(self):
        p = ModelParams(-1.2, nu=2)
        for kind in OperatorKind:
            for x in range(-4, 5):
                for y in range(-4, 5):
                    assert operator_stencil(kind, p, x, y) == operator_stencil(kind, p, y, x)


class TestBoundState:
    def test_closed_forms_at_three_quarters(self):
        state = bound_state(0.75)
        assert abs(state.energy - 1.25) < 1e-15
        assert abs(state.decay_rate - math.log(2.0)) < 1e-15
        assert abs(state.norm_sq - 5.0 / 3.0) < 1e-15
        assert not state.staggered

    def test_negative_field_staggers(self):
        state = bound_state(-0.75)
        assert state.energy == -1.25
        assert state.staggered
        assert state.amplitude(0) > 0.0
        assert state.amplitude(1) < 0.0
        assert state.amplitude(2) > 0.0

    def test_no_bound_state_at_zero(self):
        with pytest.raises(NoBoundState):
            bound_state(0.0)

    @pytest.mark.parametrize("lam", [0.75, -0.6, 2.0, -0.1])
    def test_eigenvector_equation(self, lam):
        state = bound_state(lam)
        worst = 0.0
        for x in range(-50, 51):
            lhs = 0.5 * state.amplitude(x - 1) + 0.5 * state.amplitude(x + 1)
            if x == 0:
                lhs += lam * state.amplitude(0)
            worst = max(worst, abs(lhs - state.energy * state.amplitude(x)))
        assert worst < 1e-12

    @given(lam=st.one_of(st.floats(0.05, 5.0), st.floats(-5.0, -0.05)))
    def test_unit_norm_and_band_gap(self, lam):
        state = bound_state(lam)
        assert abs(state.energy) > 1.0
        span = int(math.ceil(16.0 / state.decay_rate))
        sites = np.arange(-span, span + 1)
        assert abs(np.sum(state.amplitude(sites) ** 2) - 1.0) < 1e-12

    def test_amplitude_array_matches_scalar(self):
        state = bound_state(-1.3)
        arr = state.amplitude(np.array([-2, 0, 3]))
        assert arr.tolist() == [state.amplitude(-2), state.amplitude(0), state.amplitude(3)]

    def test_fields_are_frozen(self):
        state = bound_state(1.0)
        with pytest.raises(AttributeError):
            state.energy = 2.0
        assert isinstance(state, BoundState)
