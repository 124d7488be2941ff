"""Quadrature contract and the geometric sine sum."""

import math
import sys
from dataclasses import fields
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nesslab import numerics, scattering, transport
from nesslab.exceptions import DomainError, InvalidInterval, NonConvergence
from nesslab.model import ModelParams
from nesslab.numerics import (
    QuadratureSpec,
    adaptive_integrate,
    geometric_sine_sum,
    graded_mesh,
    panel_rule,
    refine_panels,
)

from bruteforce import bound_integrals_standalone, graded_mesh_by_pieces, sine_partial_sum


class TestQuadratureSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert [f.name for f in fields(spec)] == ["abs_tol", "max_subdivisions"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"abs_tol": math.inf},
            {"abs_tol": math.nan},
            {"max_subdivisions": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestAdaptiveIntegrate:
    def test_rational_cube_integral(self):
        # integral_0^1 x^3/(x^2 + 1/4)^2 dx has an elementary antiderivative
        exact = 0.5 * (math.log(5.0) - 0.8)
        res = adaptive_integrate(lambda x: x**3 / (x * x + 0.25) ** 2, 0.0, 1.0)
        assert abs(res.value - exact) < 1e-12
        assert res.error_estimate <= 1e-10

    def test_odd_integrand_vanishes(self):
        res = adaptive_integrate(math.cos, -math.pi, math.pi)
        assert abs(res.value) < 1e-12

    def test_kink_inside_a_panel(self):
        # no panel edge falls on the kinks at 0.3 and 0.3 - pi
        res = adaptive_integrate(lambda k: abs(math.sin(k - 0.3)), -math.pi, math.pi)
        assert abs(res.value - 4.0) <= res.error_estimate <= 1e-10

    def test_complex_path(self):
        res = adaptive_integrate(lambda k: complex(math.cos(k), math.sin(k)), 0.0, math.pi)
        assert isinstance(res.value, complex)
        assert abs(res.value - 2.0j) < 1e-12

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidInterval):
            adaptive_integrate(math.sin, 1.0, 1.0)
        with pytest.raises(InvalidInterval):
            adaptive_integrate(math.sin, 2.0, 1.0)

    def test_budget_exhaustion_raises(self):
        spec = QuadratureSpec(abs_tol=1e-13, max_subdivisions=1)
        with pytest.raises(NonConvergence):
            adaptive_integrate(lambda x: math.sin(1.0 / (x + 1e-12)), 0.0, 1.0, spec)

    def test_abs_tol_is_enforced(self):
        # a relative criterion once let this through for a value of order 1
        spec = QuadratureSpec(abs_tol=1e-30, max_subdivisions=5)
        with pytest.raises(NonConvergence, match="after"):
            adaptive_integrate(math.exp, 0.0, 1.0, spec)

    def test_estimate_covers_the_miss(self):
        # the Gauss estimate alone reads 0 here; the miss is summation roundoff
        res = adaptive_integrate(math.exp, 0.0, 1.0, QuadratureSpec(abs_tol=1e-14))
        assert abs(res.value - math.expm1(1.0)) <= res.error_estimate

    def test_non_finite_samples_raise(self):
        with pytest.raises(NonConvergence, match="not finite"):
            adaptive_integrate(lambda x: 1.0 / (x - 0.5) if x > 0.5 else math.nan, 0.0, 1.0)

    def test_final_mesh_panels_reported(self):
        smooth = adaptive_integrate(math.cos, 0.0, 1.0)
        assert smooth.subdivisions_used == 1
        assert abs(smooth.value - math.sin(1.0)) < 1e-15
        peaked = adaptive_integrate(lambda x: 1.0 / (x * x + 1e-4), -1.0, 1.0)
        assert peaked.subdivisions_used > 1
        assert abs(peaked.value - 200.0 * math.atan(100.0)) < 1e-10

    @given(
        coeffs=st.tuples(
            st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)
        ),
        scale=st.floats(-3.0, 3.0),
    )
    def test_linearity(self, coeffs, scale):
        a, b, c = coeffs

        def f(x):
            return a + b * x + c * x * x

        def g(x):
            return math.sin(3.0 * x)

        def combined(x):
            return f(x) + scale * g(x)

        spec = QuadratureSpec()
        lhs = adaptive_integrate(combined, 0.0, 2.0, spec).value
        rhs = (
            adaptive_integrate(f, 0.0, 2.0, spec).value
            + scale * adaptive_integrate(g, 0.0, 2.0, spec).value
        )
        assert abs(lhs - rhs) < 2.0 * spec.abs_tol * (1.0 + abs(scale))

    @given(cut=st.floats(0.1, 1.9))
    def test_split_and_sum(self, cut):
        def f(x):
            return math.exp(-x) * math.cos(4.0 * x)

        spec = QuadratureSpec()
        whole = adaptive_integrate(f, 0.0, 2.0, spec).value
        split = (
            adaptive_integrate(f, 0.0, cut, spec).value
            + adaptive_integrate(f, cut, 2.0, spec).value
        )
        assert abs(whole - split) < 3.0 * spec.abs_tol


# the centre of a panel is a Kronrod node without a Gauss weight; its
# Kronrod weight per unit of the span of the panel's nodes
_T0, _WK0, _ = panel_rule([-1.0, 1.0])
_CENTRE = _WK0[0, 10] / (_T0[0, -1] - _T0[0, 0])


def centre_samples(t, gaps):
    """Samples at the flat nodes ``t`` that vanish but at each panel's centre.

    There they make the Kronrod integral of each panel, and its distance
    from the Gauss rule, ``gaps[..., panel]``.
    """
    panels = t.reshape(-1, 21)
    gaps = np.asarray(gaps, dtype=float)
    out = np.zeros(gaps.shape[:-1] + panels.shape)
    out[..., 10] = gaps / (_CENTRE * (panels[:, -1] - panels[:, 0]))
    return out.reshape(*gaps.shape[:-1], -1)


class TestRefinePanels:
    @staticmethod
    def panel_gaps(gaps):
        """A sample whose panels have the gaps ``gaps[i]`` in round ``i``, and its rounds' nodes."""
        rounds = []

        def sample(t):
            rounds.append(t.reshape(-1, 21))
            return centre_samples(t, [[gaps[min(len(rounds), len(gaps)) - 1]]]), None

        return sample, rounds

    def test_non_finite_estimate_names_the_family(self):
        sample, _ = self.panel_gaps([[0.0, math.nan]])
        edges, spec = np.array([0.0, 1.0, 2.0]), QuadratureSpec()
        with pytest.raises(NonConvergence, match="widgets at x=1 are not finite"):
            refine_panels(sample, edges, np.ones((1, 1)), spec, "widgets at x=1")

    def test_budget_reports_the_panel_count(self):
        # 2 panels -> 4 -> 8 would add 6 > 5 bisections
        sample, rounds = self.panel_gaps([[1.0, 1.0], [1.0] * 4])
        spec = QuadratureSpec(abs_tol=1e-3, max_subdivisions=5)
        with pytest.raises(NonConvergence, match="above 1.000e-03 after 4 panels"):
            refine_panels(sample, np.array([0.0, 1.0, 2.0]), np.ones((1, 1)), spec, "widgets")
        assert [r.shape[0] for r in rounds] == [2, 4]

    def test_bisects_only_panels_above_their_share(self):
        # total 1.1 > abs_tol 1; share 1/4: panels 0 and 2 are above it
        sample, rounds = self.panel_gaps([[0.5, 0.1, 0.3, 0.2], [0.0] * 6])
        spec = QuadratureSpec(abs_tol=1.0)
        edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        _, error, panels = refine_panels(sample, edges, np.ones((1, 1)), spec, "widgets")
        assert error == 0.0 and panels == 6
        refined, _, _ = panel_rule(np.array([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0]))
        assert np.array_equal(rounds[1], refined)

    def test_estimate_sums_each_groups_largest_weighted_gap(self):
        # kernels 0.1, 0.4 and 0.5, 0.25 on the two panels; basis 1, 1 and
        # 3, 0.5.  Per panel: max(0.1, 2 * 0.3) + max(4 * 0.5, 1.5) = 2.6 and
        # max(0.4, 2 * 0.2) + max(4 * 0.25, 0.125) = 1.4; the integrals are
        # 0.5, 0.5 | 0.75, 1.625, so the roundoff is 8 eps (max(0.5, 1) + max(3, 1.625))
        weights = np.array([[1.0, 2.0], [4.0, 1.0]])

        def sample(t):
            basis = np.stack([np.ones_like(t), np.where(t < 1.0, 3.0, 0.5)])
            return centre_samples(t, [[0.1, 0.4], [0.5, 0.25]]), basis

        values, error, panels = refine_panels(
            sample, np.array([0.0, 1.0, 2.0]), weights, QuadratureSpec(abs_tol=10.0), "pairs"
        )
        assert panels == 2
        assert np.allclose(values, [[0.5, 0.5], [0.75, 1.625]], rtol=1e-15, atol=0.0)
        assert error == pytest.approx(4.0 + 32.0 * sys.float_info.epsilon, rel=1e-15)

    def test_roundoff_above_tolerance_raises_without_bisecting(self):
        sizes = []

        def sample(t):
            sizes.append(t.size)
            return np.ones((1, 1, t.size)), None

        spec = QuadratureSpec(abs_tol=1e-16)
        with pytest.raises(NonConvergence, match="1.776e-15 of it summation roundoff"):
            refine_panels(sample, np.array([0.0, 1.0]), np.ones((1, 1)), spec, "ones")
        assert sizes == [21]

    def test_wide_family_samples_each_node_once_per_round(self):
        # 3000 groups of one integrand of 21 nodes fill a chunk with one
        # panel; the first round's first panel (width 0.25, centre below it)
        # is bisected
        calls = []

        def sample(t):
            calls.append(t)
            panels = t.reshape(-1, 21)
            first = (panels[:, 10] < 0.25) & (panels[:, -1] - panels[:, 0] > 0.2)
            return centre_samples(t, np.broadcast_to(first, (3000, first.size))), None

        edges = np.linspace(0.0, 1.0, 5)
        spec = QuadratureSpec(abs_tol=0.5)
        _, error, panels = refine_panels(sample, edges, np.ones((3000, 1)), spec, "wide")
        assert error == 0.0 and panels == 5 and len(calls) == 4 + 5
        refined = np.array([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
        nodes = [panel_rule(e)[0].ravel() for e in (edges, refined)]
        assert np.array_equal(np.concatenate(calls), np.concatenate(nodes))


    def test_basis_family_sums_and_estimate(self):
        # kernels vanish but at the panel centres pi/2 and 3pi/2, where the
        # basis e^{imt}, m = 0, 1, is 1, 1 and i, -i; so the integrals are
        # 0.1 + 0.4, (0.1 - 0.4) i | 0.5, 0.5 i, and each panel's gap is its
        # kernel's: max(0.1, 2 * 0.1) + max(4 * 0.5, 0.5) on the first,
        # max(0.4, 2 * 0.4) + 0 on the second, 3.0 in all; the roundoff is
        # 8 eps (max(0.5, 2 * 0.3) + max(4 * 0.5, 0.5))
        gaps = [[0.1, 0.4], [0.5, 0.0]]
        weights = np.array([[1.0, 2.0], [4.0, 1.0]])

        def sample(t):
            return centre_samples(t, gaps), np.exp(1j * np.multiply.outer([0.0, 1.0], t))

        edges, spec = np.array([0.0, math.pi, 2.0 * math.pi]), QuadratureSpec(abs_tol=10.0)
        values, error, panels = refine_panels(sample, edges, weights, spec, "pairs")
        assert panels == 2
        assert np.allclose(values, [[0.5, -0.3j], [0.5, 0.5j]], rtol=0.0, atol=1e-15)
        assert error == pytest.approx(3.0 + 20.8 * sys.float_info.epsilon, rel=1e-15)

    def test_wide_basis_family_samples_each_node_once_per_round(self):
        # 4 kernels and 600 basis functions: 604 sampled elements per node
        # fit three panels in every chunk.  The first round's first panel
        # (width 0.125, centre below it) is bisected
        calls = []

        def sample(t):
            calls.append(t)
            panels = t.reshape(-1, 21)
            first = (panels[:, 10] < 0.125) & (panels[:, -1] - panels[:, 0] > 0.1)
            kernels = centre_samples(t, np.broadcast_to(first, (4, first.size)))
            return kernels, np.ones((600, t.size))

        edges = np.linspace(0.0, 1.0, 9)
        spec = QuadratureSpec(abs_tol=0.5)
        _, error, panels = refine_panels(sample, edges, np.ones((4, 600)), spec, "wide")
        assert error == 0.0 and panels == 9
        assert [c.size // 21 for c in calls] == [3, 3, 2, 3, 3, 3]
        refined = np.sort(np.append(edges, 0.0625))
        nodes = [panel_rule(e)[0].ravel() for e in (edges, refined)]
        assert np.array_equal(np.concatenate(calls), np.concatenate(nodes))


class TestScalarFamilySums:
    """Kronrod sums of the families without a basis against their exact sums.

    Each family's kernels are sampled again on its final mesh, and the sum
    of every sample times its Kronrod weight is formed exactly in
    ``Fraction`` arithmetic; the per-panel sums of ``refine_panels`` stay
    within 2 eps of it, relative, for every integral of the family.  The
    translation defect, as ``ti_commutator_element`` returns it, is held to
    its weight times the exact sum of its row of the flux family.  The
    bound-state rows of the band moments are held to the same sums at
    frequency 0, where their basis is exactly 1.
    """

    FIELDS = [0.0, 5e-324, -1e-5, 1e-3, 0.05, -0.2, 0.5, -0.9, 1.7, 3.0]

    @staticmethod
    def certify(monkeypatch, module, call):
        """Run ``call`` with ``module.refine_panels`` watched: values, kernels, basis and final weights."""
        seen = {}
        refine, rule = module.refine_panels, numerics.panel_rule

        def watched_refine(sample, *args):
            seen["values"], *rest = refine(sample, *args)
            seen["sample"] = sample
            return (seen["values"], *rest)

        def watched_rule(edges):
            seen["rule"] = rule(edges)
            return seen["rule"]

        monkeypatch.setattr(module, "refine_panels", watched_refine)
        monkeypatch.setattr(numerics, "panel_rule", watched_rule)
        call()
        t, wk, _ = seen["rule"]
        kernels, basis = seen["sample"](t.ravel())
        values = seen["values"]
        return values, np.reshape(kernels, (values.shape[0], -1)), basis, wk.ravel()

    @staticmethod
    def assert_exact(values, kernels, wk):
        weights = [Fraction(w) for w in wk.tolist()]
        for value, row in zip(values.tolist(), kernels.tolist()):
            exact = sum(Fraction(k) * w for k, w in zip(row, weights))
            assert abs(Fraction(value) - exact) <= 2 * Fraction(sys.float_info.epsilon) * abs(exact)

    @pytest.mark.parametrize("lam", FIELDS)
    def test_flux_family(self, monkeypatch, th12, lam):
        call = partial(transport._flux_integrals, ModelParams(lam), th12, None)
        values, kernels, basis, wk = self.certify(monkeypatch, transport, call)
        assert basis is None
        self.assert_exact(values[:, 0], kernels, wk)

    @staticmethod
    def watched_defect(monkeypatch, th, lam):
        """``ti_commutator_element`` at ``lam``, and its sampling as ``certify`` returns it."""
        params, got = ModelParams(lam), []  # a new object: the flux memo samples it
        sampled = TestScalarFamilySums.certify(
            monkeypatch, transport, lambda: got.append(transport.ti_commutator_element(params, th))
        )
        return got[0], sampled

    @pytest.mark.parametrize("lam", FIELDS)
    def test_translation_defect(self, monkeypatch, th12, lam):
        # the reader is 2/pi times the exact sum of the family's last row,
        # signed by lam; |lam| is in the row at a normal field and in the
        # weight at a subnormal one, whose product may round to zero
        defect, (values, kernels, _, wk) = self.watched_defect(monkeypatch, th12, lam)
        if lam == 0.0:
            assert values.shape[0] == 1 and repr(defect) == repr(math.copysign(0.0, lam))
            return
        exact = sum(Fraction(k) * Fraction(w) for k, w in zip(kernels[-1].tolist(), wk.tolist()))
        scale = abs(lam) if abs(lam) < sys.float_info.min else 1.0
        want = math.copysign(1.0, lam) * Fraction(2.0 / math.pi) * Fraction(scale) * exact
        miss = abs(Fraction(defect) - want)
        assert miss <= 4 * Fraction(sys.float_info.epsilon) * abs(want) + Fraction(math.ulp(0.0))

    @pytest.mark.parametrize("lam", [lam for lam in FIELDS if lam != 0.0])
    def test_bound_state_weight(self, monkeypatch, th12, lam):
        # past the cache, which would skip the sampling on a repeat; the
        # weight samples the band moments at frequency 0 alone
        call = partial(scattering._pp_weight_cached.__wrapped__, ModelParams(lam), th12, QuadratureSpec())
        values, kernels, basis, wk = self.certify(monkeypatch, scattering, call)
        assert basis.shape == (1, wk.size) and np.all(basis == 1.0)
        assert values.shape == (13, 1) and not np.any(values.imag)
        self.assert_exact(values[12:, 0].real, kernels[12:], wk)

    @pytest.mark.parametrize("lam", FIELDS)
    def test_bound_rows_match_the_standalone_sampler(self, th12, lam):
        # the bound-state integrals of a half-width-8 window against the
        # same integrals sampled on their own mesh in k, lam < 0 mapped by
        # k -> pi - t; weighted as the estimates weigh them
        mom = scattering.band_moments(lam, th12, range(17))
        if lam == 0.0:
            assert mom.bound is None
            return
        twin, twin_error = bound_integrals_standalone(lam, th12.beta_l, th12.beta_r)
        weight = (2.0 / math.pi) * (abs(lam) / math.hypot(1.0, lam))
        assert weight * abs(mom.bound - twin.sum()) <= mom.error_estimate + twin_error


class TestCancellingFamilySums:
    """Node sums where the integrand changes sign, against the magnitude of their terms.

    ``J''`` changes sign in the field near 0.27, and its sum of ``|k_i w_i|``
    is 65 times the integral at ``lam = 0.25``: there its per-panel sum
    misses the exact sum by 7 eps relative, and by 2.3-2.6 eps at 0.27 and
    0.3, beyond the relative bound of ``TestScalarFamilySums``.  The flux
    family, summed over each panel's nodes by numpy, stays within ``2 eps
    sum|k_i w_i|`` of its exact sums, the bound that holds whatever the sum
    cancels; its translation-defect row has one sign and cancels nothing.
    The bound-state row, summed by the batched product with a basis of
    ones, is positive, so that bound is its relative miss, and it does not
    hold there: 3.06 eps at 0.1028 and 2.13 eps at -1e-4 with the AVX-512
    OpenBLAS kernels, 2.39 eps at 0.1 with the older ones (Prescott to
    Zen).  The row is held to the roundoff term of the certificate,
    ``8 eps`` of its magnitude.
    """

    FIELDS = [
        1e-300, -1e-300, 0.25, -0.25, 0.27, 0.3, -0.3, 0.31, -0.31, 0.1, 0.1028, -1e-4,
        *(float(f"{x:.4g}") * (-1) ** i for i, x in enumerate(np.geomspace(1e-4, 5.0, 17))),
    ]

    @staticmethod
    def assert_within_magnitude(values, kernels, wk, share):
        # every double is an integer times 2^-1074, so each sum is formed
        # exactly in integers scaled by 2^1074 per factor
        def scaled(x):
            n, d = x.as_integer_ratio()
            return n << (1075 - d.bit_length())

        weights = [scaled(w) for w in wk.tolist()]
        for value, row in zip(values.tolist(), kernels.tolist()):
            terms = [scaled(k) * w for k, w in zip(row, weights)]
            miss = abs((scaled(value) << 1074) - sum(terms))
            assert miss <= Fraction(share) * sum(map(abs, terms))

    @pytest.mark.parametrize("lam", FIELDS)
    def test_flux_family(self, monkeypatch, th12, lam):
        call = partial(transport._flux_integrals, ModelParams(lam), th12, None)
        values, kernels, _, wk = TestScalarFamilySums.certify(monkeypatch, transport, call)
        self.assert_within_magnitude(values[:, 0], kernels, wk, 2.0 * sys.float_info.epsilon)

    @pytest.mark.parametrize("lam", FIELDS)
    def test_translation_defect(self, monkeypatch, th12, lam):
        # the defect's row has one sign, so its sum cancels nothing, and the
        # reader carries that sign times the sign of lam
        watched = TestScalarFamilySums.watched_defect
        defect, (values, kernels, _, _) = watched(monkeypatch, th12, lam)
        row = kernels[-1]
        assert np.all(row >= 0.0) or np.all(row <= 0.0)
        assert math.copysign(1.0, defect) == math.copysign(1.0, lam * values[-1, 0])

    @pytest.mark.parametrize("lam", FIELDS)
    def test_bound_state_row(self, monkeypatch, th12, lam):
        params = ModelParams(lam)
        call = partial(scattering._pp_weight_cached.__wrapped__, params, th12, QuadratureSpec())
        values, kernels, _, wk = TestScalarFamilySums.certify(monkeypatch, scattering, call)
        self.assert_within_magnitude(values[12:, 0].real, kernels[12:], wk, numerics._ROUNDOFF)


class TestPanelRule:
    def test_degrees_of_exactness(self):
        # Kronrod 21 points: degree 31; the embedded Gauss 10 points: 19
        t, wk, wg = panel_rule([-1.0, 1.0])
        for k in range(0, 32, 2):
            exact = 2.0 / (k + 1)
            assert abs(wk @ t[0] ** k - exact) < 1e-14
            if k <= 19:
                assert abs(wg @ t[0] ** k - exact) < 1e-14
        assert abs(wk @ t[0] ** 32 - 2.0 / 33) > 1e-13
        assert abs(wg @ t[0] ** 20 - 2.0 / 21) > 1e-8

    def test_gauss_nodes_embedded(self):
        t, _, wg = panel_rule([-1.0, 1.0])
        gauss, _ = np.polynomial.legendre.leggauss(10)
        assert np.max(np.abs(t[0][wg[0] != 0.0] - gauss)) < 1e-15

    def test_panels_tile_the_interval(self):
        t, wk, wg = panel_rule([0.0, 1.0, 3.0])
        assert t.shape == wk.shape == wg.shape == (2, 21)
        assert abs(np.sum(wk * np.cos(t)) - math.sin(3.0)) < 1e-15
        assert np.all((t[0] > 0.0) & (t[0] < 1.0)) and np.all((t[1] > 1.0) & (t[1] < 3.0))


class TestGradedMesh:
    @pytest.mark.parametrize("lam", [5e-324, 1.5e-323, 1e-300, 0.3, 1e308])
    def test_ends_at_every_field(self, lam):
        # |lam|/8 underflows to zero below 4e-323; the grading then starts
        # at the smallest subnormal, 1075 doublings short of pi/2
        edges = graded_mesh(lam, 2.0, 0.5 * math.pi)
        assert edges[0] == 0.0 and edges[-1] == 0.5 * math.pi
        assert np.all(np.diff(edges) > 0.0)
        assert edges.size < 1200
        assert np.all(np.diff(edges) <= math.pi / 16 * (1 + 1e-15))

    def test_pieces_bitwise_as_linspace_makes_them(self):
        # zero, subnormal and drawn fields, both ends, finite and unbounded steps
        rng = np.random.default_rng(20)
        pinned = [0.0, 5e-324, -1.5e-323, 1e308]
        for j in range(100):
            lam = pinned[j] if j < len(pinned) else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 3)
            beta = 10.0 ** rng.uniform(-2, 4)
            end = rng.choice([0.5 * math.pi, math.pi])
            step = math.inf if rng.random() < 0.5 else 10.0 ** rng.uniform(-2, 1)
            got = graded_mesh(lam, beta, end, step)
            ref = graded_mesh_by_pieces(lam, beta, end, step)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestGeometricSineSum:
    def test_closed_form_point(self):
        # q = 1/2, k = pi/2: q/(1 + q^2) = 0.4
        assert abs(geometric_sine_sum(0.5, math.pi / 2.0) - 0.4) < 1e-15

    @pytest.mark.parametrize("q", [1.0, -1.0, 1.5, -2.0])
    def test_ratio_domain(self, q):
        with pytest.raises(DomainError):
            geometric_sine_sum(q, 0.3)

    def test_vanishes_at_zero_ratio(self):
        assert geometric_sine_sum(0.0, 1.2) == 0.0

    @given(q=st.floats(-0.99, 0.99), k=st.floats(-10.0, 10.0))
    def test_matches_partial_sum(self, q, k):
        assert abs(geometric_sine_sum(q, k) - sine_partial_sum(q, k)) < 1e-12
