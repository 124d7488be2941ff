"""Quadrature contract and the geometric sine sum."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nesslab.exceptions import DomainError, InvalidInterval, NonConvergence
from nesslab.numerics import (
    QuadratureSpec,
    adaptive_integrate,
    geometric_sine_sum,
    graded_mesh,
    panel_rule,
)

from bruteforce import sine_partial_sum


class TestQuadratureSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.breakpoints == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"abs_tol": math.inf},
            {"rel_tol": -1.0},
            {"max_subdivisions": 0},
            {"breakpoints": (math.nan,)},
            {"breakpoints": (1.0, 1.0)},
            {"breakpoints": (2.0, 1.0)},
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

    def test_kink_with_breakpoint(self):
        spec = QuadratureSpec(breakpoints=(0.0,))
        res = adaptive_integrate(lambda k: abs(math.sin(k)), -math.pi, math.pi, spec)
        assert abs(res.value - 4.0) < 1e-12

    def test_complex_path(self):
        res = adaptive_integrate(lambda k: complex(math.cos(k), math.sin(k)), 0.0, math.pi)
        assert isinstance(res.value, complex)
        assert abs(res.value - 2.0j) < 1e-12

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidInterval):
            adaptive_integrate(math.sin, 1.0, 1.0)
        with pytest.raises(InvalidInterval):
            adaptive_integrate(math.sin, 2.0, 1.0)

    def test_breakpoint_outside_interior_rejected(self):
        spec = QuadratureSpec(breakpoints=(0.0,))
        with pytest.raises(InvalidInterval):
            adaptive_integrate(math.sin, 0.0, 1.0, spec)
        with pytest.raises(InvalidInterval):
            adaptive_integrate(math.sin, 1.0, 2.0, spec)

    def test_budget_exhaustion_raises(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-14, max_subdivisions=1)
        with pytest.raises(NonConvergence):
            adaptive_integrate(lambda x: math.sin(1.0 / (x + 1e-12)), 0.0, 1.0, spec)

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
        split = adaptive_integrate(f, 0.0, 2.0, replace(spec, breakpoints=(cut,))).value
        assert abs(whole - split) < 2.0 * spec.abs_tol


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
