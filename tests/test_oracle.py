"""Finite-window brute force: construction, evolution, late-time estimates.

The closed-form results elsewhere in the suite are only trustworthy because
the routines here reproduce them from nothing but exact linear algebra on a
truncated chain.  Margins quoted in comments were measured once on the
shipped grids and frozen.
"""

import math
import platform

import numpy as np
import pytest
from scipy.special import expit

from nesslab.exceptions import (
    ConsistencyError,
    DomainError,
    ResourceLimit,
    TimeHorizonExceeded,
)
from nesslab import oracle
from nesslab.model import ModelParams, OperatorKind, ThermalConfig, bound_state
from nesslab.ness import s_element
from nesslab.oracle import (
    EvolutionTrace,
    build_truncation,
    evolve_correlation,
    evolve_with_state,
    initial_two_point,
    ness_estimate,
    numeric_wave_action,
    oracle_flux,
)
from nesslab.scattering import wave_action
from nesslab.transport import heat_flux

from bruteforce import dense_hamiltonians, dense_initial_state, symbol_coefficient


class TestBuildTruncation:
    @pytest.mark.parametrize("m", [9, 5001, 0, -3])
    def test_rejects_out_of_range_half_width(self, m):
        with pytest.raises(ValueError):
            build_truncation(m, ModelParams(0.0))

    def test_memory_cap(self):
        with pytest.raises(ResourceLimit):
            build_truncation(1000, ModelParams(0.0), max_bytes=10**6)

    def test_matrices_match_stencil(self):
        sys = build_truncation(12, ModelParams(0.4, 1))
        dense = dense_hamiltonians(12, ModelParams(0.4, 1))
        mid = sys.index(0)
        for kind in OperatorKind:
            diag, off = sys.hamiltonians[kind]
            assert diag.shape == (sys.n_sites,) and off.shape == (sys.n_sites - 1,)
            mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            assert np.array_equal(mat, dense[kind])
        assert sys.hamiltonians[OperatorKind.MAGNETIC][0][mid] == 0.4
        assert sys.hamiltonians[OperatorKind.XY][0][mid] == 0.0
        assert sys.hamiltonians[OperatorKind.XY][1][mid] == 0.5
        # contact bonds (-2,-1) and (1,2) severed in the decoupled kind; the
        # off-diagonal entry i is the bond between window sites i and i+1
        off_d = sys.hamiltonians[OperatorKind.DECOUPLED][1]
        assert off_d[sys.index(-2)] == 0.0
        assert off_d[sys.index(1)] == 0.0
        assert off_d[sys.index(2)] == 0.5

    def test_free_spectrum_stays_in_band(self):
        sys = build_truncation(50, ModelParams(0.0))
        evals, _ = sys.factorization(OperatorKind.MAGNETIC)
        assert np.max(np.abs(evals)) < 1.0
        assert sys.bound_data() is None

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap trim is glibc's")
    def test_heap_trim_found_on_glibc(self):
        # without it the memory peak of a full factorization depends on
        # which windows the process built before
        assert oracle._malloc_trim is not None

    def test_index_round_trip(self):
        sys = build_truncation(15, ModelParams(0.0))
        assert sys.index(0) == 15
        assert sys.index(-15) == 0
        assert list(sys.sites) == list(range(-15, 16))
        with pytest.raises(DomainError):
            sys.index(16)


# M in 50..200, nu = 0 and nu > 0, fields of both signs
DENSE_TWIN_CASES = [(50, 0.5, 2), (120, -0.6, 0), (200, 0.9, 3)]


class TestDenseTwin:
    """The tridiagonal factorizations against dense ``eigh`` of the old build."""

    @pytest.mark.parametrize("m, lam, nu", DENSE_TWIN_CASES)
    def test_eigenvalues(self, m, lam, nu):
        # measured 2.2e-15 at most
        sys = build_truncation(m, ModelParams(lam, nu))
        dense = dense_hamiltonians(m, ModelParams(lam, nu))
        for kind in OperatorKind:
            evals, _ = sys.factorization(kind)
            assert np.max(np.abs(evals - np.linalg.eigvalsh(dense[kind]))) < 1e-12

    @pytest.mark.parametrize("m, lam, nu", DENSE_TWIN_CASES)
    def test_bound_pair(self, m, lam, nu):
        sys = build_truncation(m, ModelParams(lam, nu))
        w, u = np.linalg.eigh(dense_hamiltonians(m, ModelParams(lam, nu))[OperatorKind.MAGNETIC])
        i = int(np.argmax(np.abs(w)))
        energy, vec = sys.bound_data()
        assert abs(energy - w[i]) < 1e-12
        # unique up to sign: the spectrum of a Jacobi matrix is simple
        ref = u[:, i] * np.sign(u[:, i] @ vec)
        assert np.max(np.abs(vec - ref)) < 1e-12

    @pytest.mark.parametrize("m, lam, nu", DENSE_TWIN_CASES)
    def test_initial_state(self, m, lam, nu, th12):
        # measured 1.8e-14 at most
        sys = build_truncation(m, ModelParams(lam, nu))
        h_d = dense_hamiltonians(m, ModelParams(lam, nu))[OperatorKind.DECOUPLED]
        ref = dense_initial_state(h_d, m, nu, th12.beta_l, th12.beta_r)
        assert np.max(np.abs(initial_two_point(sys, th12) - ref)) < 1e-12


class TestBoundData:
    def test_field_pulls_one_level_out(self, sys_m1000_lam075):
        energy, vec = sys_m1000_lam075.bound_data()
        evals, _ = sys_m1000_lam075.factorization(OperatorKind.MAGNETIC)
        assert int(np.sum(np.abs(evals) > 1.0 + 1e-9)) == 1
        assert abs(energy - 1.25) < 1e-8
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_eigenvector_matches_closed_form(self, sys_m1000_lam075):
        _, vec = sys_m1000_lam075.bound_data()
        bs = bound_state(0.75)
        if vec[sys_m1000_lam075.index(0)] < 0:
            vec = -vec
        xs = np.arange(-20, 21)
        numeric = np.array([vec[sys_m1000_lam075.index(int(x))] for x in xs])
        assert np.max(np.abs(numeric - bs.amplitude(xs))) < 1e-6

    @pytest.mark.parametrize("m, lam", [(1000, 0.6), (1000, -1.8), (200, -0.12), (300, 0.75)])
    def test_matches_full_factorization_without_it(self, m, lam):
        sys = build_truncation(m, ModelParams(lam))
        energy, vec = sys.bound_data()
        assert not sys._factorizations
        evals, evecs = sys.factorization(OperatorKind.MAGNETIC)
        i = int(np.argmax(np.abs(evals)))
        assert abs(energy - evals[i]) < 1e-12
        ref = evecs[:, i] * np.sign(evecs[:, i] @ vec)
        assert np.max(np.abs(vec - ref)) < 1e-10

    def test_two_levels_outside_band_rejected(self):
        sys = build_truncation(20, ModelParams(0.5))
        diag, off = sys.hamiltonians[OperatorKind.MAGNETIC]
        sys.hamiltonians[OperatorKind.MAGNETIC] = (diag + 0.5 * (np.arange(diag.size) == 5), off)
        with pytest.raises(ConsistencyError):
            sys.bound_data()


class TestInitialState:
    def test_block_structure(self):
        sys = build_truncation(60, ModelParams(0.3, 2))
        state = initial_two_point(sys, ThermalConfig(1.0, 2.0))
        lo, hi = sys.index(-2), sys.index(2)
        assert np.array_equal(state[lo : hi + 1, lo : hi + 1], 0.5 * np.eye(5))
        assert np.max(np.abs(state - state.T)) < 1e-14
        w = np.linalg.eigvalsh(state)
        assert w.min() > 0.0 and w.max() < 1.0

    def test_commutes_with_decoupled_hamiltonian(self):
        # measured 1.1e-15; the state is a function of the blocks it was
        # built from, so any residual is pure eigensolver roundoff
        sys = build_truncation(60, ModelParams(0.3, 2))
        state = initial_two_point(sys, ThermalConfig(1.0, 2.0))
        h_d = dense_hamiltonians(60, ModelParams(0.3, 2))[OperatorKind.DECOUPLED]
        assert np.max(np.abs(state @ h_d - h_d @ state)) < 1e-12

    def test_cached_per_temperature_pair(self):
        sys = build_truncation(40, ModelParams(0.0))
        th = ThermalConfig(1.0, 2.0)
        assert initial_two_point(sys, th) is initial_two_point(sys, th)
        other = initial_two_point(sys, ThermalConfig(1.0, 3.0))
        assert other is not initial_two_point(sys, th)

    def test_cache_holds_only_the_latest_state(self):
        # build_truncation's memory budget counts a single state
        sys = build_truncation(40, ModelParams(0.0))
        initial_two_point(sys, ThermalConfig(1.0, 2.0))
        latest = initial_two_point(sys, ThermalConfig(1.0, 3.0))
        assert list(sys._state_cache) == [(1.0, 3.0)]
        assert initial_two_point(sys, ThermalConfig(1.0, 3.0)) is latest
        assert len(sys._state_cache) == 1

    def test_rejects_sample_filling_window(self):
        sys = build_truncation(10, ModelParams(0.5, 10))
        with pytest.raises(DomainError):
            initial_two_point(sys, ThermalConfig(1.0, 2.0))


class TestEvolution:
    def test_time_zero_reproduces_initial_state(self, th12):
        sys = build_truncation(400, ModelParams(0.5))
        state = initial_two_point(sys, th12)
        for x, y in ((0, 0), (-1, 2), (0, 1)):
            value = evolve_correlation(sys, th12, x, y, [0.0], split=False).values[0]
            assert abs(value - state[sys.index(x), sys.index(y)]) < 1e-13

    def test_split_components_sum_to_value(self, th12):
        sys = build_truncation(400, ModelParams(0.5))
        times = np.linspace(0.0, 200.0, 81)
        split = evolve_correlation(sys, th12, 0, 1, times, split=True)
        flat = evolve_correlation(sys, th12, 0, 1, times, split=False)
        total = sum(split.components[name] for name in ("aa", "ap", "pa", "pp"))
        assert np.max(np.abs(total - split.values)) < 1e-13
        assert np.max(np.abs(split.values - flat.values)) < 1e-13
        assert flat.components is None

    def test_bound_band_cross_terms_decay(self, sys_m1000_lam05, th12):
        # dispersive decay of the band part against the localized state;
        # window maxima measured 6.7e-4, 2.5e-4, 8.9e-5
        trace = evolve_correlation(
            sys_m1000_lam05, th12, 0, 1, np.linspace(50.0, 400.0, 351)
        )
        ap = np.abs(trace.components["ap"])
        t = trace.times
        w1 = ap[(t >= 50) & (t <= 100)].max()
        w2 = ap[(t >= 100) & (t <= 200)].max()
        w3 = ap[(t >= 200) & (t <= 400)].max()
        assert w1 > w2 > w3
        assert ap[(t >= 200) & (t <= 300)].max() < 1e-2

    def test_bound_bound_component_constant(self, sys_m1000_lam05, th12):
        trace = evolve_correlation(
            sys_m1000_lam05, th12, 0, 1, np.linspace(50.0, 150.0, 41)
        )
        pp = trace.components["pp"]
        assert np.max(np.abs(pp - pp[0])) <= 1e-12

    def test_window_doubling_agrees(self, th12):
        # measured 6.0e-16: inside the reflection horizon the window size
        # is invisible
        va = evolve_correlation(
            build_truncation(250, ModelParams(0.3)), th12, 0, 1, [150.0], split=False
        ).values[0]
        vb = evolve_correlation(
            build_truncation(500, ModelParams(0.3)), th12, 0, 1, [150.0], split=False
        ).values[0]
        assert abs(va - vb) < 1e-10

    def test_rejects_bad_probes_and_times(self, th12):
        sys = build_truncation(100, ModelParams(0.0))
        with pytest.raises(ValueError):
            evolve_correlation(sys, th12, 0, 1, [-1.0, 5.0])
        with pytest.raises(ValueError):
            evolve_correlation(sys, th12, 0, 0, [])
        with pytest.raises(ValueError):
            evolve_correlation(sys, th12, 0, 1, [5.0, 1.0])
        with pytest.raises(DomainError):
            evolve_correlation(sys, th12, 26, 0, [10.0])
        with pytest.raises(TimeHorizonExceeded):
            evolve_correlation(sys, th12, 0, 1, [79.0])
        # just inside the guard is fine
        evolve_correlation(sys, th12, 0, 1, [78.0])

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            EvolutionTrace(
                times=np.array([1.0, 1.0]), values=np.zeros(2, dtype=complex)
            )
        with pytest.raises(ConsistencyError):
            EvolutionTrace(
                times=np.array([0.0, 1.0]),
                values=np.array([0.0 + 0j, 2.0 + 0j]),
            )
        zeros = np.zeros(2, dtype=complex)
        with pytest.raises(ConsistencyError):
            EvolutionTrace(
                times=np.array([0.0, 1.0]),
                values=np.array([0.1 + 0j, 0.1 + 0j]),
                components={
                    "aa": zeros,
                    "ap": zeros,
                    "pa": zeros,
                    "pp": np.array([0.0 + 0j, 1e-6 + 0j]),
                },
            )

    def test_csv_layout(self, th12):
        sys = build_truncation(100, ModelParams(0.5))
        trace = evolve_correlation(sys, th12, 0, 1, np.linspace(0.0, 20.0, 5))
        text = trace.to_csv()
        lines = text.splitlines()
        assert lines[0] == (
            "t,re,im,re_aa,im_aa,re_ap,im_ap,re_pa,im_pa,re_pp,im_pp"
        )
        assert len(lines) == 6
        assert text.endswith("\n")
        first = [float(cell) for cell in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 11


class TestNessEstimate:
    def test_needs_long_times(self, th12):
        sys = build_truncation(100, ModelParams(0.0))
        for t_star in (99.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite t_star >= 100"):
                ness_estimate(sys, th12, 0, 1, t_star)

    def test_horizon_checked_before_the_grid(self, th12):
        # a grid of 2e299 times would not fit in memory
        sys = build_truncation(100, ModelParams(0.0))
        with pytest.raises(TimeHorizonExceeded):
            ness_estimate(sys, th12, 0, 1, 1e300)

    def test_matches_closed_form_with_field(self, sys_m1000_lam02, th12):
        # measured 3.0e-05 against the 1e-3 gate
        est = ness_estimate(sys_m1000_lam02, th12, 0, 1, 700.0)
        exact = s_element(ModelParams(0.2), th12, 0, 1)
        assert abs(est - exact) < 1e-3

    def test_free_chain_matches_symbol_transform(self, sys_m1000_lam0, th12):
        # measured 2.4e-04; at zero field the steady state is a pure
        # Fourier transform of the two-sided occupation symbol
        est = ness_estimate(sys_m1000_lam0, th12, 0, 3, 500.0)
        assert abs(est - symbol_coefficient(1.0, 2.0, 3)) < 1e-3

    def test_equal_temperature_state_is_stationary(self, sys_m1000_lam0):
        # a thermal state of the evolving Hamiltonian must not move at all;
        # measured drift 6.6e-16
        w, u = sys_m1000_lam0.factorization(OperatorKind.XY)
        state_eq = (u * expit(-2.0 * w)) @ u.T
        trace = evolve_with_state(
            sys_m1000_lam0, state_eq, 0, 1, np.linspace(0.0, 300.0, 61), split=False
        )
        assert np.max(np.abs(trace.values - trace.values[0])) < 1e-10

    def test_equal_temperature_ness_is_thermal(self, sys_m1000_lam0):
        # decoupled start, equal temperatures: recoupling relaxes back to
        # the one thermal state (measured 4.8e-04)
        est = ness_estimate(sys_m1000_lam0, ThermalConfig(2.0, 2.0), 0, 1, 500.0)
        assert abs(est - symbol_coefficient(2.0, 2.0, 1)) < 1e-3


class TestOracleFlux:
    def test_fluxes_balance_and_flow_hot_to_cold(self, th12):
        # measured: balance 1.5e-05, match with quadrature 4.2e-05
        sys = build_truncation(500, ModelParams(0.2))
        j_left, j_right = oracle_flux(sys, th12, 300.0)
        assert j_left > 0.0
        assert abs(j_left + j_right) < 1e-4
        assert abs(j_left - heat_flux(ModelParams(0.2), th12)) < 1e-3

    def test_long_run_matches_quadrature(self, sys_m1500_lam02, th12):
        # measured 4.3e-06 against the 1e-3 gate
        j_left, _ = oracle_flux(sys_m1500_lam02, th12, 900.0)
        assert abs(j_left - heat_flux(ModelParams(0.2), th12)) < 1e-3


class TestNumericWaveAction:
    def test_free_chain_recovers_plane_wave(self, sys_m1000_lam0):
        # measured 2.5e-13: without a field the forward and backward
        # evolutions cancel exactly
        ks = np.linspace(-3.0, 3.0, 25)
        out = numeric_wave_action(sys_m1000_lam0, 2, 100.0, ks)
        assert np.max(np.abs(out - np.exp(2j * ks))) < 1e-10

    def test_band_norm_preserved(self, sys_m1000_lam05):
        # measured 3.4e-15; the scattered wave keeps the norm of the
        # band projection of the starting vector
        _, vec = sys_m1000_lam05.bound_data()
        band_norm2 = 1.0 - vec[sys_m1000_lam05.index(0)] ** 2
        ks = -math.pi + (np.arange(2001) + 0.5) * (2 * math.pi / 2001)
        out = numeric_wave_action(sys_m1000_lam05, 0, 150.0, ks)
        assert abs(np.mean(np.abs(out) ** 2) - band_norm2) < 1e-10

    def test_matches_closed_form_inside_band(self, sys_m1000_lam05):
        # measured sup 4.4e-3 away from the band edges
        ks = np.linspace(0.3, math.pi - 0.3, 41)
        ks = np.concatenate([-ks[::-1], ks])
        out = numeric_wave_action(sys_m1000_lam05, 0, 250.0, ks)
        ref = np.array([wave_action(0.5, 0, k) for k in ks])
        assert np.max(np.abs(out - ref)) < 5e-2

    def test_rejects_bad_requests(self, sys_m1000_lam05):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError):
                numeric_wave_action(sys_m1000_lam05, 0, t, [0.5])
        for k in (3.3, math.nan):
            with pytest.raises(DomainError):
                numeric_wave_action(sys_m1000_lam05, 0, 100.0, [k])
        with pytest.raises(TimeHorizonExceeded):
            # two-way horizon 0.4 * (1000 - 2) = 399.2
            numeric_wave_action(sys_m1000_lam05, 0, 400.0, [0.5])
