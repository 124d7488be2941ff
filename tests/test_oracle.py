"""Finite-window brute force: construction, evolution, late-time estimates.

The closed-form results elsewhere in the suite are only trustworthy because
the routines here reproduce them from nothing but exact linear algebra on a
truncated chain.  Margins quoted in comments were measured once on the
shipped grids and frozen.
"""

import math

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
from nesslab.model import (
    ModelParams,
    OperatorKind,
    ThermalConfig,
    bound_state,
    operator_stencil,
    planck_density,
)
from nesslab.ness import correlation_block, s_element
from nesslab.oracle import (
    EvolutionTrace,
    build_truncation,
    evolve_with_state,
    initial_two_point,
    ness_estimate,
    numeric_wave_action,
    oracle_flux,
)
from nesslab.scattering import wave_action
from nesslab.transport import heat_flux

from bruteforce import (
    dense_hamiltonians,
    dense_initial_state,
    symbol_coefficient,
    unsplit_bound_data,
    unsplit_evolve,
    unsplit_factorization,
    unsplit_initial_state,
    unsplit_ness_estimate,
    unsplit_oracle_flux,
    unsplit_wave_action,
)


def _array_bytes(item) -> int:
    """Bytes of the numpy arrays reachable through dicts and tuples, each array once."""
    arrays = {}

    def walk(item):
        if isinstance(item, np.ndarray):
            arrays[id(item)] = item
        elif isinstance(item, (dict, tuple)):
            for value in item.values() if isinstance(item, dict) else item:
                walk(value)

    walk(item)
    return sum(array.nbytes for array in arrays.values())


def _held_frames(sys) -> dict:
    """The first-coordinate frames the window's grid store holds, by ``(t_star, parity block)``."""
    store = sys._grid_store
    return {(store.t_star, parity): frame for parity, frame in store.frames.items()}


def _all_evals(sys, kind):
    return np.sort(sys.factorization(kind).energies)


class TestBuildTruncation:
    @pytest.mark.parametrize("m", [9, 5001, 0, -3])
    def test_rejects_out_of_range_half_width(self, m):
        with pytest.raises(ValueError):
            build_truncation(m, ModelParams(0.0))

    def test_memory_cap(self):
        with pytest.raises(ResourceLimit):
            build_truncation(1000, ModelParams(0.0), max_bytes=10**6)

    @pytest.mark.parametrize("m, nu", [(10, 0), (23, 0), (24, 5), (128, 0), (140, 3)])
    def test_memory_estimate_bounds_what_is_held(self, m, nu, th12):
        # the field and free kinds factored (no library path solves the
        # decoupled kind), one state built and, where a late-time grid
        # fits, the first-coordinate frames of the blocks that step (the
        # odd block only beside a sample) on the longest one: the estimate
        # covers it, within 1% when the sample is a single site and the
        # state largest
        params = ModelParams(0.4, nu)
        sys = build_truncation(m, params)
        for kind in (OperatorKind.MAGNETIC, OperatorKind.XY):
            sys.factorization(kind)
        initial_two_point(sys, th12)
        t_star = 0.8 * (m - nu - 2)  # the horizon of the contact sites
        if t_star >= 100.0:
            ness_estimate(sys, th12, 0, 0, t_star)
            oracle_flux(sys, th12, t_star)
            assert set(sys._grid_store.frames) == ({0, 1} if nu else {0})
        held = _array_bytes(vars(sys))
        with pytest.raises(ResourceLimit):
            build_truncation(m, params, max_bytes=held - 1)
        if nu == 0:
            build_truncation(m, params, max_bytes=int(1.01 * held))

    def test_matrices_match_stencil(self):
        # the dense reference is filled from scalar stencil calls
        for m, lam, nu in [(12, 0.4, 1), (12, -0.7, 0), (15, 5e-324, 3), (10, -0.0, 2)]:
            sys = build_truncation(m, ModelParams(lam, nu))
            dense = dense_hamiltonians(m, ModelParams(lam, nu))
            for kind in OperatorKind:
                diag, off = sys.hamiltonians[kind]
                assert diag.shape == (sys.n_sites,) and off.shape == (sys.n_sites - 1,)
                mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                assert np.array_equal(mat, dense[kind])
        sys = build_truncation(12, ModelParams(0.4, 1))
        mid = sys.index(0)
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
        assert np.max(np.abs(_all_evals(sys, OperatorKind.MAGNETIC))) < 1.0
        assert sys.bound_data() is None

    @pytest.mark.parametrize("m", [10, 37, 200])
    def test_one_stencil_call_per_diagonal(self, m, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return operator_stencil(*args)

        monkeypatch.setattr(oracle, "operator_stencil", counted)
        build_truncation(m, ModelParams(0.4, 1))
        assert len(calls) == 6 and set(calls) == set(OperatorKind)

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
            evals = _all_evals(sys, kind)
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
        dense = initial_two_point(sys, th12) @ np.eye(sys.n_sites)
        assert np.max(np.abs(dense - ref)) < 1e-12


class TestParitySplit:
    """The even and odd blocks of a reflection-symmetric Jacobi matrix."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 21])
    def test_blocks_keep_the_spectrum(self, n):
        rng = np.random.default_rng(n)
        diag, off = rng.normal(size=n), rng.normal(size=n - 1)
        diag, off = diag + diag[::-1], off + off[::-1]
        (de, ee), (do, eo) = oracle._parity_split(diag, off)
        assert (de.size, do.size) == ((n + 1) // 2, n // 2)
        blocks = [np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in ((de, ee), (do, eo))]
        split = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks if b.size]))
        full = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.max(np.abs(split - full)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_fold_is_orthogonal_and_inverted_by_unfold(self, n):
        eye = np.eye(n)
        basis = np.vstack(oracle._fold(eye))  # rows: parity basis vectors
        assert np.max(np.abs(basis @ basis.T - eye)) < 1e-15
        assert np.max(np.abs(oracle._unfold(*oracle._fold(eye)) - eye)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 64])
    def test_split_while_symmetric(self, n):
        # a uniform chain splits again wherever a block stays symmetric;
        # every block solved whole is a single site or asymmetric
        diag, off = np.zeros(n), np.full(n - 1, 0.5)
        solve = oracle._split_eigh(diag, off)
        leaves, stack = [], [(solve, diag, off)]
        while stack:
            block, d, e = stack.pop()
            symmetric = d.size > 1 and oracle._is_symmetric(d, e)
            assert isinstance(block, oracle.Split) == symmetric
            if symmetric:
                stack.extend((b, *de) for b, de in zip(block, oracle._parity_split(d, e)))
            else:
                leaves.append(block)
        assert sum(len(w) for w, _ in leaves) == n
        assert oracle._solve_floats(diag, off) * 8 == sum(w.nbytes + u.nbytes for w, u in leaves)
        full = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.max(np.abs(np.sort(solve.energies) - full)) < 1e-13
        eye = np.eye(n)
        assert np.max(np.abs(solve.from_modes(solve.to_modes(eye)) - eye)) < 1e-13
        assert np.max(np.abs(solve.to_modes(eye) @ solve.to_modes(eye).T - eye)) < 1e-13

    def test_asymmetric_pair_rejected(self):
        with pytest.raises(ConsistencyError):
            oracle._parity_split(np.array([0.0, 0.1, 0.0]), np.array([0.5, 0.4]))
        with pytest.raises(ConsistencyError):
            oracle._parity_split(np.array([0.2, 0.0]), np.array([0.5]))


# (M, lam, nu): odd and even M at each nu in 0..3, so odd blocks split
# once or again and reservoirs of odd and even lengths; reservoirs of one
# site; fields of both signs and zero.  M = 31 splits its odd block five
# times, and at lam = 0 the field and free even blocks are one solve too
SPLIT_CASES = [
    (10, 0.5, 9), (10, -0.75, 0), (21, 0.0, 2), (60, -1.3, 4), (61, 0.7, 0),
    (31, 0.0, 0), (11, 0.3, 1), (20, -0.2, 1), (24, 0.9, 2), (12, -0.5, 3), (15, 0.0, 3),
]
EVOLVE_CASES = [
    (40, 0.45, 1), (60, -1.3, 4), (61, 0.7, 0), (64, 0.0, 2),
    (42, -0.3, 0), (41, 0.2, 1), (45, -0.6, 2), (44, 0.8, 3), (47, 0.0, 3),
]
# oracle_flux needs t_star >= 100 inside the horizon, so M >= 127 + nu
FLUX_CASES = [
    (128, 0.6, 0), (131, -0.4, 2), (130, 0.0, 1),
    (129, -0.5, 0), (129, 0.3, 1), (132, 0.2, 2), (130, -0.7, 3), (133, 0.0, 3),
]
# sites up to 3 from the centre, so M >= 128 + max(0, nu - 1)
NESS_CASES = [
    (131, 0.6, 2), (133, -0.4, 3),
    (128, -0.5, 0), (129, 0.3, 0), (130, 0.25, 1), (129, -0.8, 1), (132, -0.6, 2), (134, 0.4, 3),
]


class TestUnsplitTwin:
    """Every oracle value against one solve of the whole window, to 1e-13."""

    @pytest.mark.parametrize("m, lam, nu", SPLIT_CASES)
    def test_eigenvalues(self, m, lam, nu):
        sys = build_truncation(m, ModelParams(lam, nu))
        for kind in OperatorKind:
            ref, _ = unsplit_factorization(sys, kind)
            assert np.max(np.abs(_all_evals(sys, kind) - ref)) < 1e-13

    @pytest.mark.parametrize("m, lam, nu", SPLIT_CASES)
    def test_bound_data(self, m, lam, nu):
        sys = build_truncation(m, ModelParams(lam, nu))
        got, ref = sys.bound_data(), unsplit_bound_data(sys)
        assert (got is None) == (ref is None) == (lam == 0.0)
        if ref is not None:
            assert abs(got[0] - ref[0]) < 1e-13
            assert np.max(np.abs(got[1] - ref[1] * np.sign(ref[1] @ got[1]))) < 1e-13

    @pytest.mark.parametrize("m, lam, nu", SPLIT_CASES)
    def test_initial_state(self, m, lam, nu, th12):
        sys = build_truncation(m, ModelParams(lam, nu))
        dense = initial_two_point(sys, th12) @ np.eye(sys.n_sites)
        assert np.max(np.abs(dense - unsplit_initial_state(sys, th12))) < 1e-13

    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("m, lam, nu", EVOLVE_CASES)
    def test_evolve_correlation(self, m, lam, nu, split, th12):
        # the one library path against the twin's dense evolution, summed
        # from its band/bound parts (split) or through all eigenvectors
        sys = build_truncation(m, ModelParams(lam, nu))
        times = np.linspace(0.0, 0.8 * (m - max(3, nu + 2)), 17)
        state = initial_two_point(sys, th12)
        dense = unsplit_initial_state(sys, th12)
        for x, y in ((0, 0), (-1, 3), (2, -2)):
            trace = evolve_with_state(sys, state, x, y, times)
            values, parts = unsplit_evolve(sys, dense, x, y, times, split=split)
            assert np.max(np.abs(trace.values - values)) < 1e-13
            if not split:
                assert all(not np.any(parts[name]) for name in ("ap", "pa", "pp"))

    @pytest.mark.parametrize("m, lam, nu", NESS_CASES)
    def test_ness_estimate(self, m, lam, nu, th12):
        sys = build_truncation(m, ModelParams(lam, nu))
        state = unsplit_initial_state(sys, th12)
        for x, y in ((0, 0), (3, 3), (-2, -2), (0, 1), (-1, 2), (3, -2)):
            ref = unsplit_ness_estimate(sys, state, x, y, 100.0)
            assert abs(ness_estimate(sys, th12, x, y, 100.0) - ref) < 1e-13

    @pytest.mark.parametrize("m, lam, nu", FLUX_CASES)
    def test_mirrored_flux_is_reflected_frames(self, m, lam, nu, th12):
        # the left flux from the right contact's overlaps, temperatures
        # exchanged, against its own frames: the right ones reflected
        sys = build_truncation(m, ModelParams(lam, nu))
        times = np.linspace(80.0, 100.0, 21)
        frames = oracle._propagate(
            sys.factorization(OperatorKind.MAGNETIC),
            oracle._site_vectors(sys, (nu + 2, nu)),
            times,
        )[::-1]
        dense = unsplit_initial_state(sys, th12)
        values = np.einsum("it,it->t", frames[:, 0].conj(), dense @ frames[:, 1])
        j_left, _ = oracle_flux(sys, th12, 100.0)
        assert abs(j_left - 0.5 * np.mean(values).imag) < 1e-13

    @pytest.mark.parametrize("m, lam, nu", FLUX_CASES)
    def test_oracle_flux(self, m, lam, nu, th12):
        sys = build_truncation(m, ModelParams(lam, nu))
        ref = unsplit_oracle_flux(sys, unsplit_initial_state(sys, th12), 100.0)
        assert np.max(np.abs(np.subtract(oracle_flux(sys, th12, 100.0), ref))) < 1e-13

    @pytest.mark.parametrize("m, lam, nu", EVOLVE_CASES)
    def test_numeric_wave_action(self, m, lam, nu):
        sys = build_truncation(m, ModelParams(lam, nu))
        ks = np.linspace(-3.0, 3.0, 13)
        t = 0.4 * (m - nu - 3)
        for x in (0, 1, -2):
            got = numeric_wave_action(sys, x, t, ks)
            assert np.max(np.abs(got - unsplit_wave_action(sys, x, t, ks))) < 1e-13


# late-time grids at t_star = 100 need M >= 127 + nu
REUSE_CASES = [(128, 0.6, 0), (131, -0.4, 2)]


class TestSiteReuse:
    """Late-time estimates keep the evolved, projected sites of their latest call."""

    @pytest.mark.parametrize("m, lam, nu", REUSE_CASES)
    def test_verify_sequence_bitwise_as_fresh_systems(self, m, lam, nu, th12):
        # the calls of ``nesslab oracle-verify``, in its order
        calls = (
            lambda sys: ness_estimate(sys, th12, 0, 0, 100.0),
            lambda sys: ness_estimate(sys, th12, 0, 1, 100.0),
            lambda sys: oracle_flux(sys, th12, 100.0),
        )
        params = ModelParams(lam, nu)
        shared = build_truncation(m, params)
        got = [call(shared) for call in calls]
        assert got == [call(build_truncation(m, params)) for call in calls]

    def test_shared_site_evolved_once(self, th12, monkeypatch):
        # the verify sequence evolves each block's first coordinate once on
        # its grid and steps every site from those frames; at nu = 0 the
        # odd parts of sites 1 and 2 are the reservoir's phases
        calls = []
        evolve = oracle._evolve

        def counted(block, parity, state, coords, *args):
            calls.append((parity, np.flatnonzero(coords).tolist()))
            return evolve(block, parity, state, coords, *args)

        monkeypatch.setattr(oracle, "_evolve", counted)
        for (m, lam, nu), evolved in zip(
            REUSE_CASES, ([(0, [0]), (1, [0]), (1, [1])], [(0, [0]), (1, [0])])
        ):
            calls.clear()
            sys = build_truncation(m, ModelParams(lam, nu))
            ness_estimate(sys, th12, 0, 0, 100.0)
            even = _held_frames(sys)[(100.0, 0)]
            ness_estimate(sys, th12, 0, 1, 100.0)
            oracle_flux(sys, th12, 100.0)  # contact sites nu + 2 and nu
            assert _held_frames(sys)[(100.0, 0)] is even
            assert calls == evolved

    def test_cache_holds_the_latest_sites_only(self, th12):
        # the store holds the first-coordinate frames alone, whatever sites
        # are read: far sites (beyond nu + 2) are evolved and dropped
        sys = build_truncation(131, ModelParams(0.5, 1))
        held = {}
        for x, y in ((0, 0), (0, 1), (2, -3), (4, -5), (-3, -3), (1, 2)):
            ness_estimate(sys, th12, x, y, 100.0)
            assert all(_held_frames(sys)[key] is frame for key, frame in held.items())
            held = _held_frames(sys)
        oracle_flux(sys, th12, 100.0)
        assert set(_held_frames(sys)) == set(held) == {(100.0, 0), (100.0, 1)}
        assert all(_held_frames(sys)[key] is frame for key, frame in held.items())

    def test_new_t_star_clears_the_cache(self, th12):
        sys = build_truncation(131, ModelParams(-0.4, 2))
        ness_estimate(sys, th12, 0, 1, 100.0)
        before = _held_frames(sys)
        got = ness_estimate(sys, th12, 0, 1, 101.0)
        assert set(_held_frames(sys)) == {(101.0, 0), (101.0, 1)}  # both blocks at nu = 2
        assert all(
            frame is not before[(100.0, parity)]
            for (_, parity), frame in _held_frames(sys).items()
        )
        ref = unsplit_ness_estimate(sys, unsplit_initial_state(sys, th12), 0, 1, 101.0)
        assert abs(got - ref) < 1e-13

    @pytest.mark.parametrize("m, lam, nu", REUSE_CASES)
    def test_new_temperatures_reuse_the_parts(self, m, lam, nu, th12):
        sys = build_truncation(m, ModelParams(lam, nu))
        oracle_flux(sys, th12, 100.0)
        before = _held_frames(sys)
        th13 = ThermalConfig(1.0, 3.0)
        got = oracle_flux(sys, th13, 100.0)
        assert set(_held_frames(sys)) == set(before)
        assert all(_held_frames(sys)[key] is frame for key, frame in before.items())
        ref = unsplit_oracle_flux(sys, unsplit_initial_state(sys, th13), 100.0)
        assert np.max(np.abs(np.subtract(got, ref))) < 1e-13
        est = ness_estimate(sys, th13, -1, 2, 100.0)
        ref = unsplit_ness_estimate(sys, unsplit_initial_state(sys, th13), -1, 2, 100.0)
        assert abs(est - ref) < 1e-13

    @pytest.mark.parametrize(
        "m, lam, nu",
        [(40, 0.45, 1), (61, 0.7, 0), (64, -1.3, 3), (42, 0.3, 0), (41, -0.2, 1), (44, 0.0, 2),
         (45, 0.6, 2), (63, -0.9, 3)],
    )
    def test_parts_are_the_unfolded_frames_amplitudes(self, m, lam, nu, th12):
        # right reservoir (E + O) / sqrt 2, left (E - O) / sqrt 2 with each
        # odd mode negated, sample rows the frame's parity coordinates; at
        # nu = 0 the odd parts are read as phases of the reservoir modes
        sys = build_truncation(m, ModelParams(lam, nu))
        state = initial_two_point(sys, th12)
        modes = state.modes
        times = np.linspace(0.0, 20.0, 5)
        n_res = m - nu
        n_even = len(state.modes.even.energies)
        odd_sign = np.where(np.arange(n_res) < n_even, 1.0, -1.0)[:, None]
        phases = {}  # shared by the sites, as on a late-time grid
        for x in (0, 1, -2, nu + 2):
            part = oracle._site_parts(sys, state, x, times, phases)
            frame = oracle._propagate(
                sys.factorization(OperatorKind.MAGNETIC), oracle._site_vectors(sys, (x,)), times
            )[:, 0]
            right = (part.even + part.odd) * np.sqrt(0.5)
            left = odd_sign * (part.even - part.odd) * np.sqrt(0.5)
            assert np.max(np.abs(modes.to_modes(frame[sys.n_sites - n_res :]) - right)) < 1e-14
            assert np.max(np.abs(modes.to_modes(frame[:n_res]) - left)) < 1e-14
            sample = np.concatenate(oracle._fold(frame[n_res : sys.n_sites - n_res]))
            assert np.max(np.abs(part.sample - sample)) < 1e-14


@pytest.fixture
def solves(monkeypatch):
    # the content of every block handed to the tridiagonal eigensolver
    import scipy.linalg

    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counted(d, e, *args, **kwargs):
        calls.append((d.tobytes(), e.tobytes(), kwargs.get("select", "a")))
        return solve(d, e, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    return calls


class TestSharedSolves:
    """A window solves each distinct Jacobi block once, and its readers share it."""

    @pytest.mark.parametrize("m", [60, 61])
    def test_odd_blocks_are_the_reservoir_at_zero_sample(self, m, th12):
        sys = build_truncation(m, ModelParams(0.4))
        odd = [sys.factorization(kind).odd for kind in OperatorKind]
        state = initial_two_point(sys, th12)
        assert all(block is state.modes for block in odd)

    @pytest.mark.parametrize("m, nu", [(60, 1), (61, 2), (64, 3)])
    def test_field_and_free_odd_blocks_shared_beside_a_sample(self, m, nu, th12):
        sys = build_truncation(m, ModelParams(0.4, nu))
        magnetic, xy, decoupled = (
            sys.factorization(kind).odd
            for kind in (OperatorKind.MAGNETIC, OperatorKind.XY, OperatorKind.DECOUPLED)
        )
        modes = initial_two_point(sys, th12).modes
        assert magnetic is xy
        assert decoupled is not magnetic
        assert modes is not magnetic and modes is not decoupled

    @pytest.mark.parametrize("m, lam, nu", [(128, 0.6, 0), (129, -0.4, 0), (131, 0.5, 2)])
    def test_verify_sequence_solves_each_block_once(self, m, lam, nu, th12, solves):
        sys = build_truncation(m, ModelParams(lam, nu))

        def verify(th):
            ness_estimate(sys, th, 0, 0, 100.0)
            ness_estimate(sys, th, 0, 1, 100.0)
            oracle_flux(sys, th, 100.0)

        verify(th12)
        solved = list(solves)
        verify(ThermalConfig(1.0, 3.0))  # solves nothing
        assert solves == solved
        assert len(set(solved)) == len(solved)
        for kind in OperatorKind:
            sys.factorization(kind)
        assert len(set(solves)) == len(solves)

    def test_zero_field_shares_the_even_block_too(self, th12, solves):
        # at lam = 0 the field and free Hamiltonians are one matrix: two
        # even blocks, one odd block that is the reservoir
        sys = build_truncation(64, ModelParams(0.0))
        for kind in OperatorKind:
            sys.factorization(kind)
        initial_two_point(sys, th12)
        assert len(sys._solves) == 3
        # the odd chain splits once, and its odd half is the even half's
        # sublattice image
        assert len(solves) == len(set(solves)) == 3


def _jacobi(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestSublatticePairing:
    """A bipartite chain's odd half is its even half's sublattice image, not a second solve."""

    @staticmethod
    def _pairs(diag, off):
        # (odd half, its derived eigenpairs) at every split of a zero-diagonal block of even size
        stack, found = [(oracle._split_eigh(diag, off), diag, off)], []
        while stack:
            solve, d, e = stack.pop()
            if isinstance(solve, oracle.Split):
                halves = oracle._parity_split(d, e)
                if d.size % 2 == 0 and not d.any():
                    found.append((halves[1], solve.odd))
                stack.extend((block, *half) for block, half in zip(solve, halves))
        return found

    @staticmethod
    def _check(found):
        from scipy.linalg import eigh_tridiagonal

        for (d, e), (w, v) in found:
            assert isinstance(w, np.ndarray) and np.all(np.diff(w) > 0.0)
            direct = eigh_tridiagonal(d, e, eigvals_only=True) if d.size > 1 else d
            assert np.max(np.abs(w - direct)) < 1e-14
            assert np.max(np.abs(_jacobi(d, e) @ v - v * w)) < 1e-14
            assert np.max(np.abs(v.T @ v - np.eye(w.size))) < 1e-14

    @pytest.mark.parametrize("n", [2, 8, 64, 500])
    def test_free_chain(self, n, solves):
        # measured 2.0e-15 at most; the chain is solved once, its halves
        # halved again only where one is symmetric (n = 2: single sites)
        found = self._pairs(np.zeros(n), np.full(n - 1, 0.5))
        assert len(found) == len(solves) == 1
        self._check(found)

    @pytest.mark.parametrize("m", [61, 64])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_reservoirs(self, m, nu):
        sys = build_truncation(m, ModelParams(0.3, nu))
        diag, off = sys.hamiltonians[OperatorKind.DECOUPLED]
        n_res = m - nu
        # a chain of odd length splits off a free chain of (n - 1) / 2, so
        # every reservoir here meets a bipartite split
        found = self._pairs(diag[:n_res], off[: n_res - 1])
        assert found
        self._check(found)

    def test_diagonal_away_from_the_centre_solves_both_halves(self, solves):
        diag, off = np.zeros(8), np.full(7, 0.5)
        diag[[1, 6]] = 0.3
        solve = oracle._split_eigh(diag, off)
        assert len(solves) == 2
        full = np.linalg.eigvalsh(_jacobi(diag, off))
        assert np.max(np.abs(np.sort(solve.energies) - full)) < 1e-14


# every field the oracle meets, from none to deeply bound
STEP_FIELDS = [0.0, 0.3, -0.3, -2.0, 30.0, 1e3, 1e6]


class TestJacobiSteps:
    """Sites near the centre stepped from the first coordinates, against direct evolution."""

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    @pytest.mark.parametrize("lam", STEP_FIELDS)
    def test_stepped_parts_match_direct_evolution(self, lam, nu, th12):
        # measured 1.1e-14 at most, up to lam = 1e6; stepping the whole
        # frame, the bound state not carried, misses by 3.2e-11 at
        # lam = 30, 1.3e-6 at 1e3 and 1e3 at 1e6
        for m in (40, 41):
            sys = build_truncation(m, ModelParams(lam, nu))
            state = initial_two_point(sys, th12)
            times = np.linspace(0.0, 0.8 * (m - nu - 2), 7)
            store = oracle._GridStore(float(times[-1]), {}, {})
            for x in [x for x in range(-nu - 2, nu + 3) if x]:
                solve = sys.factorization(OperatorKind.MAGNETIC)
                stepped = oracle._stepped_parts(sys, state, solve, store, times, x)
                direct = oracle._site_parts(sys, state, x, times, {})
                for got, ref in zip(stepped, direct):
                    assert got.shape == ref.shape
                    assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_centre_odd_part_holds_no_memory(self, lam, th12):
        sys = build_truncation(60, ModelParams(lam, 2))
        state = initial_two_point(sys, th12)
        times = np.linspace(0.0, 40.0, 5)
        store = oracle._GridStore(40.0, {}, {})
        solve = sys.factorization(OperatorKind.MAGNETIC)
        for part in (
            oracle._stepped_parts(sys, state, solve, store, times, 0),
            oracle._site_parts(sys, state, 0, times, {}),
        ):
            assert part.odd.shape == part.even.shape
            assert part.odd.strides == (0, 0) and not np.any(part.odd)
            assert not np.any(part.sample[3:])  # the sample's odd coordinates

    def test_verify_case_at_zero_sample(self, th12, solves, monkeypatch):
        # two eigensolves (the field's even block, half the free chain) and
        # one dense evolution (the even block's first coordinate)
        products = []
        from_modes = oracle.Eigenpairs.from_modes

        def counted(self, a):
            if a.ndim == 2 and a.shape[1] > 1:
                products.append(a.shape)
            return from_modes(self, a)

        monkeypatch.setattr(oracle.Eigenpairs, "from_modes", counted)
        sys = build_truncation(128, ModelParams(0.6))
        initial_two_point(sys, th12)
        ness_estimate(sys, th12, 0, 0, 100.0)
        ness_estimate(sys, th12, 0, 1, 100.0)
        oracle_flux(sys, th12, 100.0)
        assert len(solves) == 2
        assert products == [(129, 21)]


# (lam, nu, (beta_l, beta_r), M): the cases of ROADMAP item 9 with M <= 600,
# the (0.05, 1) and (2, 0) rows moved to M = 600; window [-8, 8]
MIRROR_CASES = [
    (0.5, 0, (1.0, 2.0), 400),
    (-0.3, 2, (0.5, 3.0), 400),
    (0.0, 0, (1.0, 2.0), 400),
    (0.2, 0, (1.0, 2.0), 600),
    (0.05, 1, (1.0, 2.0), 600),
    (2.0, 0, (0.1, 50.0), 600),
]


class TestMirrorSum:
    """``S(x, y) + S(-x, -y)`` of the closed form against two Gibbs states of the window.

    The reflection-even half of the steady state is static
    (``docs/decisions.md``, "The mirror sum"): the band part of
    ``f_l(h) + f_r(h)``, plus twice the bound state's weight, which is
    ``<b, S_0 b>`` in the decoupled initial state.  The right side reads
    the window's parity solves, its odd block's derived half included,
    and no quadrature.
    """

    @pytest.mark.parametrize("lam, nu, betas, m", MIRROR_CASES)
    def test_reflection_even_half(self, lam, nu, betas, m):
        # measured 0.8e-15 to 4.1e-15
        params, th, w_half = ModelParams(lam, nu), ThermalConfig(*betas), 8
        sys = build_truncation(m, params)
        solve = sys.factorization(OperatorKind.MAGNETIC)
        energies = solve.energies
        # the window's sites in the modes of the field Hamiltonian
        amps = solve.to_modes(oracle._site_vectors(sys, range(-w_half, w_half + 1)))
        bound = np.abs(energies) > 1.0 + 1e-9
        assert np.count_nonzero(bound) == (lam != 0.0)
        occupation = planck_density(th.beta_l, energies) + planck_density(th.beta_r, energies)
        band = amps[~bound]
        static = band.T @ (occupation[~bound, None] * band)
        if lam != 0.0:
            vec = solve.from_modes(bound[:, None].astype(float))[:, 0]
            weight = vec @ (initial_two_point(sys, th) @ vec)
            static += 2.0 * weight * np.outer(amps[bound], amps[bound])
        s = correlation_block(params, th, -w_half, w_half).matrix
        assert np.max(np.abs(s + s[::-1, ::-1] - static)) < 1e-13


class TestBoundData:
    def test_field_pulls_one_level_out(self, sys_m1000_lam075):
        energy, vec = sys_m1000_lam075.bound_data()
        evals = _all_evals(sys_m1000_lam075, OperatorKind.MAGNETIC)
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
        assert not sys._solves
        evals, evecs = unsplit_factorization(sys, OperatorKind.MAGNETIC)
        i = int(np.argmax(np.abs(evals)))
        assert abs(energy - evals[i]) < 1e-12
        ref = evecs[:, i] * np.sign(evecs[:, i] @ vec)
        assert np.max(np.abs(vec - ref)) < 1e-10

    def test_two_levels_outside_band_rejected(self):
        # a second field on the mirror pair +-15 binds a second even level
        sys = build_truncation(20, ModelParams(0.5))
        diag, off = sys.hamiltonians[OperatorKind.MAGNETIC]
        pair = np.isin(np.arange(diag.size), (5, diag.size - 6))
        sys.hamiltonians[OperatorKind.MAGNETIC] = (diag + 0.5 * pair, off)
        with pytest.raises(ConsistencyError, match="2 eigenvalues outside the band"):
            sys.bound_data()

    def test_asymmetric_hamiltonian_rejected(self):
        sys = build_truncation(20, ModelParams(0.5))
        diag, off = sys.hamiltonians[OperatorKind.MAGNETIC]
        sys.hamiltonians[OperatorKind.MAGNETIC] = (diag + 0.5 * (np.arange(diag.size) == 5), off)
        with pytest.raises(ConsistencyError, match="not symmetric"):
            sys.bound_data()
        with pytest.raises(ConsistencyError, match="not symmetric"):
            sys.factorization(OperatorKind.MAGNETIC)


class TestInitialState:
    def test_block_structure(self):
        sys = build_truncation(60, ModelParams(0.3, 2))
        state = initial_two_point(sys, ThermalConfig(1.0, 2.0)) @ np.eye(sys.n_sites)
        lo, hi = sys.index(-2), sys.index(2)
        assert np.array_equal(state[lo : hi + 1, lo : hi + 1], 0.5 * np.eye(5))
        assert np.max(np.abs(state - state.T)) < 1e-14
        w = np.linalg.eigvalsh(state)
        assert w.min() > 0.0 and w.max() < 1.0

    def test_commutes_with_decoupled_hamiltonian(self):
        # measured 1.1e-15; the state is a function of the blocks it was
        # built from, so any residual is pure eigensolver roundoff
        sys = build_truncation(60, ModelParams(0.3, 2))
        state = initial_two_point(sys, ThermalConfig(1.0, 2.0)) @ np.eye(sys.n_sites)
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

    def test_held_factored(self):
        # 58 reservoir sites each side: the eigenpairs of one reservoir's
        # even and odd blocks of 29 and a Planck weight per mode and side;
        # applied to complex rows through them
        sys = build_truncation(60, ModelParams(0.3, 2))
        state = initial_two_point(sys, ThermalConfig(1.0, 2.0))
        assert state.n_sites == 121
        assert [(w.shape, u.shape) for w, u in state.modes] == [((29,), (29, 29))] * 2
        assert state.left.shape == state.right.shape == (58,)
        energies = np.concatenate([w for w, _ in state.modes])
        assert np.max(np.abs(state.left - expit(-energies))) < 1e-15
        assert np.max(np.abs(state.right - expit(-2.0 * energies))) < 1e-15
        dense = state @ np.eye(sys.n_sites)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(sys.n_sites, 4)) + 1j * rng.normal(size=(sys.n_sites, 4))
        assert np.max(np.abs(state @ f - dense @ f)) < 1e-14

    @pytest.mark.parametrize("rows", [100, 120, 122, 130])
    def test_rejects_rows_of_another_window(self, rows):
        sys = build_truncation(60, ModelParams(0.3, 2))
        state = initial_two_point(sys, ThermalConfig(1.0, 2.0))
        with pytest.raises(ValueError, match="121 sites"):
            state @ np.eye(rows)

    def test_rejects_sample_filling_window(self):
        sys = build_truncation(10, ModelParams(0.5, 10))
        with pytest.raises(DomainError):
            initial_two_point(sys, ThermalConfig(1.0, 2.0))


class TestEvolution:
    def test_time_zero_reproduces_initial_state(self, th12):
        sys = build_truncation(400, ModelParams(0.5))
        state = initial_two_point(sys, th12)
        dense = state @ np.eye(sys.n_sites)
        for x, y in ((0, 0), (-1, 2), (0, 1)):
            value = evolve_with_state(sys, state, x, y, [0.0]).values[0]
            assert abs(value - dense[sys.index(x), sys.index(y)]) < 1e-13

    @pytest.mark.parametrize("lam", [0.5, 0.0])
    def test_centre_frame_reflection_symmetric(self, lam):
        # the centre site has no odd part: its frame is even, bit for bit
        sys = build_truncation(80, ModelParams(lam, 1))
        frame = oracle._propagate(
            sys.factorization(OperatorKind.MAGNETIC),
            oracle._site_vectors(sys, (0,)),
            np.linspace(0.0, 60.0, 7),
        )
        assert np.any(frame[: sys.M] != 0.0)
        assert np.array_equal(frame, frame[::-1])

    def test_bound_band_cross_terms_decay(self, sys_m1000_lam05, th12):
        # dispersive decay of the band part against the localized state,
        # on the unsplit twin; window maxima measured 6.7e-4, 2.5e-4, 8.9e-5
        t = np.linspace(50.0, 400.0, 351)
        dense = unsplit_initial_state(sys_m1000_lam05, th12)
        _, parts = unsplit_evolve(sys_m1000_lam05, dense, 0, 1, t, split=True)
        ap = np.abs(parts["ap"])
        w1 = ap[(t >= 50) & (t <= 100)].max()
        w2 = ap[(t >= 100) & (t <= 200)].max()
        w3 = ap[(t >= 200) & (t <= 400)].max()
        assert w1 > w2 > w3
        assert ap[(t >= 200) & (t <= 300)].max() < 1e-2

    def test_window_doubling_agrees(self, th12):
        # measured 6.0e-16: inside the reflection horizon the window size
        # is invisible
        va, vb = (
            evolve_with_state(sys, initial_two_point(sys, th12), 0, 1, [150.0]).values[0]
            for sys in (build_truncation(m, ModelParams(0.3)) for m in (250, 500))
        )
        assert abs(va - vb) < 1e-10

    def test_rejects_bad_probes_and_times(self, th12):
        sys = build_truncation(100, ModelParams(0.0))
        state = initial_two_point(sys, th12)
        with pytest.raises(ValueError):
            evolve_with_state(sys, state, 0, 1, [-1.0, 5.0])
        with pytest.raises(ValueError):
            evolve_with_state(sys, state, 0, 0, [])
        with pytest.raises(ValueError):
            evolve_with_state(sys, state, 0, 1, [5.0, 1.0])
        with pytest.raises(DomainError):
            evolve_with_state(sys, state, 26, 0, [10.0])
        with pytest.raises(TimeHorizonExceeded):
            evolve_with_state(sys, state, 0, 1, [79.0])
        # just inside the guard is fine
        evolve_with_state(sys, state, 0, 1, [78.0])

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
