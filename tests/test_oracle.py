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

from nesslab.exceptions import ConsistencyError, DomainError, TimeHorizonExceeded
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


def _held_frames(sys) -> dict:
    """The first-coordinate frames the window's grid store holds, by ``(t_star, parity block)``."""
    store = sys._grid_store
    return {(store.times.stop, parity): frame for parity, frame in store.frames.items()}


def _site_vectors(sys, sites) -> np.ndarray:
    """The window's unit vectors ``e_x`` of ``sites``, as columns."""
    psi = np.zeros((sys.n_sites, len(sites)))
    psi[[sys.index(x) for x in sites], range(len(sites))] = 1.0
    return psi


def _direct_parts(sys, state, store, x):
    """The parts of site ``x`` evolved directly through the parity blocks ``e_x`` touches, on ``store``."""
    blocks = zip(sys.factorization(OperatorKind.MAGNETIC), oracle._fold(_site_vectors(sys, (x,))))
    frames = [
        oracle._evolve(block, parity, state, coords, store) if coords.any() else None
        for parity, (block, coords) in enumerate(blocks)
    ]
    return oracle._parts(sys, *frames)


def _all_evals(sys, kind):
    return np.sort(sys.factorization(kind).energies)


class TestBuildTruncation:
    @pytest.mark.parametrize("m", [9, 5001, 0, -3])
    def test_rejects_out_of_range_half_width(self, m):
        with pytest.raises(ValueError):
            build_truncation(m, ModelParams(0.0))

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("m", [10, 5000])
    def test_accepts_the_half_width_caps(self, m, nu, solves):
        # building reads the matrices off the stencil and solves nothing
        sys = build_truncation(m, ModelParams(0.4, nu))
        assert sys.n_sites == 2 * m + 1
        assert solves == []

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


class TestRealApply:
    """The oracle's one product helper: scipy's ``dgemm`` against numpy's ``@``."""

    @staticmethod
    def _mat(layout, rows=6, cols=9):
        mat = np.random.default_rng(5).normal(size=(1 if layout == "row" else rows, cols))
        return np.asfortranarray(mat) if layout == "f" else mat

    @pytest.mark.parametrize("layout", ["c", "f", "row"])
    @pytest.mark.parametrize("shape", [(9,), (9, 4), (9, 4, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_numpy(self, layout, shape, dtype):
        # measured 0.63 ulp of the summands' scale at most
        rng = np.random.default_rng(len(shape))
        mat = self._mat(layout)
        z = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0.0)
        flat = z.reshape(9, -1)
        ref = (mat @ flat).reshape(len(mat), *shape[1:])
        scale = (np.abs(mat) @ np.abs(flat)).reshape(ref.shape)
        got = oracle._real_apply(mat, z)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.flags.c_contiguous
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize(
        "mat_shape, z",
        [
            ((3, 0), np.zeros(0)),
            ((3, 0), np.zeros((0, 2), complex)),
            ((0, 5), np.ones((5, 2))),
            ((0, 5), np.ones((5, 2, 3), complex)),
            ((4, 5), np.ones((5, 0), complex)),
        ],
    )
    def test_empty_operands_fall_back_to_numpy(self, mat_shape, z, monkeypatch):
        import scipy.linalg.blas

        def unreached(*args, **kwargs):
            raise AssertionError("dgemm called on an empty operand")

        monkeypatch.setattr(scipy.linalg.blas, "dgemm", unreached)
        mat = np.ones(mat_shape)
        got = oracle._real_apply(mat, z)
        ref = np.tensordot(mat, z, axes=1)
        assert got.dtype == ref.dtype and got.shape == ref.shape and not got.any()

    @pytest.mark.parametrize("layout", ["c", "f"])
    def test_operands_are_not_copied(self, layout):
        # a copied 800 x 800 operand peaks at 5.76 MB against the matrix's
        # 5.12 MB; read in place, the peak is the 0.64 MB result alone
        import tracemalloc

        mat = self._mat(layout, 800, 800)
        z = np.random.default_rng(2).normal(size=(800, 50)) * (1 + 1j)
        oracle._real_apply(mat, z)  # load scipy's BLAS outside the trace
        tracemalloc.start()
        try:
            oracle._real_apply(mat, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * z.nbytes < mat.nbytes / 4


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
            _site_vectors(sys, (nu + 2, nu)),
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
            if nu == 0:  # the odd parts are the reservoir's phases: no odd frame
                assert set(_held_frames(sys)) == {(100.0, 0)}
            assert calls == evolved

    @pytest.mark.parametrize("m, lam, nu", REUSE_CASES)
    def test_window_rows_formed_once(self, m, lam, nu, th12):
        # what stepping reads of the window alone outlives grids and temperatures
        sys = build_truncation(m, ModelParams(lam, nu))
        oracle_flux(sys, th12, 100.0)
        held = dict(sys._steppings)
        assert set(held) == ({0} if nu == 0 else {0, 1})
        ness_estimate(sys, ThermalConfig(1.0, 3.0), 0, 1, 100.5)
        assert sys._steppings.keys() == held.keys()
        assert all(sys._steppings[parity] is rows for parity, rows in held.items())

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
        store = oracle._GridStore(times, {}, {})  # shared by the sites, as on a late-time grid
        for x in (0, 1, -2, nu + 2):
            part = _direct_parts(sys, state, store, x)
            frame = oracle._propagate(
                sys.factorization(OperatorKind.MAGNETIC), _site_vectors(sys, (x,)), times
            )[:, 0]
            right = (part.even + part.odd) * np.sqrt(0.5)
            left = odd_sign * (part.even - part.odd) * np.sqrt(0.5)
            assert np.max(np.abs(modes.to_modes(frame[sys.n_sites - n_res :]) - right)) < 1e-14
            assert np.max(np.abs(modes.to_modes(frame[:n_res]) - left)) < 1e-14
            sample = np.concatenate(oracle._fold(frame[n_res : sys.n_sites - n_res]))
            assert np.max(np.abs(part.sample - sample)) < 1e-14


@pytest.fixture
def solves(monkeypatch):
    # the content of every block handed to a tridiagonal eigensolver, its
    # selection, and whether eigenvectors were formed (False: an eigenvalue pass)
    import scipy.linalg

    calls = []

    def counting(solve, vectors):
        def counted(d, e, *args, **kwargs):
            formed = vectors and not kwargs.get("eigvals_only", False)
            calls.append((d.tobytes(), e.tobytes(), kwargs.get("select", "a"), formed))
            return solve(d, e, *args, **kwargs)

        return counted

    for name, vectors in (("eigh_tridiagonal", True), ("eigvalsh_tridiagonal", False)):
        monkeypatch.setattr(scipy.linalg, name, counting(getattr(scipy.linalg, name), vectors))
    return calls


class TestLateTimeMemory:
    def test_verify_calls_form_no_dense_vectors(self, th12):
        # the verify calls' traced peak above the initial state stays below
        # what the even block's tail-mode components alone would hold,
        # M (M + 1) floats (7.64 MiB at M = 1000).  Measured 4.06 MiB; with
        # the components held as a dense matrix, 10.30 MiB
        import tracemalloc

        m = 1000
        sys = build_truncation(m, ModelParams(-0.12))
        tracemalloc.start()
        try:
            initial_two_point(sys, th12)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ness_estimate(sys, th12, 0, 0, 100.0)
            ness_estimate(sys, th12, 0, 1, 100.0)
            oracle_flux(sys, th12, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < m * (m + 1) * 8


class TestPhaseTables:
    @pytest.mark.parametrize("t_star", [100.0, 700.0, 900.0, 3998.0])
    def test_grid_products_match_exp(self, t_star):
        # the late-time grid's two-table products against one np.exp an
        # entry, over a window's energies and a strong field's: measured
        # 1.24 eps max(1, |w| t_star) at most, the rounding of w t itself
        count = int(round(0.2 * t_star)) + 1
        grid = oracle._Grid(0.8 * t_star, t_star, count)
        assert np.array_equal(grid.times, np.linspace(0.8 * t_star, t_star, count))
        for lam in (0.25, -1.8, 30.0):
            w = build_truncation(200, ModelParams(lam)).factorization(OperatorKind.MAGNETIC).energies
            got = oracle._phases(w, grid)
            miss = np.abs(got - np.exp(1j * np.outer(w, grid.times)))
            bound = 2 * np.finfo(float).eps * np.maximum(1.0, np.abs(w) * t_star)
            assert got.shape == (len(w), count)
            assert np.all(miss <= bound[:, None])

    def test_given_times_use_exp(self):
        times = np.array([0.0, 0.3, 7.0, 7.5])
        w = np.linspace(-1.5, 1.5, 9)
        assert np.array_equal(oracle._phases(w, times), np.exp(1j * np.outer(w, times)))


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
        # keyed by block and selection alone: an eigenvalue pass and a vector
        # solve of one block are that block solved twice
        assert len({call[:3] for call in solved}) == len(solved)
        for kind in OperatorKind:
            sys.factorization(kind)
        assert len({call[:3] for call in solves}) == len(solves)

    def test_zero_field_shares_the_even_block_too(self, th12, solves):
        # at lam = 0 the field and free Hamiltonians are one matrix: two
        # even blocks, one odd block that is the reservoir
        sys = build_truncation(64, ModelParams(0.0))
        xy, decoupled, magnetic = (sys.factorization(kind) for kind in OperatorKind)
        initial_two_point(sys, th12)
        assert len(sys._solves) == 3
        assert magnetic.even is xy.even and isinstance(magnetic.even, oracle.Arrowhead)
        assert not isinstance(decoupled.even, oracle.Arrowhead)  # its centre is cut off
        # the odd chain splits once and its odd half is the even half's
        # sublattice image; the shared even block is an arrowhead on that
        # chain, with no LAPACK call; the decoupled even block is solved whole
        assert len(solves) == len({call[:3] for call in solves}) == 2
        assert all(formed for *_, formed in solves)


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
BIGGEST = np.finfo(float).max
# an arrowhead's passes per root in the mean, its midpoint pass included,
# and its evaluations after that pass at worst, each bound one root's
# evaluation (1 / 41 of the mean at M = 40) above the larger of those
# measured at M = 40 and 601
SECULAR_COUNTS = {
    0.0: (3.54, 6),  # measured 3.51 (M = 40), 3.00 (601); worst 5
    0.3: (4.15, 9),  # 4.12, 4.01; 8 (601)
    -0.3: (4.15, 9),  # 4.12, 4.01; 8 (601)
    -2.0: (4.05, 5),  # 4.02, 3.98; 4
    30.0: (3.79, 4),  # 3.76, 3.72; 3
    1e3: (3.03, 3),  # 3.00; 2
    1e6: (3.03, 3),  # 3.00; 2
    1e300: (2.03, 2),  # 2.00; 1
    -1e300: (2.03, 2),  # 2.00; 1
    BIGGEST: (2.05, 3),  # 2.02, 2.00; 2
    -BIGGEST: (2.05, 3),  # 2.02, 2.00; 2
}


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
            store = oracle._GridStore(times, {}, {})
            for x in [x for x in range(-nu - 2, nu + 3) if x]:
                stepped = oracle._site_parts(sys, state, store, x)
                direct = _direct_parts(sys, state, oracle._GridStore(times, {}, {}), x)
                for got, ref in zip(stepped, direct):
                    assert got.shape == ref.shape
                    assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_centre_odd_part_holds_no_memory(self, lam, th12):
        sys = build_truncation(60, ModelParams(lam, 2))
        state = initial_two_point(sys, th12)
        times = np.linspace(0.0, 40.0, 5)
        for part in (
            oracle._site_parts(sys, state, oracle._GridStore(times, {}, {}), 0),
            _direct_parts(sys, state, oracle._GridStore(times, {}, {}), 0),
        ):
            assert part.odd.shape == part.even.shape
            assert part.odd.strides == (0, 0) and not np.any(part.odd)
            assert not np.any(part.sample[3:])  # the sample's odd coordinates

    def test_verify_case_at_zero_sample(self, th12, solves, monkeypatch):
        # one vector solve (half the free chain, the reservoir), no LAPACK
        # call for the field's even block (an arrowhead on that chain), and
        # no dense product through a solve's eigenvectors: the even block's
        # first coordinate reaches the reservoir modes through the
        # arrowhead's own tail-mode components
        products = []

        def counting(method):
            def counted(self, a):
                if a.ndim == 2 and a.shape[1] > 1:
                    products.append(a.shape)
                return method(self, a)

            return counted

        for name in ("to_modes", "from_modes"):
            monkeypatch.setattr(oracle.Eigenpairs, name, counting(getattr(oracle.Eigenpairs, name)))
        sys = build_truncation(128, ModelParams(0.6))
        initial_two_point(sys, th12)
        ness_estimate(sys, th12, 0, 0, 100.0)
        ness_estimate(sys, th12, 0, 1, 100.0)
        oracle_flux(sys, th12, 100.0)
        assert [formed for *_, formed in solves] == [True]
        assert products == []


class TestArrowheadTwin:
    """The field's even block solved as an arrowhead on its odd block, against LAPACK's vectors."""

    @pytest.mark.parametrize("m", [40, 41])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_one_solve_at_every_sample(self, nu, m, th12):
        # the block does not depend on nu, and neither does its solve; its
        # tail is the reservoir at nu = 0 alone
        params = ModelParams(0.3, nu)
        sys, zero = build_truncation(m, params), build_truncation(m, ModelParams(0.3))
        arrow = sys.factorization(OperatorKind.MAGNETIC).even
        assert isinstance(arrow, oracle.Arrowhead)
        ref = zero.factorization(OperatorKind.MAGNETIC).even
        assert np.array_equal(arrow.energies, ref.energies)
        assert np.array_equal(arrow.head, ref.head)
        assert np.array_equal(_tail_vectors(arrow), _tail_vectors(ref))
        assert (arrow.tail is initial_two_point(sys, th12).modes) == (nu == 0)

    @pytest.mark.parametrize("m", [40, 41, 400, 601])
    @pytest.mark.parametrize("lam", [*STEP_FIELDS, 1e-300, -1e-300, 5e-324])
    def test_matches_the_vector_solve(self, lam, m):
        # measured over these cases: energies 6.7e-16 and residuals 6.6e-16
        # of max(1, |lam|), orthogonality 6.2e-15 (at lam = 0, M = 601;
        # LAPACK's own 3.9e-15), vectors 4.8e-12 from LAPACK's (lam = 30,
        # M = 601), which is LAPACK's rounding over the band edge's level
        # gaps of about 1e-5
        from scipy.linalg import eigh_tridiagonal

        sys = build_truncation(m, ModelParams(lam))
        solve = sys.factorization(OperatorKind.MAGNETIC)
        arrow = solve.even
        assert isinstance(arrow, oracle.Arrowhead) and arrow.tail is solve.odd
        vectors = _tail_vectors(arrow)
        assert vectors.shape == (m, m + 1)
        d, e = oracle._parity_split(*sys.hamiltonians[OperatorKind.MAGNETIC])[0]
        energies, lapack = eigh_tridiagonal(d, e)
        scale = max(1.0, abs(lam))
        assert np.max(np.abs(arrow.energies - energies)) < 1e-14 * scale
        v = arrow.from_modes(np.eye(m + 1))
        _assert_eigenpairs(d, e, arrow.energies, v, scale)
        # the first components and tail-mode components, up to each vector's sign
        ref = np.vstack([lapack[:1], arrow.tail.to_modes(lapack[1:])])
        got = np.vstack([arrow.head, vectors])
        ref *= np.sign(np.sum(ref * got, axis=0))
        assert np.max(np.abs(got - ref)) < 1e-10

    @pytest.mark.parametrize("m", [10, 40, 41])
    @pytest.mark.parametrize("lam", [1e12, -1e12, 1e300, -1e300])
    def test_huge_fields(self, lam, m):
        # each band root sits about z_p^2 / |lam| from its level, below an
        # ulp of it, where LAPACK's eigenvalue is the level itself or an ulp
        # off it.  LAPACK's eigenvalue errors, about eps |lam|, exceed the
        # level gaps here, so its vectors are no reference: each pair is
        # held to its own residual.  Measured: residuals 5.0e-16 of
        # max(1, |E|), orthogonality 2.0e-15, energies 1.5e-16 of |lam|
        # from LAPACK's
        from scipy.linalg import eigvalsh_tridiagonal

        sys = build_truncation(m, ModelParams(lam))
        arrow = sys.factorization(OperatorKind.MAGNETIC).even
        d, e = oracle._parity_split(*sys.hamiltonians[OperatorKind.MAGNETIC])[0]
        energies = np.sort(arrow.energies)
        assert np.max(np.abs(energies - eigvalsh_tridiagonal(d, e))) < 1e-14 * abs(lam)
        assert np.all(np.diff(energies) > 0)
        _assert_eigenpairs(d, e, arrow.energies, arrow.from_modes(np.eye(m + 1)))
        # a band root's first component, about z_p / lam, against the
        # one-pole estimate |z_p / (w_p - lam - sum_{i != p} z_i^2 / (w_p -
        # w_i))|, exact to relative order (z / lam)^2
        w, z = arrow.tail.energies, e[0] * arrow.tail.to_modes(np.eye(m, 1))[:, 0]
        band = np.argsort(np.abs(arrow.energies))[:m]
        for k, q in zip(band, np.argmin(np.abs(arrow.energies[band, None] - w), axis=1)):
            rest = np.sum(np.delete(z * z, q) / (w[q] - np.delete(w, q)))
            assert arrow.head[k] == pytest.approx(abs(z[q] / (w[q] - d[0] - rest)), rel=1e-13)

    @pytest.mark.parametrize("lam", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_largest_float_field(self, lam):
        # no term of the solve overflows.  The band roots' shifts, about
        # 1e-312, and first components are subnormal floats with fewer
        # significant bits: residuals measured 1.2e-14 of max(1, |E|) at
        # M = 40 (1.4e-14 at 41, 8.1e-13 at 601), orthogonality 1.8e-15
        sys = build_truncation(40, ModelParams(lam))
        arrow = sys.factorization(OperatorKind.MAGNETIC).even
        d, e = oracle._parity_split(*sys.hamiltonians[OperatorKind.MAGNETIC])[0]
        assert np.all(np.diff(np.sort(arrow.energies)) > 0)
        _assert_eigenpairs(d, e, arrow.energies, arrow.from_modes(np.eye(41)), rtol=1e-13)

    def test_at_the_cap(self):
        # M = 5000 at lam = 1e6: the band-edge roots sit about 1e-16 from
        # their levels.  The lowest, central and highest eight pairs,
        # measured: residuals 2.5e-16 of max(1, |E|), orthogonality 4.1e-15,
        # energies 3.4e-15 from LAPACK's
        from scipy.linalg import eigvalsh_tridiagonal

        sys = build_truncation(5000, ModelParams(1e6))
        arrow = sys.factorization(OperatorKind.MAGNETIC).even
        d, e = oracle._parity_split(*sys.hamiltonians[OperatorKind.MAGNETIC])[0]
        order = np.argsort(arrow.energies)
        assert np.max(np.abs(arrow.energies[order] - eigvalsh_tridiagonal(d, e))) < 1e-14 * 1e6
        pick = np.r_[order[:8], order[2496:2504], order[-8:]]
        eye = np.zeros((5001, pick.size))
        eye[pick, np.arange(pick.size)] = 1.0
        _assert_eigenpairs(d, e, arrow.energies[pick], arrow.from_modes(eye))

    @pytest.mark.parametrize("lam", [0.3, 1e6, 1e300])
    @pytest.mark.parametrize("start", ["top", "zero", "level", "mirror"])
    def test_any_start_converges(self, start, lam, monkeypatch):
        # the midpoint pass only starts the iteration: started instead from
        # the top root, from 0, from an ulp off its own level or from its
        # mirror image across its interval's midpoint (a start outside its
        # interval at that midpoint), every root converges to the same
        # pair.  Measured: energies 5.6e-17 of max(1, |lam|), first
        # components 4.4e-16 relative, tail-mode components 2.2e-16
        ref = build_truncation(40, ModelParams(lam)).factorization(OperatorKind.MAGNETIC).even
        w, solve = ref.tail.energies, oracle._secular_roots

        def started(tau, low, high, gap, pole, *args):
            # M = 40 solves its 41 roots in one chunk, in ascending order
            assert tau.size == ref.energies.size
            shift = ref.energies - w[pole]
            tau = {
                "top": np.max(ref.energies) - w[pole],
                "zero": -w[pole],
                "level": np.where(high > 0, 5e-324, -5e-324),
                "mirror": low + high - shift,
            }[start]
            tau = np.where((low < tau) & (tau < high), tau, low / 2 + high / 2)
            return solve(tau, low, high, gap, pole, *args)

        monkeypatch.setattr(oracle, "_secular_roots", started)
        arrow = build_truncation(40, ModelParams(lam)).factorization(OperatorKind.MAGNETIC).even
        assert np.max(np.abs(arrow.energies - ref.energies)) < 1e-15 * max(1.0, abs(lam))
        # the first components relatively: at lam = 1e300 they are about 1e-301
        assert np.max(np.abs(arrow.head / ref.head - 1)) < 1e-13
        assert np.max(np.abs(_tail_vectors(arrow) - _tail_vectors(ref))) < 1e-13

    @pytest.mark.parametrize("m", [40, 601])
    def test_products_read_the_same_components(self, m):
        # the few-root product forms only its columns' roots, and a first
        # coordinate skips the tail product: the same components either way.
        # The full product against the dense one, measured 4.9e-15 at M = 601
        arrow = build_truncation(m, ModelParams(0.3)).factorization(OperatorKind.MAGNETIC).even
        dense = np.vstack([arrow.head, _tail_vectors(arrow)])
        picks = [0, m // 2, m]
        assert np.array_equal(arrow.tail_rows(np.eye(m + 1)[:, picks]), dense[:, picks])
        coords = np.random.default_rng(m).normal(size=(m + 1, 3))
        ref = oracle._real_apply(dense.T, np.vstack([coords[:1], arrow.tail.to_modes(coords[1:])]))
        assert np.max(np.abs(arrow.to_modes(coords) - ref)) < 1e-13
        coords[1:] = 0.0
        assert np.array_equal(arrow.to_modes(coords), np.multiply.outer(arrow.head, coords[0]))

    def test_root_not_found_rejected(self, monkeypatch):
        # at lam = 0.3 no root is done in its first evaluation
        monkeypatch.setattr(oracle, "_SECULAR_STEPS", 1)
        sys = build_truncation(40, ModelParams(0.3))
        with pytest.raises(ConsistencyError, match="interlacing"):
            sys.factorization(OperatorKind.MAGNETIC)

    @pytest.mark.parametrize("m", [40, 601])
    @pytest.mark.parametrize("lam", SECULAR_COUNTS)
    def test_evaluations_per_root(self, lam, m, monkeypatch):
        # a worse start or step costs only time, so the counts are held here
        mean, worst = SECULAR_COUNTS[lam]
        rows = []
        passes = oracle._rest_sums

        def counted(work, z2):
            rows.append(len(work))
            return passes(work, z2)

        monkeypatch.setattr(oracle, "_rest_sums", counted)
        build_truncation(m, ModelParams(lam)).factorization(OperatorKind.MAGNETIC)
        assert sum(rows) / (m + 1) <= mean
        monkeypatch.setattr(oracle, "_SECULAR_STEPS", worst)
        build_truncation(m, ModelParams(lam)).factorization(OperatorKind.MAGNETIC)


def _tail_vectors(arrow):
    """An arrowhead's tail-mode components, dense ``(n - 1, n)``, the tail's modes as rows."""
    return arrow.tail_rows(np.eye(len(arrow.energies)))[1:]


def _assert_eigenpairs(d, e, energies, v, scale=None, rtol=1e-14):
    """Orthonormal columns ``v``, eigenvectors of the Jacobi matrix ``(d, e)`` of ``energies``.

    Their residuals are held within ``rtol`` of ``scale``, or of each ``max(1, |E|)``.
    """
    # on the oracle's BLAS: numpy's would spin against it
    assert np.max(np.abs(oracle._real_apply(v.T, v) - np.eye(v.shape[1]))) < 1e-13
    tv = d[:, None] * v
    tv[1:] += e[:, None] * v[:-1]
    tv[:-1] += e[:, None] * v[1:]
    bound = np.maximum(1.0, np.abs(energies)) if scale is None else scale
    assert np.all(np.max(np.abs(tv - v * energies), axis=0) < rtol * bound)


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
        amps = solve.to_modes(_site_vectors(sys, range(-w_half, w_half + 1)))
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
            _site_vectors(sys, (0,)),
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

    def test_quarter_checked_before_the_horizon(self, th12):
        # sites (11, 0) fail both checks at M = 40: both entry points raise
        # the quarter's error, before any grid is built
        sys = build_truncation(40, ModelParams(0.3))
        with pytest.raises(DomainError):
            ness_estimate(sys, th12, 11, 0, 100.0)
        with pytest.raises(DomainError):
            evolve_with_state(sys, initial_two_point(sys, th12), 11, 0, [100.0])

    @pytest.mark.parametrize(
        "m, lam, nu", [(200, 0.0, 0), (231, 0.3, 1), (260, -1.3, 2), (300, 30.0, 0), (251, 0.3, 2)]
    )
    def test_is_the_mean_of_the_evolution_on_its_grid(self, m, lam, nu, th12):
        # the two entry points differ only in how their phase tables are
        # rounded: measured 5.6e-17 at most, near, contact and far pairs
        sys = build_truncation(m, ModelParams(lam, nu))
        state = initial_two_point(sys, th12)
        times = np.linspace(0.8 * 100.0, 100.0, int(round(0.2 * 100.0)) + 1)
        for x, y in ((0, 0), (0, 1), (nu + 2, nu), (-nu - 2, -nu), (40, -7), (-45, 45)):
            mean = np.mean(evolve_with_state(sys, state, x, y, times).values)
            assert abs(ness_estimate(sys, th12, x, y, 100.0) - mean) < 1e-15

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
