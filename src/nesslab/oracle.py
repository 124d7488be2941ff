"""Brute-force finite-lattice verifier for the closed-form steady state.

Everything here is deliberately independent of the quadrature modules: the
chain is truncated to a window ``[-M, M]`` with open ends, the Hamiltonians
are read off the shared stencil as Jacobi (tridiagonal) matrices and
diagonalized exactly by LAPACK's tridiagonal eigensolver, the decoupled
initial state is assembled by per-block functional calculus, and
correlations are evolved exactly through the full eigendecomposition.
Large-time averages of these finite evolutions are the yardstick the
analytic formulas are tested against.  ``scipy.linalg`` is imported by the
functions that solve, so importing the package loads no scipy.

Evolution convention: ``omega_xy(t) = (exp(ith) e_x, S exp(ith) e_y)`` with
``h`` the field Hamiltonian and ``S`` the initial two-point matrix.  The
open ends reflect ballistically with unit group velocity, so every routine
enforces a time horizon keeping the light cone safely inside the window.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConsistencyError,
    DomainError,
    ResourceLimit,
    TimeHorizonExceeded,
)
from .model import ModelParams, OperatorKind, ThermalConfig, operator_stencil, planck_density

# half-width caps: below 10 the guard window is empty, above 5000 the n x n
# eigenvector sets every evolution needs stop being a sane oracle
_MIN_HALF_WIDTH = 10
_MAX_HALF_WIDTH = 5000
_DEFAULT_MEMORY_CAP = 2 << 30

# an eigenvalue this far beyond the band edge marks the bound state
_BAND_EDGE_TOL = 1e-9

_REFLECTION_MARGIN = 0.8

# glibc keeps freed heap memory resident below a threshold that rises with
# the size of the blocks a process has freed, so how much scratch of earlier
# windows is still held depends on what ran before; trimming returns it
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _real_apply(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    # real matrix times complex block without upcasting the matrix; the
    # real/imag views are strided, which would knock numpy off the BLAS path
    re = mat @ np.ascontiguousarray(z.real)
    im = mat @ np.ascontiguousarray(z.imag)
    return re + 1j * im


@dataclass(eq=False)
class TruncatedSystem:
    """Window ``[-M, M]`` of the chain; immutable after construction.

    Each stencil kind is held as the ``(diag, offdiag)`` pair of its Jacobi
    matrix, of lengths ``n_sites`` and ``n_sites - 1``, and factored on first
    use.  The latest initial-state matrix is cached with its temperature pair.
    """

    M: int
    params: ModelParams
    hamiltonians: dict[OperatorKind, tuple[np.ndarray, np.ndarray]]
    _factorizations: dict[OperatorKind, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    _state_cache: dict[tuple[float, float], np.ndarray] = field(default_factory=dict)

    @property
    def n_sites(self) -> int:
        return 2 * self.M + 1

    @property
    def sites(self) -> range:
        return range(-self.M, self.M + 1)

    def index(self, x: int) -> int:
        if abs(x) > self.M:
            raise DomainError(f"site {x} outside window [-{self.M}, {self.M}]")
        return x + self.M

    def factorization(self, kind: OperatorKind) -> tuple[np.ndarray, np.ndarray]:
        if kind not in self._factorizations:
            from scipy.linalg import eigh_tridiagonal

            # the full eigensolve is the oracle's memory peak (n x n vectors
            # and workspace); hand freed heap back before it
            if _malloc_trim is not None:
                _malloc_trim(0)
            self._factorizations[kind] = eigh_tridiagonal(*self.hamiltonians[kind])
        return self._factorizations[kind]

    def bound_data(self) -> tuple[float, np.ndarray] | None:
        """Out-of-band eigenpair of the field Hamiltonian, if resolved.

        Only eigenvalues outside ``[-1 - tol, 1 + tol]`` are computed, by
        bisection and inverse iteration on each side of the band; the full
        factorization is left to the evolutions that need it.  A shallow
        bound state (tiny field, decay length beyond M) may not separate
        from the band on the truncation; then None is returned and the
        evolution split treats everything as band.
        """
        from scipy.linalg import eigh_tridiagonal

        diag, off = self.hamiltonians[OperatorKind.MAGNETIC]
        # Gershgorin: every eigenvalue lies within this of the origin
        reach = float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off))) + 1.0
        edge = 1.0 + _BAND_EDGE_TOL
        (w_lo, v_lo), (w_hi, v_hi) = (
            eigh_tridiagonal(diag, off, select="v", select_range=bounds)
            for bounds in ((-reach, -edge), (edge, reach))
        )
        evals = np.concatenate([w_lo, w_hi])
        if evals.size == 0:
            return None
        if evals.size > 1:
            raise ConsistencyError(
                f"{evals.size} eigenvalues outside the band; the rank-one "
                "field admits at most one"
            )
        return float(evals[0]), np.hstack([v_lo, v_hi])[:, 0].copy()


def build_truncation(
    M: int,
    params: ModelParams,
    max_bytes: int = _DEFAULT_MEMORY_CAP,
) -> TruncatedSystem:
    """Read the three Jacobi matrices of the window off the stencil."""
    M = int(M)
    if not _MIN_HALF_WIDTH <= M <= _MAX_HALF_WIDTH:
        raise ValueError(
            f"half-width {M} outside [{_MIN_HALF_WIDTH}, {_MAX_HALF_WIDTH}]"
        )
    n = 2 * M + 1
    # up to 3 eigenvector sets + 1 initial state, all float64
    estimate = 4 * n * n * 8
    if estimate > max_bytes:
        raise ResourceLimit(
            f"window of {n} sites needs about {estimate / 2**30:.1f} GiB "
            f"of dense storage, above the {max_bytes / 2**30:.1f} GiB cap"
        )
    sites = range(-M, M + 1)
    hams = {
        kind: (
            np.array([operator_stencil(kind, params, x, x) for x in sites]),
            np.array([operator_stencil(kind, params, x, x + 1) for x in sites[:-1]]),
        )
        for kind in OperatorKind
    }
    return TruncatedSystem(M=M, params=params, hamiltonians=hams)


def initial_two_point(sys: TruncatedSystem, th: ThermalConfig) -> np.ndarray:
    """Two-point matrix of the decoupled initial state on the window.

    Planck functional calculus of the left and right blocks of the
    decoupled Hamiltonian at their own temperatures, identity over two on
    the sample block.  The blocks are diagonalized separately: the two
    reservoir blocks are isospectral, and a joint factorization would be
    free to mix their degenerate eigenvectors, which the per-block form
    rules out by construction.  Both blocks are the same Jacobi matrix
    (zero diagonal, hopping 1/2), so one eigensolve serves both
    temperatures.
    """
    key = (th.beta_l, th.beta_r)
    cached = sys._state_cache.get(key)
    if cached is not None:
        return cached
    from scipy.linalg import eigh_tridiagonal

    nu = sys.params.nu
    n = sys.n_sites
    n_res = sys.M - nu  # sites on each side beyond the sample
    if n_res <= 0:
        raise DomainError(f"sample half-width {nu} leaves no reservoir in window")
    diag, off = sys.hamiltonians[OperatorKind.DECOUPLED]
    left = (diag[:n_res], off[: n_res - 1])
    right = (diag[n - n_res :], off[n - n_res :])
    if not all(np.array_equal(a, b) for a, b in zip(left, right)):
        raise ConsistencyError("reservoir blocks of the decoupled window differ")
    w, u = eigh_tridiagonal(*left)
    state = np.zeros((n, n))
    state[:n_res, :n_res] = (u * planck_density(th.beta_l, w)) @ u.T
    mid = slice(n_res, n_res + 2 * nu + 1)
    state[mid, mid] = 0.5 * np.eye(2 * nu + 1)
    state[n - n_res :, n - n_res :] = (u * planck_density(th.beta_r, w)) @ u.T
    # the memory budget of build_truncation holds one state
    sys._state_cache.clear()
    sys._state_cache[key] = state
    return state


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Sampled evolution of one correlation matrix element.

    ``components`` optionally splits each sample into band-band, band-bound,
    bound-band, and bound-bound parts; the bound-bound part is constant in
    time because its two evolution phases cancel exactly.
    """

    times: np.ndarray
    values: np.ndarray
    components: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.times.size < 1 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be nonempty and strictly increasing")
        if np.max(np.abs(self.values)) > 1.0 + 1e-9:
            raise ConsistencyError("correlation sample above 1 in magnitude")
        if self.components is not None:
            pp = self.components["pp"]
            if np.max(np.abs(pp - pp[0])) > 1e-12:
                raise ConsistencyError("bound-bound component drifts in time")


def _check_horizon(sys: TruncatedSystem, x: int, y: int, t_max: float) -> None:
    horizon = _REFLECTION_MARGIN * (
        sys.M - max(abs(x), abs(y), sys.params.nu + 2)
    )
    if t_max > horizon:
        raise TimeHorizonExceeded(
            f"time {t_max} beyond the reflection horizon {horizon} of the "
            f"{sys.n_sites}-site window"
        )


def evolve_with_state(
    sys: TruncatedSystem,
    state: np.ndarray,
    x: int,
    y: int,
    times,
    split: bool = True,
) -> EvolutionTrace:
    """Evolve ``(e_x, S(t) e_y)`` for a caller-supplied initial matrix."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    # checked up front: the products below cost O(n^2 nt)
    if (
        times.ndim != 1
        or times.size < 1
        or not np.all(np.isfinite(times))
        or times[0] < 0.0
        or np.any(np.diff(times) <= 0.0)
    ):
        raise ValueError("times must be nonempty, finite, nonnegative and strictly increasing")
    if max(abs(x), abs(y)) > sys.M / 4:
        raise DomainError(f"sites ({x}, {y}) beyond a quarter of the window")
    _check_horizon(sys, x, y, float(times[-1]))

    evals, evecs = sys.factorization(OperatorKind.MAGNETIC)
    ix, iy = sys.index(x), sys.index(y)
    phases = np.exp(1j * np.outer(evals, times))  # (n, nt)
    frame_x = _real_apply(evecs, phases * evecs[ix, :][:, None])
    frame_y = _real_apply(evecs, phases * evecs[iy, :][:, None])

    bound = sys.bound_data() if split else None
    if bound is None:
        s_frame_y = _real_apply(state, frame_y)
        values = np.einsum("it,it->t", frame_x.conj(), s_frame_y)
        components = None
        if split:
            nt = times.size
            zero = np.zeros(nt, dtype=complex)
            components = {"aa": values.copy(), "ap": zero, "pa": zero.copy(), "pp": zero.copy()}
    else:
        energy, vec = bound
        phase_b = np.exp(1j * energy * times)
        pp_x = vec[:, None] * (vec[ix] * phase_b)[None, :]
        pp_y = vec[:, None] * (vec[iy] * phase_b)[None, :]
        ac_x = frame_x - pp_x
        ac_y = frame_y - pp_y
        s_ac_y = _real_apply(state, ac_y)
        s_pp_y = (state @ vec)[:, None] * (vec[iy] * phase_b)[None, :]
        components = {
            "aa": np.einsum("it,it->t", ac_x.conj(), s_ac_y),
            "ap": np.einsum("it,it->t", ac_x.conj(), s_pp_y),
            "pa": np.einsum("it,it->t", pp_x.conj(), s_ac_y),
            "pp": np.einsum("it,it->t", pp_x.conj(), s_pp_y),
        }
        values = components["aa"] + components["ap"] + components["pa"] + components["pp"]
    return EvolutionTrace(times=times, values=values, components=components)


def evolve_correlation(
    sys: TruncatedSystem,
    th: ThermalConfig,
    x: int,
    y: int,
    times,
    split: bool = True,
) -> EvolutionTrace:
    """Exact finite-window evolution of the decoupled initial correlation."""
    return evolve_with_state(sys, initial_two_point(sys, th), x, y, times, split)


def ness_estimate(
    sys: TruncatedSystem,
    th: ThermalConfig,
    x: int,
    y: int,
    t_star: float,
) -> complex:
    """Late-time estimate of the steady-state correlation at ``(x, y)``.

    Mean of the evolved correlation over ``[0.8 t_star, t_star]`` on a
    roughly unit-spaced grid; the averaging window damps the residual
    band-bound oscillation without a full time average.
    """
    t_star = float(t_star)
    if not (np.isfinite(t_star) and t_star >= 100.0):
        raise ValueError(f"late-time estimate needs a finite t_star >= 100, got {t_star}")
    # before the grid: its size grows with t_star
    _check_horizon(sys, x, y, t_star)
    n = int(round(0.2 * t_star)) + 1
    times = np.linspace(0.8 * t_star, t_star, n)
    trace = evolve_correlation(sys, th, x, y, times, split=False)
    return complex(np.mean(trace.values))


def oracle_flux(sys: TruncatedSystem, th: ThermalConfig, t_star: float) -> tuple[float, float]:
    """Steady fluxes out of the left and right reservoirs, by brute force.

    Each is half the imaginary part of the late-time correlation across the
    corresponding contact bond pair; energy conservation in the steady state
    makes them opposite.
    """
    nu = sys.params.nu
    j_left = 0.5 * ness_estimate(sys, th, -(nu + 2), -nu, t_star).imag
    j_right = 0.5 * ness_estimate(sys, th, nu + 2, nu, t_star).imag
    return float(j_left), float(j_right)


def numeric_wave_action(
    sys: TruncatedSystem,
    x: int,
    t: float,
    k_grid,
) -> np.ndarray:
    """Finite-time scattering approximation to the wave-operator action.

    Removes the bound component from the basis vector at ``x``, evolves
    forward under the field Hamiltonian and backward under the free one,
    and Fourier-transforms the result over the window.  Both evolutions
    spread with unit speed, so the horizon here is twice as strict.
    """
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if not np.all(np.abs(k_grid) <= np.pi):
        raise DomainError("momenta outside [-pi, pi]")
    horizon = 0.5 * _REFLECTION_MARGIN * (sys.M - max(abs(x), sys.params.nu + 2))
    if t > horizon:
        raise TimeHorizonExceeded(
            f"time {t} beyond the two-way horizon {horizon} of the window"
        )
    n = sys.n_sites
    psi = np.zeros(n)
    psi[sys.index(x)] = 1.0
    bound = sys.bound_data()
    if bound is not None:
        _, vec = bound
        psi = psi - vec * vec[sys.index(x)]
    evals_m, evecs_m = sys.factorization(OperatorKind.MAGNETIC)
    evals_0, evecs_0 = sys.factorization(OperatorKind.XY)
    phi = _real_apply(evecs_m, np.exp(1j * t * evals_m) * (evecs_m.T @ psi))
    chi = _real_apply(evecs_0, np.exp(-1j * t * evals_0) * _real_apply(evecs_0.T, phi))
    kernel = np.exp(1j * np.outer(k_grid, np.arange(-sys.M, sys.M + 1)))
    return kernel @ chi
