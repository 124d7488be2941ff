"""Brute-force finite-lattice verifier for the closed-form steady state.

Everything here is deliberately independent of the quadrature modules: the
chain is truncated to a window ``[-M, M]`` with open ends, the Hamiltonians
are read off the shared stencil as Jacobi (tridiagonal) matrices, each
diagonal from one elementwise stencil call on the window's sites ``(x, x)``
and each off-diagonal from one on its bonds ``(x, x + 1)``, and
diagonalized exactly through LAPACK's tridiagonal eigensolver, the decoupled
initial state is held as one reservoir's eigenpairs with their Planck
weights at the two temperatures, and correlations are evolved exactly from
that factored state alone.  Each parity block's first coordinate is
evolved and projected onto the reservoir modes once per time grid, and the
sites within ``nu + 2`` of the centre follow from it by the Jacobi
matrix's three-term recurrence, with the bound state carried exactly;
farther sites are evolved directly.  A correlation is a weighted overlap
of two sites' parts (``SiteParts``): no dense state is formed.  The
late-time estimates keep the first-coordinate frames on the window for
the next call on the same grid.  Large-time averages of these finite
evolutions are the yardstick the analytic formulas are tested against.
``scipy.linalg`` is imported by the functions that solve and multiply,
so importing the package loads no scipy: the products run on the BLAS
that the eigensolves load (``_real_apply``), and numpy's is left idle.

Every Jacobi matrix here (the window's three, and each reservoir block) is
symmetric under reflection about its centre.  In the parity coordinates
``e_c`` and ``(e_{c+k} +- e_{c-k}) / sqrt 2`` it is block diagonal, an even
and an odd Jacobi matrix of about half the size, and it is solved as those
two blocks: an exact orthogonal change of basis, not an approximation.  A
block that is symmetric again (the field-free odd block, a reservoir's odd
block of odd size) is split again, down to blocks that are not.  A
symmetric block of even size with a zero diagonal (a bipartite chain: the
free chain, a reservoir) solves its even half alone, and its odd half is
the exact sublattice image of it.  The even block of the field and free
Hamiltonians is the centre coordinate joined to the odd block, the free
chain: in that chain's modes it is an arrowhead, whose energies are the
roots of its secular equation and whose eigenvectors follow from them on
the chain's stored solve (``Arrowhead``), with no second LAPACK call: they
are not held, but formed inside the products that read them.
``_fold`` and ``_unfold`` map site arrays to the two blocks and back; a
solve's ``to_modes`` and ``from_modes`` map them to its eigenbasis and
back through every level.
A window solves each distinct block once: the odd blocks of the field and
free Hamiltonians are one free chain, and at ``nu = 0`` that chain is also
the decoupled odd block and the reservoir.

Evolution convention: ``omega_xy(t) = (exp(ith) e_x, S exp(ith) e_y)`` with
``h`` the field Hamiltonian and ``S`` the initial two-point matrix.  The
open ends reflect ballistically with unit group velocity, so every routine
enforces a time horizon keeping the light cone safely inside the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import ConsistencyError, DomainError, TimeHorizonExceeded
from .model import ModelParams, OperatorKind, ThermalConfig, operator_stencil, planck_density

# half-width caps: below 10 the guard window is empty, and the cap of 5000
# bounds memory.  At M = 5000 and lam = 0.4, after the verify sequence on
# the longest late-time grid, a window's arrays, each buffer counted once,
# come to 0.27 GiB at nu = 0 and 0.40 and 0.42 GiB at nu = 1 and 100: the
# store's phases and first frames, 0.18-0.24 GiB, and 0.09-0.18 GiB of
# eigenvectors, the free chain's and the reservoir's (the field's even
# block holds O(n) numbers); the processes peaked at 0.58, 0.76 and 0.84
# GiB RSS.  Beyond it the window stops being a sane oracle
_MIN_HALF_WIDTH = 10
_MAX_HALF_WIDTH = 5000

# an eigenvalue this far beyond the band edge marks the bound state
_BAND_EDGE_TOL = 1e-9

_REFLECTION_MARGIN = 0.8

# late-time estimates average over [0.8 t_star, t_star], t_star at least this
_MIN_T_STAR = 100.0

_SQRT_HALF = np.sqrt(0.5)

# a Jacobi matrix as (diag, off)
_Pair = tuple[np.ndarray, np.ndarray]


def _real_apply(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``mat @ z`` along the first axis of ``z``, for a real ``mat`` ``(r, n)``.

    One ``dgemm`` of ``scipy.linalg.blas`` forms it: the BLAS that the
    eigensolves load, so the oracle runs on one BLAS and its thread pool
    alone.  A complex ``z`` is multiplied as real columns, its real and
    imaginary parts interleaved, so the matrix is not upcast and one real
    product does it.  The product is formed transposed, ``z^T mat^T``, each
    operand passed in a layout ``dgemm`` reads in place (a C-ordered array
    as its transpose, an F-ordered one as stored and transposed by the
    flag), and its F-ordered result transposes to the C-ordered ``mat @ z``
    whose columns view as complex.  Empty operands are left to numpy.
    """
    from scipy.linalg.blas import dgemm

    if mat.size == 0 or np.size(z) == 0:
        return np.tensordot(mat, z, axes=1)
    if np.iscomplexobj(z):
        z = np.ascontiguousarray(z, dtype=complex)
        cols = z.reshape(len(z), -1).view(float)
    else:
        z = np.asarray(z, dtype=float)
        cols = z.reshape(len(z), -1)
    a, b = (x.T if x.flags.c_contiguous else x for x in (cols, mat))
    product = dgemm(1.0, a, b, trans_a=a is cols, trans_b=b is mat).T
    if np.iscomplexobj(z):
        product = product.view(complex)
    return product.reshape(len(mat), *z.shape[1:])


def _is_symmetric(diag: np.ndarray, off: np.ndarray) -> bool:
    return np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])


def _parity_split(diag: np.ndarray, off: np.ndarray) -> tuple[_Pair, _Pair]:
    """Even and odd ``(diag, off)`` blocks of a reflection-symmetric Jacobi matrix.

    An odd size has a centre site: the even block holds it and the
    ``(n - 1) / 2`` symmetric pairs, so its first hopping gains ``sqrt 2``,
    and the odd block holds the antisymmetric pairs.  An even size has a
    centre bond: both blocks hold ``n / 2`` pairs, and the bond shifts the
    first diagonal entry by plus or minus its hopping.
    """
    if not _is_symmetric(diag, off):
        raise ConsistencyError("Jacobi matrix not symmetric about its centre")
    h = diag.size // 2
    if diag.size % 2:
        even_off = off[h:].copy()
        even_off[:1] *= np.sqrt(2.0)
        return (diag[h:], even_off), (diag[h + 1 :], off[h + 1 :])
    shift = np.zeros(h)
    shift[0] = off[h - 1]
    return (diag[h:] + shift, off[h:]), (diag[h:] - shift, off[h:])


def _fold(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parity coordinates of a site array (sites on axis 0)."""
    h = len(v) // 2
    upper, lower = v[len(v) - h :], v[:h][::-1]
    even = (upper + lower) * _SQRT_HALF
    if len(v) % 2:
        even = np.concatenate([v[h : h + 1], even])
    return even, (upper - lower) * _SQRT_HALF


def _unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Site array of the given parity coordinates; the inverse of ``_fold``."""
    c = len(even) - len(odd)  # 1 with a centre site
    upper, lower = (even[c:] + odd) * _SQRT_HALF, (even[c:] - odd) * _SQRT_HALF
    return np.concatenate([lower[::-1], even[:c], upper])


class Eigenpairs(NamedTuple):
    """A Jacobi block solved whole: its eigenvalues, and eigenvectors as columns."""

    energies: np.ndarray
    vectors: np.ndarray

    def to_modes(self, z: np.ndarray) -> np.ndarray:
        """Mode amplitudes of the block coordinates ``z`` (on axis 0)."""
        return _real_apply(self.vectors.T, z)

    def from_modes(self, a: np.ndarray) -> np.ndarray:
        """Block coordinates of the mode amplitudes ``a``; the inverse of ``to_modes``."""
        return _real_apply(self.vectors, a)


class Split(NamedTuple):
    """A reflection-symmetric Jacobi block solved as its even and odd blocks.

    Its modes are those of the even block, then those of the odd block.
    """

    even: Eigenpairs | Split | Arrowhead
    odd: Eigenpairs | Split

    @property
    def energies(self) -> np.ndarray:
        return np.concatenate([self.even.energies, self.odd.energies])

    def to_modes(self, z: np.ndarray) -> np.ndarray:
        return np.concatenate([block.to_modes(c) for block, c in zip(self, _fold(z))])

    def from_modes(self, a: np.ndarray) -> np.ndarray:
        parts = np.split(a, [len(a) - len(a) // 2])  # the even block's modes first
        return _unfold(*(block.from_modes(p) for block, p in zip(self, parts)))


class Arrowhead(NamedTuple):
    """A Jacobi block ``[[a, b e_1^T], [b e_1, T]]`` solved on the stored solve of its tail ``T``.

    In the tail's eigenbasis the block is the arrowhead ``[[a, z^T], [z,
    diag(w)]]``, ``z = b u`` with ``u`` the tail modes' first components,
    and its eigenvector of energy ``E`` is ``[1; z / (E - w)]`` normalised.
    ``head`` holds their first components.  Their tail-mode components are
    not held: root ``j`` keeps its level ``pole`` ``p``, its shift ``tau =
    E - w_p`` and its level's component ``own``, and the products that read
    the components form them from these, ``z`` and ``head`` (``_entries``),
    a chunk of about ``_CHUNK_FLOATS`` at a time, as ``_arrowhead`` formed
    them to normalise them: the same floats.
    """

    energies: np.ndarray
    head: np.ndarray
    tail: Eigenpairs | Split
    z: np.ndarray
    pole: np.ndarray
    tau: np.ndarray
    own: np.ndarray

    def _entries(self, w: np.ndarray, lo: int, hi: int, roots) -> np.ndarray:
        """Tail-mode components ``lo:hi`` of the vectors ``roots``, one row a tail mode.

        ``w`` is the tail's energies.  A component is ``z_i / (tau - (w_i -
        w_p))`` times ``head``, the level's own set apart.
        """
        pole = self.pole[roots]
        block = np.subtract(w[lo:hi, None], w[pole])
        k = np.flatnonzero((lo <= pole) & (pole < hi))
        _ratios(block, self.tau[roots], self.z[lo:hi, None], (pole[k] - lo, k))
        block *= self.head[roots]
        block[pole[k] - lo, k] = self.own[roots][k]
        return block

    def to_modes(self, z: np.ndarray) -> np.ndarray:
        modes = np.multiply.outer(self.head, z[0])
        if not z[1:].any():
            return modes
        tail, w = self.tail.to_modes(z[1:]), self.tail.energies
        step = _CHUNK_FLOATS // len(w)
        for lo in range(0, len(modes), step):
            roots = slice(lo, lo + step)
            modes[roots] += _real_apply(self._entries(w, 0, len(w), roots).T, tail)
        return modes

    def tail_rows(self, a: np.ndarray) -> np.ndarray:
        """The block's first coordinate, then its tail-mode amplitudes, of the mode amplitudes ``a``.

        The tail-mode rows are formed a chunk at a time, each times ``a`` in
        one product.  When at most half the rows of ``a`` are nonzero, only
        those roots are formed and read.
        """
        roots = np.flatnonzero(np.any(a.reshape(len(a), -1), axis=1))
        if 2 * roots.size > len(a):
            roots = slice(None)
        else:
            a = a[roots]
        w = self.tail.energies
        rows = np.empty((len(w) + 1, *a.shape[1:]), np.result_type(a, float))
        rows[0] = _real_apply(self.head[None, roots], a)[0]
        step = _CHUNK_FLOATS // max(1, len(a))
        for lo in range(0, len(w), step):
            hi = min(lo + step, len(w))
            rows[1 + lo : 1 + hi] = _real_apply(self._entries(w, lo, hi, roots), a)
        return rows

    def from_modes(self, a: np.ndarray) -> np.ndarray:
        rows = self.tail_rows(a)
        rows[1:] = self.tail.from_modes(rows[1:])
        return rows


def _ratios(shifts: np.ndarray, tau: np.ndarray, z: np.ndarray, own) -> None:
    """``z / (tau - shifts)`` in place, ``tau`` and ``z`` broadcast against ``shifts``, the entries ``own`` indexes 0."""
    np.subtract(tau, shifts, out=shifts)
    shifts[own] = np.inf
    np.divide(z, shifts, out=shifts)


# floats a chunked pass holds in one buffer, about 1 MB: an arrowhead's
# roots solved at a time, its vector components formed at a time, and the
# reservoir rows of one overlap step
_CHUNK_FLOATS = 2**17
# evaluations a root may take after its midpoint pass before
# ConsistencyError: none has taken more than eight, over fields from 0 to
# the largest float and half-widths from 10 to the cap
_SECULAR_STEPS = 100
_EPS = np.finfo(float).eps
_INSIDE_MAX = np.nextafter(np.finfo(float).max, 0.0)


def _arrowhead(diag: np.ndarray, off: np.ndarray, tail: Eigenpairs | Split) -> Arrowhead:
    """Eigenpairs of the Jacobi block ``(diag, off)``, whose tail ``(diag[1:], off[1:])`` is solved.

    The energies solve the secular equation ``f(E) = E - a - sum z_i^2 / (E
    - w_i) = 0``.  The tail's levels strictly interlace them (every ``z_i``
    is nonzero, the tail being unreduced): root ``j`` lies between the
    sorted levels ``j - 1`` and ``j``, the outer roots within Weyl's bound
    ``|z|`` of the diagonal's range, and ``f`` rises through each interval.
    One pass at each interval's midpoint sums the terms of ``f`` and ``f'``
    of every level but the interval's ends.  The sign of ``f`` there picks
    the end ``p`` that the root is nearer, and the root is taken in the
    shift ``tau = E - w_p``, with the differences ``w_i - w_p`` formed
    directly, so a root within rounding of its level keeps its relative
    accuracy, and so does its vector.  The same pass starts it: at the
    root of ``f``'s model with both ends' terms exact and the rest held at
    their midpoint value and slope (an outer root has one end).
    ``_secular_roots`` solves for it from there.  Each vector is ``[1; z /
    (E - w)]`` normalised, scaled first by ``|tau / z_p|`` where that is
    below 1, so that no component overflows.  The roots are solved a chunk
    at a time, in two buffers of about ``_CHUNK_FLOATS``: the chunk's
    shifts, which then hold its vectors' tail-mode components for their
    norms.  Only ``O(n)`` numbers are kept: each root's level, shift, first
    component and own component, from which ``Arrowhead`` forms the rest
    again where a product reads them.
    """
    tip, w = diag[0], tail.energies
    n = len(w)
    z = off[0] * tail.to_modes(np.eye(n, 1))[:, 0]
    z2 = z * z
    order = np.argsort(w)
    levels = w[order]
    reach = np.sqrt(np.sum(z2))
    # the outer roots' bounds in tau, widened past their rounding
    ends = np.array([min(tip - levels[0], 0.0) - reach, max(tip - levels[-1], 0.0) + reach])
    with np.errstate(over="ignore"):
        ends = np.clip((1 + 8 * _EPS) * ends, -np.finfo(float).max, np.finfo(float).max)
    energies, head, taus, owns = (np.empty(n + 1) for _ in range(4))
    poles = np.empty(n + 1, dtype=np.intp)
    step = _CHUNK_FLOATS // n
    buffers = np.empty((2, step, n))
    for lo in range(0, n + 1, step):
        j = np.arange(lo, min(lo + step, n + 1))
        # the chunk's shifts w_i - w_p, then its vectors' tail-mode components
        shifts, work, k = buffers[0, : len(j)], buffers[1, : len(j)], np.arange(len(j))
        inner = (0 < j) & (j < n)
        # the interval's lower and upper levels; an outer root's one level is both
        below, above = order[np.maximum(j - 1, 0)], order[np.minimum(j, n - 1)]
        width = np.where(inner, w[above] - w[below], 1.0)
        mid = w[below] + np.where(inner, width, np.where(j == 0, ends[0], ends[1])) / 2
        np.subtract(mid[:, None], w, out=work)
        work[k, below] = work[k, above] = np.inf  # the ends' terms apart
        rest, slope = _rest_sums(work, z2)
        end_terms = z2[below] / (mid - w[below]) + z2[above] / (mid - w[above])
        # True: the root lies above its level p, in (0, high); else in (low, 0)
        rising = (j == n) | (inner & (mid - tip - end_terms - rest >= 0))
        pole, other = np.where(rising, below, above), np.where(rising, above, below)
        low = np.where(rising, 0.0, np.where(inner, -width, ends[0]))
        high = np.where(rising, np.where(inner, width, ends[1]), 0.0)
        np.subtract(w, w[pole, None], out=shifts)
        gap = w[pole] - tip
        # the other end's weight and shift; an outer root has none
        far = np.where(inner, z2[other], 0.0)
        delta = np.where(inner, shifts[k, other], np.inf)
        start = _model_root(mid - w[pole], rising, rest, slope, gap, z2[pole], far, delta)
        start = np.where((low < start) & (start < high), start, low / 2 + high / 2)
        tau = _secular_roots(start, low, high, gap, pole, other, far, delta, shifts, z2, work)
        energies[j], poles[j], taus[j] = w[pole] + tau, pole, tau
        # the vector [1; z / (E - w)] times scale = min(1, |tau / z_p|), its
        # level's component sign(z_p tau) min(1, |z_p / tau|) set apart
        with np.errstate(over="ignore"):
            scale = np.minimum(1.0, np.abs(tau / z[pole]))
            own = np.sign(z[pole]) * np.sign(tau) * np.minimum(1.0, np.abs(z[pole] / tau))
        _ratios(shifts, tau[:, None], z, (k, pole))
        norm = np.sqrt(scale * scale * (1.0 + np.einsum("ij,ij->i", shifts, shifts)) + own * own)
        head[j], owns[j] = scale / norm, own / norm
    return Arrowhead(energies, head, tail, z, poles, taus, owns)


def _rest_sums(work: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sum_i z_i^2 / x_i`` and ``sum_i z_i^2 / x_i^2`` of each row ``x`` of ``work``, which it overwrites.

    One pass of the secular solve: a row's infinite entries are terms left out.
    """
    with np.errstate(divide="ignore"):
        np.reciprocal(work, out=work)
    value = _real_apply(work, z2)
    np.square(work, out=work)
    return value, _real_apply(work, z2)


def _model_root(t, rising, rest, slope, gap, zp2, far, delta) -> np.ndarray:
    """The root of ``f``'s model at ``t``, its two ends' terms exact and the rest linear, one a row.

    The model of ``f(w_p + s)`` is ``c s + d - z_p^2 / s - far / (s -
    delta)``, with ``c = 1 + slope`` and ``d = gap - rest - slope t``: the
    terms of every other level held at their value ``-rest`` and slope at
    ``t``.  Its root on the side of the level that ``rising`` names (above
    it where True) starts from the root of the quadratic with the far
    end's term held linear at ``t`` too, taken without cancellation, and
    takes two Newton steps on ``s`` times the model, written as in
    ``_secular_roots``.  Measured, they reach the model's root to rounding
    wherever it lies within 1% of ``t``, and to 2e-6 from a midpoint.
    """
    c, d = 1.0 + slope, gap - rest - slope * t
    side = np.where(rising, 1.0, -1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lean = far / (t - delta)
        bend = lean / (t - delta)
        # s (c' s + d') = z_p^2, its root on the side named, without cancellation
        c1, d1 = c + bend, side * (d - lean - bend * t)
        root = np.hypot(d1 / 2, np.sqrt(c1 * zp2))
        s = side * np.where(d1 >= 0, zp2 / (root + d1 / 2), (root - d1 / 2) / c1)
        for _ in range(2):
            term = far / (s - delta)
            scale = np.maximum(1.0, np.abs(s))
            u = s / scale
            dh = c + term / (s - delta)
            s = (u * s * dh + zp2 / scale) / ((c * s + d - term) / scale + u * dh)
    return s


def _secular_roots(tau, low, high, gap, pole, other, far, delta, shifts, z2, buffer) -> np.ndarray:
    """The roots in ``(low, high)`` of ``phi(tau) = tau h(tau) - z_p^2``, one a row, from ``tau``.

    ``h(tau) = tau + gap - sum_{i != p} z_i^2 / (tau - shifts_i)``, with
    ``gap = w_p - a`` and ``shifts_i = w_i - w_p``, so ``phi = tau f(w_p +
    tau)``.  It has no pole at the level ``tau = 0``, where it is
    ``-z_p^2``.  Each interval, ``(0, high)`` or ``(low, 0)``, holds one
    root, with ``phi < 0`` between it and the level.  ``other`` is the
    interval's far end ``q`` (``p`` for an outer root), ``far`` its weight
    ``z_q^2`` (0 for an outer root) and ``delta`` its shift.  Each
    evaluation sums the terms of every other level, and the next ``tau`` is
    the root of the model with the two ends' terms exact and the rest
    linear in ``tau`` (``_model_root``).  Every evaluation narrows the
    interval to the root's side of ``tau``, as the sign of ``phi`` shows,
    and a step that leaves it is replaced by bisection.  A root is done,
    after one last step that stays inside, once ``|phi|`` is within the
    rounding of its terms and of ``tau``, or once its interval is four
    ulps wide; one not done in ``_SECULAR_STEPS`` evaluations raises
    ``ConsistencyError``.  ``phi`` and ``phi'`` are divided by ``max(1,
    |tau|)``, so that they overflow at no finite field.  ``buffer`` holds
    at least as many rows as ``tau``.
    """
    rising = high > 0
    zp2, reach = z2[pole], np.sqrt(np.sum(z2))
    active = np.arange(len(tau))
    for _ in range(_SECULAR_STEPS):
        if not active.size:
            return tau
        a, t = active, tau[active]
        work, k = buffer[: a.size], np.arange(a.size)
        np.subtract(t[:, None], shifts if a.size == len(tau) else shifts[a], out=work)  # E - w_i
        work[k, pole[a]] = work[k, other[a]] = np.inf  # the ends' terms apart
        rest, slope = _rest_sums(work, z2)
        # a term that overflows fails its test: the step is not inside, and
        # the root is not done
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            term = far[a] / (t - delta[a])
            h = t + gap[a] - rest - term
            dh = 1.0 + slope + term / (t - delta[a])  # h'
            scale = np.maximum(1.0, np.abs(t))
            u = t / scale
            phi = u * h - zp2[a] / scale
            dphi = h / scale + u * dh
            # the rounding of phi's terms, the sum of |z_i^2 / (t - shifts_i)|
            # bounded by Cauchy-Schwarz, and of t itself
            terms = np.maximum(np.maximum(np.abs(t), np.abs(gap[a])), reach * np.sqrt(dh - 1.0))
            noise = 24 * _EPS * np.abs(u) * terms + 8 * _EPS * zp2[a] / scale
            done = np.abs(phi) <= noise + 2 * np.spacing(np.abs(t)) * np.abs(dphi)
            beyond = (phi < 0) == rising[a]  # the root lies above t
            low[a] = np.where(beyond, t, low[a])
            high[a] = np.where(beyond, high[a], t)
            # the largest float's spacing is infinite; its half's, doubled, is not
            ulps = 2 * np.spacing(np.maximum(np.abs(low[a]), np.abs(high[a])) / 2)
        model = _model_root(t, rising[a], rest, slope, gap[a], zp2[a], far[a], delta[a])
        # an outer root at the largest fields rounds to its bound, the largest
        # float: a step there is taken an ulp inside it
        model = np.clip(model, -_INSIDE_MAX, _INSIDE_MAX)
        inside = (low[a] < model) & (model < high[a])
        tau[a] = np.where(inside, model, np.where(done, t, low[a] / 2 + high[a] / 2))
        done |= high[a] - low[a] <= 4 * ulps
        active = a[~done]
    if active.size:
        raise ConsistencyError("arrowhead root not found in its interlacing interval")
    return tau


def _sublattice_image(solve: Eigenpairs) -> Eigenpairs:
    """Eigenpairs of ``-S T S``, ``S = diag((-1)^i)``, from those ``(w, V)`` of ``T``.

    ``-S T S`` negates the diagonal of ``T`` and keeps its hoppings, and
    ``(-S T S) S V = S V diag(-w)``, so they are ``(-w, S V)``, reversed to
    ascend: an exact map, no eigensolve.
    """
    vectors = solve.vectors[:, ::-1].copy()
    vectors[1::2] *= -1.0
    return Eigenpairs(-solve.energies[::-1], vectors)


def _split_eigh(diag: np.ndarray, off: np.ndarray) -> Eigenpairs | Split:
    """Eigenpairs of a Jacobi matrix, split by its reflection while the block is symmetric.

    When the odd block is the even block with its diagonal negated (a
    symmetric block of even size with a zero diagonal, a bipartite chain),
    only the even block is solved and the odd one is its sublattice image.
    """
    if diag.size > 1 and _is_symmetric(diag, off):
        (d, e), (d_odd, e_odd) = _parity_split(diag, off)
        even = _split_eigh(d, e)
        if isinstance(even, Eigenpairs) and np.array_equal(d_odd, -d) and np.array_equal(e_odd, e):
            return Split(even, _sublattice_image(even))
        return Split(even, _split_eigh(d_odd, e_odd))
    from scipy.linalg import eigh_tridiagonal

    return Eigenpairs(*eigh_tridiagonal(diag, off))


def _propagate(solve: Eigenpairs | Split, psi: np.ndarray, times) -> np.ndarray:
    """``exp(i h t) psi`` for site vectors ``psi`` (n, k), ``solve`` the factorization of ``h``.

    Returns shape ``(n, k, nt)``.
    """
    phases = np.exp(1j * np.outer(solve.energies, np.asarray(times, dtype=float)))
    return solve.from_modes(solve.to_modes(psi)[:, :, None] * phases[:, None, :])


def _site_vectors(sys: TruncatedSystem, sites) -> np.ndarray:
    psi = np.zeros((sys.n_sites, len(sites)))
    for j, x in enumerate(sites):
        psi[sys.index(x), j] = 1.0
    return psi


@dataclass(eq=False)
class TruncatedSystem:
    """Window ``[-M, M]`` of the chain; immutable after construction.

    Each stencil kind is held as the ``(diag, offdiag)`` pair of its Jacobi
    matrix, of lengths ``n_sites`` and ``n_sites - 1``.  The solves of its
    even and odd parity blocks, and the reservoir's of ``initial_two_point``,
    are kept in one store keyed by block content, so a block that several
    matrices share is solved once and every reader holds the same arrays;
    an even block solved as an ``Arrowhead`` holds the stored solve of its
    odd block.
    The latest initial state is cached with its temperature pair, and the
    latest late-time grid in one ``_GridStore``: its ``t_star``, the phases
    ``exp(i w t)`` of each parity block on it, and the first-coordinate
    frames of the blocks that step.  The frames do not depend on the
    temperatures: a state at any temperatures holds the same reservoir
    solve, and what stepping a parity block reads of the window alone, its
    ``_Stepping``, is kept whatever the grid and the temperatures.
    """

    M: int
    params: ModelParams
    hamiltonians: dict[OperatorKind, tuple[np.ndarray, np.ndarray]]
    _solves: dict[tuple[bytes, bytes], Eigenpairs | Split | Arrowhead] = field(default_factory=dict)
    _state_cache: dict[tuple[float, float], DecoupledState] = field(default_factory=dict)
    _grid_store: _GridStore | None = None
    _steppings: dict[int, _Stepping] = field(default_factory=dict)

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

    def _solve(
        self, diag: np.ndarray, off: np.ndarray, tail: Eigenpairs | Split | None = None
    ) -> Eigenpairs | Split | Arrowhead:
        """The stored solve of one Jacobi block, solved on first use; an ``Arrowhead`` on ``tail`` if given."""
        key = (diag.tobytes(), off.tobytes())
        if key not in self._solves:
            self._solves[key] = _split_eigh(diag, off) if tail is None else _arrowhead(diag, off, tail)
        return self._solves[key]

    def factorization(self, kind: OperatorKind) -> Split:
        """The solves of the even and odd blocks of ``kind``, as a ``Split``.

        The even block has ``M + 1`` parity coordinates (the centre site
        first), the odd block ``M``, and the even block's tail, past the
        centre, is the odd block.  When the centre's hop and every hop of
        the odd block are nonzero (the field and free Hamiltonians), each
        odd mode reaches the centre, and the even block is solved as an
        ``Arrowhead`` on the odd block's solve.
        """
        even, odd = _parity_split(*self.hamiltonians[kind])
        tail = self._solve(*odd)
        arrow = even[1][0] != 0.0 and np.all(odd[1] != 0.0)
        return Split(self._solve(*even, tail if arrow else None), tail)

    def bound_data(self) -> tuple[float, np.ndarray] | None:
        """Out-of-band eigenpair of the field Hamiltonian, if resolved.

        The field sits on the centre site, which has no odd component, so
        the odd block is the field-free chain and the bound state is even.
        Only eigenvalues of the even block outside ``[-1 - tol, 1 + tol]``
        are computed, by bisection and inverse iteration on each side of
        the band; the factorization is left to the evolutions that need it.
        A shallow bound state (tiny field, decay length beyond M) may not
        separate from the band on the truncation; then None is returned and
        ``numeric_wave_action`` treats everything as band.
        """
        from scipy.linalg import eigh_tridiagonal

        (diag, off), _ = _parity_split(*self.hamiltonians[OperatorKind.MAGNETIC])
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
        return float(evals[0]), _unfold(np.hstack([v_lo, v_hi])[:, 0], np.zeros(self.M))


def build_truncation(M: int, params: ModelParams) -> TruncatedSystem:
    """Read the three Jacobi matrices of the window off the stencil."""
    M = int(M)
    if not _MIN_HALF_WIDTH <= M <= _MAX_HALF_WIDTH:
        raise ValueError(
            f"half-width {M} outside [{_MIN_HALF_WIDTH}, {_MAX_HALF_WIDTH}]"
        )
    x = np.arange(-M, M + 1)
    hams = {
        kind: (operator_stencil(kind, params, x, x), operator_stencil(kind, params, x[:-1], x[1:]))
        for kind in OperatorKind
    }
    return TruncatedSystem(M=M, params=params, hamiltonians=hams)


class SiteParts(NamedTuple):
    """The evolved frame ``exp(iht) e_x`` of one site, as the initial state reads it.

    ``even`` and ``odd`` are ``(M - nu, nt)``: the frame's even and odd
    parity coordinates beyond the sample, ordered outward like the right
    reservoir's sites, projected onto the reservoir modes (even modes
    first).  ``sample`` is ``(2 nu + 1, nt)``: its parity coordinates
    inside the sample.  The centre site has no odd part; its ``odd`` is a
    read-only broadcast zero that holds no memory.
    """

    even: np.ndarray
    odd: np.ndarray
    sample: np.ndarray


class _GridStore(NamedTuple):
    """Evolutions on one time grid ending at ``t_star``.

    ``phases`` holds each parity block's ``exp(i w t)`` on the grid (0
    even, 1 odd), ``frames`` the band frame of the first coordinate of each
    block that steps (``_stepped``), from which the parts of every site
    within ``nu + 2`` of the centre follow.
    """

    t_star: float
    phases: dict[int, np.ndarray]
    frames: dict[int, np.ndarray]


class _Grid(NamedTuple):
    """The late-time grid: ``count`` times from ``start`` to ``stop``, spaced as ``np.linspace`` spaces them."""

    start: float
    stop: float
    count: int

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def _phases(energies: np.ndarray, times: np.ndarray | _Grid) -> np.ndarray:
    """``exp(i w t)``, the ``energies`` as rows and the ``times`` as columns.

    Caller-given times need not be uniform, and each entry is one complex
    ``np.exp``.  On a ``_Grid``, arithmetic by construction, the table is
    ``exp(i w t_s) exp(i w b dt q)`` at time ``t_{qb + s}``, ``b`` about the
    square root of the count: two short tables of ``exp`` and one product
    pass.  Both forms round the argument ``w t`` itself, to about ``eps |w|
    t``.
    """
    if not isinstance(times, _Grid):
        return np.exp(1j * np.outer(energies, times))
    b = math.isqrt(times.count - 1) + 1
    dt = (times.stop - times.start) / (times.count - 1)
    near = np.exp(1j * np.outer(energies, times.times[:b]))
    far = np.exp(1j * np.outer(energies, b * dt * np.arange(-(-times.count // b))))
    table = np.empty((len(energies), times.count), complex)
    for q, lo in enumerate(range(0, times.count, b)):
        cols = min(b, times.count - lo)
        np.multiply(far[:, q, None], near[:, :cols], out=table[:, lo : lo + cols])
    return table


class DecoupledState(NamedTuple):
    """Two-point matrix of the decoupled initial state, held factored.

    Both reservoirs are the same Jacobi matrix, so they share ``modes``, its
    solve from the window's store; ``left`` and ``right`` are the Planck
    weights of its energies at the two temperatures.  The sample is
    identity over two.  ``state @ f`` applies the whole matrix to the site
    rows of ``f``.
    """

    n_sites: int
    modes: Eigenpairs | Split
    left: np.ndarray
    right: np.ndarray

    def __matmul__(self, f: np.ndarray) -> np.ndarray:
        if len(f) != self.n_sites:
            raise ValueError(f"{len(f)} site rows for a state of {self.n_sites} sites")
        n_res = len(self.left)
        out = 0.5 * f
        for rows, weights in ((slice(0, n_res), self.left), (slice(len(f) - n_res, None), self.right)):
            out[rows] = self.modes.from_modes((self.modes.to_modes(f[rows]).T * weights).T)
        return out

    def pair_overlaps(self, fx: SiteParts, fy: SiteParts) -> tuple[np.ndarray, np.ndarray]:
        """``(f_x, S f_y)`` per time, and the same with the temperatures exchanged.

        The right reservoir's amplitudes of a frame are ``(even + odd) /
        sqrt 2``, the left's ``(even - odd) / sqrt 2`` up to the sign of
        each odd mode, which cancels in ``conj(a) b``.  The sample rows
        count over two.  The weighted products are summed over the
        reservoir modes a chunk of rows at a time, in two buffers of about
        ``_CHUNK_FLOATS``.
        """
        sample = np.einsum("it,it->t", fx.sample.conj(), fy.sample)
        # F-ordered, so that a chunk of its columns is one too
        weights = np.column_stack([self.left, self.right]).T
        n, nt = fx.even.shape
        step = min(n, max(1, _CHUNK_FLOATS // (2 * nt)))
        # one reservoir's products of a chunk of modes at a time, formed in place in two buffers
        x, y = np.empty((step, nt), complex), np.empty((step, nt), complex)
        overlaps = np.zeros((2, 2, nt), complex)
        for lo in range(0, n, step):
            rows = slice(lo, min(lo + step, n))
            xs, ys = x[: rows.stop - lo], y[: rows.stop - lo]
            for combine, sums in zip((np.add, np.subtract), overlaps):  # the right reservoir, then the left
                np.conjugate(combine(fx.even[rows], fx.odd[rows], out=xs), out=xs)
                xs *= combine(fy.even[rows], fy.odd[rows], out=ys)
                sums += _real_apply(weights[:, rows], xs)
        (right_l, right_r), (left_l, left_r) = overlaps
        return 0.5 * (sample + left_l + right_r), 0.5 * (sample + left_r + right_l)


def initial_two_point(sys: TruncatedSystem, th: ThermalConfig) -> DecoupledState:
    """Two-point matrix of the decoupled initial state on the window.

    Planck functional calculus of the left and right blocks of the
    decoupled Hamiltonian at their own temperatures, identity over two on
    the sample block.  The blocks are diagonalized separately: the two
    reservoir blocks are isospectral, and a joint factorization would be
    free to mix their degenerate eigenvectors, which the per-block form
    rules out by construction.  Both blocks are the same Jacobi matrix
    (zero diagonal, hopping 1/2), so one solve from the window's store
    serves both, and the state keeps it with its Planck weights.  At
    ``nu = 0`` it is the odd block of every window Hamiltonian, and a state
    at other temperatures solves nothing.
    """
    key = (th.beta_l, th.beta_r)
    cached = sys._state_cache.get(key)
    if cached is not None:
        return cached
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
    if not _is_symmetric(*left):
        raise ConsistencyError("reservoir block not symmetric about its centre")
    modes = sys._solve(*left)
    energies = modes.energies
    state = DecoupledState(
        n, modes, planck_density(th.beta_l, energies), planck_density(th.beta_r, energies)
    )
    # one state held at a time: a new temperature pair replaces it
    sys._state_cache.clear()
    sys._state_cache[key] = state
    return state


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Sampled evolution of one correlation matrix element."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.times.size < 1 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be nonempty and strictly increasing")
        if np.max(np.abs(self.values)) > 1.0 + 1e-9:
            raise ConsistencyError("correlation sample above 1 in magnitude")


def _check_quarter(sys: TruncatedSystem, x: int, y: int) -> None:
    if max(abs(x), abs(y)) > sys.M / 4:
        raise DomainError(f"sites ({x}, {y}) beyond a quarter of the window")


def _check_horizon(sys: TruncatedSystem, x: int, y: int, t_max: float) -> None:
    horizon = _REFLECTION_MARGIN * (
        sys.M - max(abs(x), abs(y), sys.params.nu + 2)
    )
    if t_max > horizon:
        raise TimeHorizonExceeded(
            f"time {t_max} beyond the reflection horizon {horizon} of the "
            f"{sys.n_sites}-site window"
        )


def _checked_times(sys: TruncatedSystem, x: int, y: int, times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    # checked up front: the evolutions cost O(n^2 nt)
    if (
        times.ndim != 1
        or times.size < 1
        or not np.all(np.isfinite(times))
        or times[0] < 0.0
        or np.any(np.diff(times) <= 0.0)
    ):
        raise ValueError("times must be nonempty, finite, nonnegative and strictly increasing")
    _check_quarter(sys, x, y)
    _check_horizon(sys, x, y, float(times[-1]))
    return times


def _evolve(
    block: Eigenpairs | Split | Arrowhead,
    parity: int,
    state: DecoupledState,
    coords: np.ndarray,
    times: np.ndarray,
    phases: dict[int, np.ndarray],
    drop: np.ndarray | None = None,
) -> np.ndarray:
    """Evolve coordinates ``coords`` (m, 1) through ``block``, parity block ``parity``.

    Returns the frame's rows as the state reads them, ``(k + M - nu, nt)``:
    its ``k`` coordinates inside the sample, then its outer coordinates
    projected onto the reservoir modes, in place; no frame is unfolded to
    the window's sites.  At ``nu = 0`` the odd block is the reservoir's own
    solve and has no sample coordinates, so the rows are its evolved mode
    amplitudes: phases, with no product and no projection.  The even block
    is then an ``Arrowhead`` on that solve, and its ``tail_rows`` give the
    rows: its first components in one product, and its tail-mode
    components formed a chunk at a time inside the products that read
    them.  ``phases`` holds each block's ``exp(i w t)`` on ``times`` (0
    even, 1 odd), and a block's is added on first use (``_phases``: from
    two short tables on the late-time ``_Grid``).  The modes ``drop``
    indexes are left out.
    """
    if parity not in phases:
        phases[parity] = _phases(block.energies, times)
    amplitudes = block.to_modes(coords) * phases[parity]
    if drop is not None:
        amplitudes[drop] = 0.0
    if block is state.modes:
        return amplitudes
    if isinstance(block, Arrowhead) and block.tail is state.modes:
        return block.tail_rows(amplitudes)
    frame = block.from_modes(amplitudes)
    k = len(frame) - len(state.left)
    frame[k:] = state.modes.to_modes(frame[k:])
    return frame


def _parts(sys: TruncatedSystem, even: np.ndarray, odd: np.ndarray | None) -> SiteParts:
    """A site's parts from its even and odd frames (``_evolve`` rows); no odd one at the centre."""
    k = sys.params.nu + 1  # even coordinates in the sample; the odd block has one fewer
    if odd is None:
        odd = np.broadcast_to(0j, (len(even) - 1, even.shape[1]))
    return SiteParts(even[k:], odd[k - 1 :], np.concatenate([even[:k], odd[: k - 1]]))


def _site_parts(
    sys: TruncatedSystem,
    state: DecoupledState,
    x: int,
    times: np.ndarray,
    phases: dict[int, np.ndarray],
) -> SiteParts:
    """Evolve ``e_x`` directly through the parity blocks it touches and project it once.

    The centre site has no odd part, so its odd block is neither evolved
    nor projected.
    """
    blocks = zip(sys.factorization(OperatorKind.MAGNETIC), _fold(_site_vectors(sys, (x,))))
    frames = [
        _evolve(block, parity, state, coords, times, phases) if coords.any() else None
        for parity, (block, coords) in enumerate(blocks)
    ]
    return _parts(sys, *frames)


class _Stepping(NamedTuple):
    """What stepping one parity block of the field Hamiltonian reads of the window alone.

    ``pair`` is the block's ``(diag, off)`` and ``k`` its sample
    coordinates.  ``outside`` indexes its out-of-band modes, ``vectors``
    holds them in block coordinates ``(m, n_b)`` and ``carry`` in
    ``_evolve`` rows.  ``energies`` and ``contact`` are the reservoir's
    energies ``w`` and the modes ``u`` of its first site.
    """

    pair: _Pair
    k: int
    outside: np.ndarray
    vectors: np.ndarray
    carry: np.ndarray
    energies: np.ndarray
    contact: np.ndarray


def _stepping(sys: TruncatedSystem, state: DecoupledState, solve: Split, parity: int) -> _Stepping:
    """The window's ``_Stepping`` of block ``parity``, formed on first use and kept.

    ``solve`` is the field Hamiltonian's ``factorization``; ``state`` holds
    the window's reservoir solve, whatever its temperatures.
    """
    held = sys._steppings.get(parity)
    if held is not None:
        return held
    pair = _parity_split(*sys.hamiltonians[OperatorKind.MAGNETIC])[parity]
    block, modes = solve[parity], state.modes
    m, w = len(pair[0]), modes.energies
    k = m - len(w)
    outside = np.flatnonzero(np.abs(block.energies) > 1.0 + _BAND_EDGE_TOL)
    vectors = np.zeros((m, outside.size))
    vectors[outside, np.arange(outside.size)] = 1.0
    vectors = block.from_modes(vectors)
    carry = vectors.copy()
    carry[k:] = modes.to_modes(vectors[k:])
    contact = modes.to_modes(np.eye(len(w), 1))[:, 0]
    held = sys._steppings[parity] = _Stepping(pair, k, outside, vectors, carry, w, contact)
    return held


def _recur(
    stepping: _Stepping, first: np.ndarray, steps: int, carried: np.ndarray, scale: float
) -> np.ndarray:
    """``scale`` times the frame of block coordinate ``steps``, stepped from coordinate 0's.

    ``first`` is the band frame of coordinate 0 in ``_evolve`` rows, ``k``
    sample rows ``S`` and then reservoir mode amplitudes ``R``.  A step is
    ``F_{j+1} = (h F_j - d_j F_j - e_{j-1} F_{j-1}) / e_j``, with ``(d, e)``
    the block's ``pair``, and ``h`` acts on the rows as

        (h F)_S = T_k S + delta (u . R) on row k - 1,
        (h F)_R = w R + delta S_{k-1} u,

    ``T_k`` being the block's rows on the sample, ``delta = e_{k-1}`` the
    contact hop, ``w`` the reservoir energies and ``u`` the modes of the
    reservoir's first site, all read off ``stepping``.  On ``R`` that is
    diagonal plus rank one, so ``R_j = p_j(w) R_0 + G_j H``: ``p_j``
    follows the recurrence itself, and each step appends to the time rows
    ``H`` the contact row ``S_{j, k-1}`` and the coefficients of the
    carried modes.  These, the orthonormal columns of ``carry`` (the
    block's out-of-band modes in the same rows), are projected out of every
    step, since the recurrence grows their share by ``e^{asinh|lam|}`` a
    step, rounding included; ``carry @ carried`` is added back at the end.
    A step reads ``R_0`` once, and the frame is formed in three passes.
    """
    (d, e), k, carry = stepping.pair, stepping.k, stepping.carry
    w, u = stepping.energies, stepping.contact
    sample, amplitudes = first[:k], first[k:]
    block = np.diag(d[:k]) + np.diag(e[: k - 1], 1) + np.diag(e[: k - 1], -1)
    rows = np.empty((0, first.shape[1]), complex)
    # each frame as (S, p, G); coordinate -1 is zero
    prev, cur = (0.0, 0.0, np.zeros((len(w), 0))), (sample, np.ones_like(w), np.zeros((len(w), 0)))
    for j in range(steps):
        (s, p, g), (s_back, p_back, g_back) = cur, prev
        back = e[j - 1] if j else 0.0
        p_next = ((w - d[j]) * p - back * p_back) / e[j]
        reads = _real_apply(np.column_stack([u * p, carry[k:] * p_next[:, None]]).T, amplitudes)
        contact = reads[0] + (u @ g) @ rows  # u . R_j
        s_next = block @ s - d[j] * s - back * s_back
        s_next[k - 1] += e[k - 1] * contact
        s_next /= e[j]
        g_next = np.zeros((len(w), len(rows) + 1))
        g_next[:, : g.shape[1]] = (w - d[j])[:, None] * g
        g_next[:, : g_back.shape[1]] -= back * g_back
        g_next[:, -1] = e[k - 1] * u
        g_next /= e[j]
        rows = np.vstack([rows, s[k - 1]])
        if carry.size:
            shares = carry[:k].T @ s_next + reads[1:] + (carry[k:].T @ g_next) @ rows
            s_next = s_next - carry[:k] @ shares
            g_next = np.hstack([g_next, -carry[k:]])
            rows = np.vstack([rows, shares])
        prev, cur = cur, (s_next, p_next, g_next)
    s, p, g = cur
    frame = np.empty_like(first)
    frame[:k] = scale * (s + carry[:k] @ carried)
    np.multiply((scale * p)[:, None], amplitudes, out=frame[k:])
    frame[k:] += _real_apply(scale * np.hstack([g, carry[k:]]), np.vstack([rows, carried]))
    return frame


def _stepped(
    sys: TruncatedSystem,
    state: DecoupledState,
    solve: Split,
    store: _GridStore,
    times: np.ndarray,
    parity: int,
    j: int,
    scale: float = 1.0,
) -> np.ndarray:
    """``scale`` times the frame of coordinate ``j`` of block ``parity``, in ``_evolve`` rows.

    ``solve`` is the field Hamiltonian's ``factorization``.

    The block's out-of-band eigenpairs ``(E_b, v)`` (the bound state, in
    the even block) are carried exactly: the store holds the first
    coordinate's frame evolved without them, ``_recur`` steps that band
    frame, and ``v_j exp(i E_b t) B`` is added back, ``B`` being ``v`` in
    the frame's rows.  Beyond the sample the block is the reservoir chain,
    which the recurrence reads through the reservoir's solve.
    """
    stepping = _stepping(sys, state, solve, parity)
    outside = stepping.outside
    if parity not in store.frames:
        first = np.eye(len(stepping.pair[0]), 1)
        block = solve[parity]
        store.frames[parity] = _evolve(block, parity, state, first, times, store.phases, outside)
    carried = stepping.vectors[j][:, None] * store.phases[parity][outside]
    return _recur(stepping, store.frames[parity], j, carried, scale)


def _stepped_parts(
    sys: TruncatedSystem,
    state: DecoupledState,
    solve: Split,
    store: _GridStore,
    times: np.ndarray,
    x: int,
) -> SiteParts:
    """The parts of a site within ``nu + 2`` of the centre, stepped from the store's frames.

    ``e_{+-j}`` folds to ``1 / sqrt 2`` times even coordinate ``j`` and
    ``+-1 / sqrt 2`` times odd coordinate ``j - 1``.  At ``nu = 0`` the odd
    part stays the reservoir's phases (``_evolve``).
    """
    j = abs(x)
    if j == 0:
        return _parts(sys, _stepped(sys, state, solve, store, times, 0, 0), None)
    if sys.params.nu == 0:
        coords = _fold(_site_vectors(sys, (x,)))[1]
        odd = _evolve(solve.odd, 1, state, coords, times, store.phases)
    else:
        sign = _SQRT_HALF if x > 0 else -_SQRT_HALF
        odd = _stepped(sys, state, solve, store, times, 1, j - 1, sign)
    return _parts(sys, _stepped(sys, state, solve, store, times, 0, j, _SQRT_HALF), odd)


def _pair_parts(
    sys: TruncatedSystem, state: DecoupledState, store: _GridStore, times, x: int, y: int
) -> tuple[SiteParts, SiteParts]:
    """The parts of ``x`` and ``y`` on ``store``'s grid ``times``.

    A site within ``nu + 2`` of the centre (the sample and its contact
    pairs) is stepped from the first-coordinate frames the store holds,
    which are evolved into it on first use; a farther site is evolved
    directly.  A site's parts do not depend on the sites read before.
    """
    near = sys.params.nu + 2
    solve = sys.factorization(OperatorKind.MAGNETIC)
    parts = {
        site: _stepped_parts(sys, state, solve, store, times, site)
        if abs(site) <= near
        else _site_parts(sys, state, site, times, store.phases)
        for site in {x, y}
    }
    return parts[x], parts[y]


def evolve_with_state(
    sys: TruncatedSystem, state: DecoupledState, x: int, y: int, times
) -> EvolutionTrace:
    """Evolve ``(e_x, S(t) e_y)`` from the factored initial state ``state``."""
    times = _checked_times(sys, x, y, times)
    store = _GridStore(float(times[-1]), {}, {})
    values, _ = state.pair_overlaps(*_pair_parts(sys, state, store, times, x, y))
    return EvolutionTrace(times, values)


def _late_means(
    sys: TruncatedSystem, th: ThermalConfig, x: int, y: int, t_star: float
) -> tuple[complex, complex]:
    """Means of ``pair_overlaps`` of ``(x, y)`` over ``[0.8 t_star, t_star]``.

    Both temperature orderings, on a roughly unit-spaced grid.  The
    window's store is kept while ``t_star`` is unchanged, so the frames and
    phases of the previous calls on this grid are reused; another ``t_star``
    replaces it.
    """
    t_star = float(t_star)
    if not (np.isfinite(t_star) and t_star >= _MIN_T_STAR):
        raise ValueError(f"late-time estimate needs a finite t_star >= 100, got {t_star}")
    # before the grid: its size grows with t_star
    _check_horizon(sys, x, y, t_star)
    _check_quarter(sys, x, y)
    grid = _Grid(0.8 * t_star, t_star, int(round(0.2 * t_star)) + 1)
    state = initial_two_point(sys, th)
    if sys._grid_store is None or sys._grid_store.t_star != t_star:
        sys._grid_store = _GridStore(t_star, {}, {})
    overlaps = state.pair_overlaps(*_pair_parts(sys, state, sys._grid_store, grid, x, y))
    return tuple(complex(np.mean(EvolutionTrace(grid.times, v).values)) for v in overlaps)


def ness_estimate(
    sys: TruncatedSystem,
    th: ThermalConfig,
    x: int,
    y: int,
    t_star: float,
) -> complex:
    """Late-time estimate of the steady-state correlation at ``(x, y)``.

    The first of ``_late_means``: the mean of the evolved correlation over
    ``[0.8 t_star, t_star]`` on a roughly unit-spaced grid.  The mean keeps the bound-band cross terms,
    which oscillate at ``E_b - e`` with ``|e| <= 1`` and vanish only in the
    limit.  The window damps them only when their slowest beat period,
    ``2 pi / (|E_b| - 1)``, is well inside ``0.2 t_star``; a shallow bound
    state's is not: at ``lam = -0.12`` it is 876 against a window of 140
    at ``t_star = 700``, and at ``M = 1000`` and temperatures 1 and 2 the
    estimate of ``(0, 0)`` misses the steady state by 1.9e-4.
    """
    return _late_means(sys, th, x, y, t_star)[0]


def oracle_flux(sys: TruncatedSystem, th: ThermalConfig, t_star: float) -> tuple[float, float]:
    """Steady fluxes out of the left and right reservoirs, by brute force.

    Each is half the imaginary part of the late-time estimate of the
    correlation across the corresponding contact bond pair, ``(-(nu + 2),
    -nu)`` and ``(nu + 2, nu)``; energy conservation in the steady state
    makes them opposite.  The field Hamiltonian commutes with the window's
    reflection, so the left frames are the right ones reflected; the
    reflection swaps the reservoirs, so the left flux is the right one's
    mode overlaps with the two temperatures exchanged, and the contact
    sites are evolved and projected once: the fluxes halve the imaginary
    parts of the two means of one ``_late_means`` call.
    """
    nu = sys.params.nu
    j_right, j_left = (0.5 * mean.imag for mean in _late_means(sys, th, nu + 2, nu, t_star))
    return j_left, j_right


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
    psi = _site_vectors(sys, (x,))
    bound = sys.bound_data()
    if bound is not None:
        _, vec = bound
        psi[:, 0] -= vec * vec[sys.index(x)]
    phi = _propagate(sys.factorization(OperatorKind.MAGNETIC), psi, [t])[:, :, 0]
    chi = _propagate(sys.factorization(OperatorKind.XY), phi, [-t])[:, 0, 0]
    kernel = np.exp(1j * np.outer(k_grid, np.arange(-sys.M, sys.M + 1)))
    return kernel @ chi
