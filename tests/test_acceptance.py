"""End-to-end acceptance gate.

One test per advertised guarantee, each printing a PASS or FAIL line with
the measured figure next to its threshold before asserting.  The
transition criterion checks the constants that follow from the package's
flux normalization: the fitted slope of ``J'/lambda`` against the rate
``(2/pi) f0`` computed from raw Fermi factors, and the decomposition sum
against ``-(pi/2) J'/lambda``.  The published ``4/pi`` and ``-(pi/4)`` belong
to a flux twice as large; docs/decisions.md has the derivation.
"""

import math
import time

import numpy as np

from nesslab.cli import main
from nesslab.model import ModelParams, ThermalConfig, bound_state
from nesslab.ness import (
    correlation_block,
    s_element,
    ti_commutator_direct,
)
from nesslab.oracle import (
    OperatorKind,
    build_truncation,
    ness_estimate,
    numeric_wave_action,
    oracle_flux,
)
from nesslab.scattering import wave_action
from nesslab.transport import (
    divergence_fit,
    entropy_production,
    flux_derivative,
    flux_second_derivative,
    heat_flux,
    log_decomposition,
    remainder_bound,
    ti_commutator_element,
)

from bruteforce import central_difference, fermi_difference, flux_arcsin, flux_momentum


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_bound_state_spectra():
    t0 = time.perf_counter()
    worst_energy = 0.0
    worst_vec = 0.0
    counts_ok = True
    for lam in (0.25, -0.25, 0.75, -0.75, 2.0, -2.0):
        sysm = build_truncation(1000, ModelParams(lam))
        evals = sysm.factorization(OperatorKind.MAGNETIC).energies
        n_outside = int(np.sum(np.abs(evals) > 1.0 + 1e-9))
        counts_ok = counts_ok and n_outside == 1
        energy, vec = sysm.bound_data()
        expected = math.copysign(math.hypot(1.0, lam), lam)
        worst_energy = max(worst_energy, abs(energy - expected))
        if vec[sysm.index(0)] < 0.0:
            vec = -vec
        bs = bound_state(lam)
        sup = max(
            abs(vec[sysm.index(x)] - bs.amplitude(x)) for x in range(-20, 21)
        )
        worst_vec = max(worst_vec, sup)
    elapsed = time.perf_counter() - t0
    passed = (
        counts_ok and worst_energy < 1e-8 and worst_vec < 1e-6 and elapsed < 60.0
    )
    _report(
        "bound state spectra",
        passed,
        f"one level outside the band at all six fields, energy residual "
        f"{worst_energy:.2e} (< 1e-8), eigenvector sup {worst_vec:.2e} "
        f"(< 1e-6), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_steady_state_equivalence(
    sys_m1000_lam0, sys_m1000_lam02, th12
):
    t0 = time.perf_counter()
    systems = {
        0.0: sys_m1000_lam0,
        0.2: sys_m1000_lam02,
        1.0: build_truncation(1000, ModelParams(1.0)),
    }
    worst = 0.0
    for lam, sysm in systems.items():
        for x, y in ((0, 0), (0, 1), (-1, 2)):
            est = ness_estimate(sysm, th12, x, y, 700.0)
            exact = s_element(ModelParams(lam), th12, x, y)
            worst = max(worst, abs(est - exact))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-3 and elapsed < 300.0
    _report(
        "steady-state equivalence",
        passed,
        f"late-time lattice average vs closed form, worst of nine "
        f"{worst:.2e} (< 1e-3), {elapsed:.1f}s (< 300s)",
    )


def test_criterion_03_positivity(th12):
    worst_herm = 0.0
    lo_eig, hi_eig = 1.0, 0.0
    for lam in (0.0, 0.2, 1.0):
        block = correlation_block(ModelParams(lam), th12, -10, 10)
        worst_herm = max(
            worst_herm, float(np.max(np.abs(block.matrix - block.matrix.conj().T)))
        )
        w = np.linalg.eigvalsh(block.matrix)
        lo_eig = min(lo_eig, float(w.min()))
        hi_eig = max(hi_eig, float(w.max()))
    passed = worst_herm < 1e-12 and lo_eig >= -1e-9 and hi_eig <= 1.0 + 1e-9
    _report(
        "two-point positivity",
        passed,
        f"21-site blocks hermitian to {worst_herm:.1e} (< 1e-12), spectra in "
        f"[{lo_eig:.3f}, {hi_eig:.3f}] within [-1e-9, 1+1e-9]",
    )


def test_criterion_04_translation_invariance(th12):
    at_zero = ti_commutator_element(ModelParams(0.0), th12)
    plus = ti_commutator_element(ModelParams(0.2), th12)
    minus = ti_commutator_element(ModelParams(-0.2), th12)
    worst_check = max(
        abs(ti_commutator_element(ModelParams(lam), th12)
            - ti_commutator_direct(ModelParams(lam), th12))
        for lam in (0.2, -0.2)
    )
    passed = (
        abs(at_zero) < 1e-12
        and plus > 0.0
        and minus < 0.0
        and worst_check < 1e-10
    )
    _report(
        "translation invariance breaking",
        passed,
        f"defect {at_zero!r} at zero field (|.| < 1e-12), signs "
        f"({plus:+.2e}, {minus:+.2e}) follow the field, fast vs matrix "
        f"route {worst_check:.1e} (< 1e-10)",
    )


def test_criterion_05_first_law(sys_m1500_lam02, th12):
    params = ModelParams(0.2)
    j_left, j_right = oracle_flux(sys_m1500_lam02, th12, 1100.0)
    balance = abs(j_left + j_right)
    sigma = entropy_production(params, th12)
    identity = sigma == (th12.beta_r - th12.beta_l) * heat_flux(params, th12)
    passed = balance < 1e-6 and j_left > 0.0 and identity
    _report(
        "first law on the lattice",
        passed,
        f"flux balance {balance:.2e} (< 1e-6), hot-side flux "
        f"{j_left:+.4e} (> 0), entropy identity exact: {identity}",
    )


def test_criterion_06_sample_width_independence(th12):
    fluxes = {}
    for nu in (0, 1, 2):
        sysm = build_truncation(500, ModelParams(0.2, nu))
        fluxes[nu], _ = oracle_flux(sysm, th12, 300.0)
    worst = max(
        abs(fluxes[a] - fluxes[b]) for a in fluxes for b in fluxes if a < b
    )
    passed = worst < 1e-3
    _report(
        "sample width independence",
        passed,
        f"lattice fluxes at half-widths 0, 1, 2 pairwise within "
        f"{worst:.2e} (< 1e-3)",
    )


def test_criterion_07_derivative_routes(th12):
    params = ModelParams(0.5)
    fd_first = central_difference(
        lambda lam: heat_flux(ModelParams(lam), th12), 0.5, 1e-4
    )
    first = flux_derivative(params, th12)
    fd_second = central_difference(
        lambda lam: flux_derivative(ModelParams(lam), th12), 0.5, 1e-4
    )
    second = flux_second_derivative(params, th12)
    routes = max(
        abs(first - twin(1.0, 2.0, 0.5)[1]) for twin in (flux_arcsin, flux_momentum)
    )
    passed = (
        abs(first - fd_first) < 1e-6
        and abs(second - fd_second) < 1e-6
        and routes < 1e-10
    )
    _report(
        "flux derivatives",
        passed,
        f"first vs finite difference {abs(first - fd_first):.1e} (< 1e-6), "
        f"second vs finite difference {abs(second - fd_second):.1e} (< 1e-6), "
        f"first vs raw-quad arcsin and momentum forms {routes:.1e} (< 1e-10)",
    )


def test_criterion_08a_divergence_rate(th12):
    t0 = time.perf_counter()
    fit = divergence_fit(th12)
    elapsed = time.perf_counter() - t0
    rate = (2.0 / math.pi) * float(fermi_difference(1.0, 2.0, 1.0))
    rel = abs(fit.C_fit - rate) / rate
    passed = rel < 0.02 and elapsed < 120.0
    _report(
        "logarithmic divergence rate",
        passed,
        f"fitted slope {fit.C_fit:.10f} vs rate (2/pi) f0 {rate:.10f}, "
        f"relative error {rel:.2e} (< 0.02), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_08b_remainder_bounded(th12):
    fit = divergence_fit(th12)
    cap = remainder_bound(th12)
    worst = max(
        abs(log_decomposition(ModelParams(lam), th12).F2)
        for lam in fit.lambda_grid
    )
    passed = worst <= cap + 1e-12
    _report(
        "bounded remainder",
        passed,
        f"largest remainder {worst:.6f} over the sampled fields, "
        f"cap {cap:.6f}",
    )


def test_criterion_08c_quarter_turn_identity(th12):
    fit = divergence_fit(th12)
    worst = 0.0
    for lam in fit.lambda_grid:
        dec = log_decomposition(ModelParams(lam), th12)
        claimed = -(math.pi / 2.0) * flux_derivative(ModelParams(lam), th12) / lam
        worst = max(worst, abs(dec.F1 + dec.F2 - claimed))
    passed = worst < 1e-10
    _report(
        "sum rule",
        passed,
        f"decomposition sum vs -(pi/2) * J'/lambda, worst gap {worst:.3e} "
        f"(< 1e-10)",
    )


def test_criterion_09_wave_operator():
    t0 = time.perf_counter()
    sysm = build_truncation(2000, ModelParams(1.0))
    ks = np.linspace(0.3, math.pi - 0.3, 101)
    ks = np.concatenate([-ks[::-1], ks])
    worst = 0.0
    for x in (0, 1):
        out = numeric_wave_action(sysm, x, 500.0, ks)
        ref = np.array([wave_action(1.0, x, k) for k in ks])
        worst = max(worst, float(np.max(np.abs(out - ref))))
    elapsed = time.perf_counter() - t0
    passed = worst < 5e-2
    _report(
        "wave operator action",
        passed,
        f"finite-time scattering vs closed form away from the band edges, "
        f"sup {worst:.2e} (< 5e-2), {elapsed:.1f}s",
    )


def test_criterion_10_figure_data(tmp_path):
    def run(name, *args):
        target = tmp_path / f"{name}.csv"
        assert main([*args, "--output", str(target)]) == 0
        lines = target.read_text().splitlines()
        return [line.split(",") for line in lines[1:]]

    problems = []

    rows = run("correction", "correction")
    if len(rows) != 801:
        problems.append(f"correction rows {len(rows)}")
    if any(abs(float(rows[i][1]) - 25.0 / 26.0) >= 1e-15 for i in (200, 600)):
        problems.append("correction quarter-band peak off 25/26")
    if any(float(rows[i][1]) != 0.0 for i in (0, 400, 800)):
        problems.append("correction nonzero at band edges or center")

    rows = run("flux_scan", "flux-scan")
    js = [float(r[1]) for r in rows]
    if len(rows) != 401:
        problems.append(f"flux-scan rows {len(rows)}")
    if not all(j > 0.0 for j in js):
        problems.append("nonpositive flux in scan")
    if js.index(max(js)) != 200:
        problems.append("flux maximum away from zero field")
    evenness = max(abs(js[i] - js[400 - i]) for i in range(401))
    if evenness >= 1e-10:
        problems.append(f"flux evenness {evenness:.1e}")

    rows = run("dflux", "dflux")
    lam = {float(r[0]): r for r in rows}
    oddness = max(
        abs(float(lam[x][1]) + float(lam[-x][1])) for x in (0.01, 0.1, 0.5, 2.0)
    )
    if oddness >= 1e-10:
        problems.append(f"first derivative oddness {oddness:.1e}")
    if not (float(lam[0.0][1]) == 0.0 and lam[0.0][2] == ""):
        problems.append("zero-field row malformed")
    slopes = [abs(float(lam[x][1]) / x) for x in (0.01, 0.05, 0.2)]
    if not slopes[0] > slopes[1] > slopes[2]:
        problems.append("scaled slope fails to steepen toward zero field")
    curvatures = [float(lam[x][2]) for x in (0.01, 0.05, 0.1)]
    if not (curvatures[0] < curvatures[1] < curvatures[2] < 0.0):
        problems.append("curvature fails to blow down toward zero field")

    _report(
        "figure data files",
        not problems,
        "; ".join(problems) if problems else
        "suppression profile, flux scan, and derivative scan all carry the "
        "advertised shapes",
    )
