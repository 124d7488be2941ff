"""Regenerate the pinned references in ``perfbench/refs``.

    python3 perfbench/gen_references.py

Every reference is an mpmath evaluation of a defining integral, written
independently of the library's quadrature layers:

* ``window.json``: the steady-state matrix ``s(x, y)`` on the window
  ``[-8, 8]`` for a stratified pool of fields.  The band part is the overlap
  ``integral dk/2pi conj(W_x) theta W_y`` of the scattered plane waves, the
  bound part is the thermal weight (half-line sine transform of the bound
  eigenvector) times the closed-form amplitudes.  Quadrature panels are
  split geometrically at the width-``lam`` features next to ``k = 0`` and
  ``k = +-pi``.
* ``transport.json``: ``J``, ``J'``, ``J''`` and the log-split integral
  ``F1 + F2`` in the arcsin domain ``x = sin k`` at 30 digits, panels split
  geometrically at ``x ~ lam``, for the CLI's default sweep grid, a pool of
  small fields and the default ``divergence_fit`` grid.

Each value stores the tolerance the benchmark checks it at and its source.
Tolerances are the library's declared quadrature targets (``QuadratureSpec``
defaults ``abs_tol=1e-10``, ``rel_tol=1e-12``) on the returned value; a
matrix element gets two absolute shares, one for the band overlap and one
for the bound-state weight.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

BETA_L, BETA_R = 1.0, 2.0
ABS_TOL, REL_TOL = 1e-10, 1e-12
HALF_WIDTH = 8
WINDOW_DPS = 20
TRANSPORT_DPS = 30
POOL_SEED = 20160921

# (low, high) edges of the field-strength strata, by decade
WINDOW_DECADES = ((1e-5, 1e-4), (1e-4, 1e-3), (1e-3, 1e-2), (1e-2, 1e-1), (1e-1, 1.0), (1.0, 2.0))
WINDOW_PER_STRATUM = 3
SMALL_DECADES = tuple((10.0 ** (e - 1), 10.0**e) for e in range(-7, 0))
SMALL_PER_STRATUM = 8


def stratified_fields(decades, per_stratum, rng):
    """Signed fields log-uniform inside equal sub-bins of each decade, both signs."""
    pool = []
    for lo, hi in decades:
        for sign in (1.0, -1.0):
            edges = np.geomspace(lo, hi, per_stratum + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                mag = float(np.exp(rng.uniform(np.log(a), np.log(b))))
                pool.append({"lam": float(f"{sign * mag:.6g}"), "stratum": f"{lo:g}:{hi:g}:{'+' if sign > 0 else '-'}"})
    return pool


def fermi(beta, e):
    return 1 / (1 + mp.exp(beta * e))


def feature_points(lam, top):
    """Panel edges on ``[0, top]``, geometric from ``|lam|/4`` up to ``top/2``."""
    pts = [mp.mpf(0)]
    s = abs(mp.mpf(lam)) / 4
    while s < top / 2:
        pts.append(s)
        s *= 4
    pts.append(top / 2)
    return pts


def window_reference(lam: float) -> dict:
    """mpmath ``s(x, y)`` over the upper triangle of ``[-8, 8]`` at one field."""
    mp.mp.dps = WINDOW_DPS
    lam_m = mp.mpf(lam)
    half = feature_points(lam, mp.pi)
    pts = half + [mp.pi - p for p in reversed(half[:-1])]

    def wave(k, x):
        ak = abs(k)
        return mp.expj(k * x) + 1j * lam_m * mp.expj(ak * abs(x)) / (mp.sin(ak) - 1j * lam_m)

    alpha = mp.asinh(abs(lam_m))
    q = mp.sign(lam_m) * mp.exp(-alpha)
    norm_sq = mp.sqrt(1 + lam_m**2) / abs(lam_m)

    def sine_sum(k):
        return q * mp.sin(k) / (1 - 2 * q * mp.cos(k) + q * q)

    def reservoir(beta):
        return (2 / mp.pi) * mp.quad(lambda k: fermi(beta, mp.cos(k)) * sine_sum(k) ** 2, pts)

    weight = (reservoir(BETA_L) + reservoir(BETA_R) + mp.mpf(1) / 2) / norm_sq

    def amplitude(x):
        a = mp.exp(-alpha * abs(x)) / mp.sqrt(norm_sq)
        return -a if (lam < 0 and x % 2) else a

    re, im = [], []
    sites = range(-HALF_WIDTH, HALF_WIDTH + 1)
    for i, x in enumerate(sites):
        for y in sites[i:]:
            # k > 0 carries the left reservoir, k < 0 the right
            pos = mp.quad(lambda k: fermi(BETA_L, mp.cos(k)) * mp.conj(wave(k, x)) * wave(k, y), pts)
            neg = mp.quad(lambda k: fermi(BETA_R, mp.cos(k)) * mp.conj(wave(-k, x)) * wave(-k, y), pts)
            value = (pos + neg) / (2 * mp.pi) + weight * amplitude(x) * amplitude(y)
            re.append(float(value.real))
            im.append(float(value.imag))
    return {"re": re, "im": im}


def transport_reference(lam: float) -> dict:
    """mpmath ``J``, ``J'``, ``J''`` and ``F1 + F2`` at one field, arcsin domain."""
    mp.mp.dps = TRANSPORT_DPS
    lam_m = mp.mpf(lam)
    lam2 = lam_m**2
    pts = feature_points(lam, mp.mpf(1)) + [mp.mpf(1)] if lam != 0.0 else [mp.mpf(0), mp.mpf(1)]

    def profile(x):
        e = mp.sqrt(1 - x * x)
        return fermi(BETA_L, e) - fermi(BETA_R, e)

    flux = mp.quad(lambda x: profile(x) * x**3 / (x * x + lam2), pts) / mp.pi
    out = {"J": float(flux)}
    if lam != 0.0:
        split = mp.quad(lambda x: profile(x) * x**3 / (x * x + lam2) ** 2, pts)
        second = mp.quad(
            lambda x: profile(x) * x**3 * (-2 / (x * x + lam2) ** 2 + 8 * lam2 / (x * x + lam2) ** 3),
            pts,
        ) / mp.pi
        out.update(
            J_prime=float(-2 * lam_m / mp.pi * split),
            J_second=float(second),
            decomp_sum=float(split),
        )
    else:
        out["J_prime"] = 0.0
    return out


def entry(value: float, tol: float, source: str) -> dict:
    return {"value": value, "tol": tol, "source": source}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from nesslab.cli import _sweep  # the CLI's own grid parser, snapping included

    rng = np.random.default_rng(POOL_SEED)
    window_pool = stratified_fields(WINDOW_DECADES, WINDOW_PER_STRATUM, rng)
    small_pool = stratified_fields(SMALL_DECADES, SMALL_PER_STRATUM, rng)
    grid = list(_sweep("-2:2:0.01"))
    fit_grid = [float(x) for x in np.geomspace(1e-3, 1e-5, 9)]
    magnitudes = sorted({abs(x) for x in grid} | {abs(f["lam"]) for f in small_pool} | set(fit_grid))

    ctx = multiprocessing.get_context("spawn")
    t0 = time.perf_counter()
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        transport = dict(zip(magnitudes, pool.map(transport_reference, magnitudes)))
        print(f"transport: {len(magnitudes)} fields in {time.perf_counter() - t0:.0f} s", flush=True)
        window = pool.map(window_reference, [f["lam"] for f in window_pool])
        print(f"window: {len(window_pool)} fields in {time.perf_counter() - t0:.0f} s", flush=True)

    src_w = f"mpmath dps={WINDOW_DPS}: band overlap of scattered plane waves + bound-state term"
    for field, ref in zip(window_pool, window):
        values = [complex(r, i) for r, i in zip(ref["re"], ref["im"])]
        field.update(
            re=ref["re"],
            im=ref["im"],
            tol=[2 * ABS_TOL + REL_TOL * abs(v) for v in values],
            source=src_w,
        )
    REFS.mkdir(exist_ok=True)
    doc = {
        "thermal": [BETA_L, BETA_R],
        "half_width": HALF_WIDTH,
        "layout": "upper triangle of [-w, w] in row order, (x, y) with x <= y",
        "fields": window_pool,
    }
    (REFS / "window.json").write_text(json.dumps(doc, indent=1) + "\n")

    src_t = f"mpmath dps={TRANSPORT_DPS}: arcsin-domain integral split at |lam|"
    values = {}
    for lam in sorted({*grid, *(f["lam"] for f in small_pool), *fit_grid}):
        ref = transport[abs(lam)]
        sign = -1.0 if lam < 0 else 1.0
        row = {"J": entry(ref["J"], ABS_TOL + REL_TOL * abs(ref["J"]), src_t)}
        jp = sign * ref["J_prime"]
        row["J_prime"] = entry(jp, ABS_TOL + REL_TOL * abs(jp), src_t)
        if lam != 0.0:
            row["J_second"] = entry(ref["J_second"], ABS_TOL + REL_TOL * abs(ref["J_second"]), src_t)
            row["decomp_sum"] = entry(ref["decomp_sum"], ABS_TOL + REL_TOL * abs(ref["decomp_sum"]), src_t)
        values[repr(lam)] = row
    doc = {
        "thermal": [BETA_L, BETA_R],
        "grid": grid,
        "small": small_pool,
        "fit_grid": fit_grid,
        "values": values,
    }
    (REFS / "transport.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
