#!/usr/bin/env python3
"""Follow the transport coefficients into the zero-field singularity.

The flux J is smooth and even in the field, but its derivative steepens
without bound: J'/lambda grows like a logarithm and J'' blows down to
minus infinity.  This script prints the scaled-derivative regression
against its closed-form rate (2/pi) f0 and then tracks J, J'/lambda,
and J'' down a geometric field grid.
"""

import argparse

import numpy as np

from nesslab.model import ModelParams, ThermalConfig
from nesslab.transport import (
    divergence_fit,
    flux_report,
    log_decomposition,
    remainder_bound,
)


def run(beta_l: float, beta_r: float) -> None:
    th = ThermalConfig(beta_l, beta_r)
    fit = divergence_fit(th)
    print(f"reservoirs: beta_l = {beta_l}, beta_r = {beta_r}")
    print(f"theoretical rate (2/pi) f0 {fit.C_theory:.12f}")
    print(f"fitted slope of J'/lambda  {fit.C_fit:.12f}")
    print(f"fit residual               {fit.residual:.2e}")
    print(f"relative gap to theory     {fit.rel_error:.2e}")
    print()

    header = f"{'lambda':>10}  {'J':>16}  {'J_prime/lambda':>16}  {'J_second':>12}"
    print(header)
    print("-" * len(header))
    for lam in np.geomspace(0.5, 1e-4, 8):
        rep = flux_report(ModelParams(float(lam)), th)
        print(
            f"{lam:>10.2e}  {rep.J:>16.12f}  {rep.J_prime / lam:>16.8f}  "
            f"{rep.J_second:>12.6f}"
        )
    print()

    dec = log_decomposition(ModelParams(1e-3), th)
    print(
        f"decomposition at lambda = 1e-3: log part {dec.F1:.8f}, "
        f"remainder {dec.F2:.8f} (cap {remainder_bound(th):.6f})"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta-l", type=float, default=1.0)
    parser.add_argument("--beta-r", type=float, default=2.0)
    ns = parser.parse_args()
    run(ns.beta_l, ns.beta_r)
