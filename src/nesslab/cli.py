"""Command-line surface: figure data files and verification runs.

Every command resolves to one deterministic computation and one output
document, CSV (default) or JSON, on stdout or at ``--output``.  CSV cells
carry 17 significant digits so float64 values round-trip; JSON output is an
envelope ``{"command", "config", "result"}`` conforming to
``schemas/cli_output.schema.json``.  Identical invocations produce
byte-identical documents.

Each command takes ``--format``, ``--output`` and the value flags it reads;
any other flag is an argument error.  ``correction`` reads ``--lambda``;
``flux``, ``flux-scan``, ``dflux`` and ``ti-check`` read ``--beta-l
--beta-r --lambda --nu``; ``ness-matrix`` these and ``--window``;
``spectrum`` reads ``--lambda --nu --oracle-m``; ``oracle-verify``
``--beta-l --beta-r --lambda --nu --tol --oracle-m --t-star``; and
``transition-fit`` ``--beta-l --beta-r``.  The JSON ``config`` echoes all
eight value flags, with the default of each flag the command does not read.
A negative value other than a plain decimal (``-0.5``), such as a sweep or
an exponent form, is read as a flag unless given in the equals form,
``--lambda=-2:2:0.01`` or ``--lambda=-1e-5``.

Exit codes: 0 success, 2 invalid configuration (including argument errors
and an output path that cannot be opened), 3 numerical failure
(non-convergence, internal cross-checks), 4 oracle verification ran and
failed.  Failures other than argument errors print a one-line JSON error
record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .model import ModelParams, ThermalConfig, bound_state
from .ness import correlation_block, s_element, ti_commutator_direct
from .scattering import magnetic_correction
from .transport import divergence_fit, flux_report, heat_flux, ti_commutator_element

_CORRECTION_POINTS = 801  # odd and divisible by 4 plus 1: hits 0 and +-pi/2
_MAX_SWEEP_POINTS = 10**5


def _sweep(text: str) -> tuple[float, ...]:
    """Parse ``--lambda``: a float, or an inclusive ``min:max:step`` sweep."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(text),)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected FLOAT or MIN:MAX:STEP, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise argparse.ArgumentTypeError("sweep bounds and step must be finite")
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError("sweep needs step > 0 and max >= min")
    # steps + 1/2, so that int() rounds; may overflow to inf
    span = (hi - lo) / step + 0.5
    if not span < _MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(f"sweep has more than {_MAX_SWEEP_POINTS} points")
    count = int(span) + 1
    # snap to the printed grid so e.g. -2:2:0.01 lands on 0 exactly
    return tuple(round(lo + i * step, 12) for i in range(count))


# Every value flag, in the order of the JSON config echo, which names each
# by its flag: attribute -> (flag, type, default, help).
_FLAGS = {
    "beta_l": ("--beta-l", float, 1.0, "inverse temperature of the left reservoir"),
    "beta_r": ("--beta-r", float, 2.0, "inverse temperature of the right reservoir"),
    "lam": ("--lambda", _sweep, (0.2,), "field strength, or MIN:MAX:STEP sweep"),
    "nu": ("--nu", int, 0, "sample half-width"),
    "tol": ("--tol", float, 1e-3, "comparison tolerance"),
    "oracle_m": ("--oracle-m", int, 1000, "truncation half-width"),
    "t_star": ("--t-star", float, 900.0, "late-time horizon"),
    "window": ("--window", int, 5, "half-width of the site window"),
}


def _echo(ns: argparse.Namespace) -> dict:
    return {
        flag[2:].replace("-", "_"): getattr(ns, attr, default)
        for attr, (flag, _, default, _) in _FLAGS.items()
    }


def _single_lam(ns: argparse.Namespace) -> float:
    if len(ns.lam) != 1:
        raise ValueError(f"{ns.command} takes a single field strength, not a sweep")
    return ns.lam[0]


# Each handler returns (json_result, csv_columns, csv_rows).


def _columns(cols: list[str], rows: list[tuple]):
    """A table whose JSON result holds one list per CSV column."""
    return {c: list(values) for c, values in zip(cols, zip(*rows))}, cols, rows


def _record(result: dict):
    """A one-row table whose JSON result is the row keyed by its columns."""
    return result, list(result), [tuple(result.values())]


def _cmd_correction(ns: argparse.Namespace):
    lam = _single_lam(ns)
    grid = np.linspace(-math.pi, math.pi, _CORRECTION_POINTS).tolist()
    rows = [(k, magnetic_correction(lam, math.cos(k))) for k in grid]
    return _columns(["k", "correction"], rows)


def _cmd_flux(ns: argparse.Namespace):
    params = ModelParams(_single_lam(ns), ns.nu)
    report = flux_report(params, ThermalConfig(ns.beta_l, ns.beta_r))
    cols = ["lambda", "nu", "beta_l", "beta_r", "J", "sigma", "J_prime",
            "J_second", "quadrature_error"]
    row = (report.params.lam, report.params.nu, ns.beta_l, ns.beta_r,
           report.J, report.sigma, report.J_prime, report.J_second,
           report.quadrature_error)
    return report.to_dict(), cols, [row]


def _cmd_sweep(fields: tuple[str, ...], ns: argparse.Namespace):
    """The ``FluxReport`` ``fields`` at each field strength of the sweep, a column each."""
    th = ThermalConfig(ns.beta_l, ns.beta_r)
    rows = []
    for lam in ns.lam:
        report = flux_report(ModelParams(lam, ns.nu), th)
        rows.append((lam, *(getattr(report, f) for f in fields)))
    return _columns(["lambda", *fields], rows)


def _cmd_ness_matrix(ns: argparse.Namespace):
    if ns.window < 0:
        raise ValueError(f"window half-width must be nonnegative, got {ns.window}")
    block = correlation_block(ModelParams(_single_lam(ns), ns.nu),
                              ThermalConfig(ns.beta_l, ns.beta_r), -ns.window, ns.window)
    rows = [
        (x, y, block.matrix[i, j].real, block.matrix[i, j].imag)
        for i, x in enumerate(block.sites)
        for j, y in enumerate(block.sites)
    ]
    return block.to_dict(), ["x", "y", "re", "im"], rows


def _cmd_spectrum(ns: argparse.Namespace):
    from .oracle import build_truncation

    lam = _single_lam(ns)
    sysm = build_truncation(ns.oracle_m, ModelParams(lam, ns.nu))
    data = sysm.bound_data()
    result = {"lambda": lam, "oracle_m": ns.oracle_m,
              "n_outside_band": 0 if data is None else 1}
    result.update(dict.fromkeys(["energy", "decay_rate", "norm_sq", "staggered",
                                 "energy_residual", "eigenvector_sup_error"]))
    if lam != 0.0 and data is not None:
        state = bound_state(lam)
        vec = data[1]
        if vec[sysm.index(0)] < 0.0:
            vec = -vec
        result["energy"] = state.energy
        result["decay_rate"] = state.decay_rate
        result["norm_sq"] = state.norm_sq
        result["staggered"] = state.staggered
        result["energy_residual"] = abs(data[0] - state.energy)
        reach = min(20, ns.oracle_m)  # sites -20..20, or the whole window
        result["eigenvector_sup_error"] = max(
            abs(vec[sysm.index(x)] - state.amplitude(x)) for x in range(-reach, reach + 1)
        )
    return _record(result)


def _cmd_ti_check(ns: argparse.Namespace):
    params = ModelParams(_single_lam(ns), ns.nu)
    th = ThermalConfig(ns.beta_l, ns.beta_r)
    fast = ti_commutator_element(params, th)
    direct = ti_commutator_direct(params, th)
    return _record({"lambda": params.lam, "fast": fast, "direct": direct,
                    "difference": fast - direct})


def _cmd_oracle_verify(ns: argparse.Namespace):
    from .oracle import build_truncation, ness_estimate, oracle_flux

    params = ModelParams(_single_lam(ns), ns.nu)
    th = ThermalConfig(ns.beta_l, ns.beta_r)
    if not 0.0 < ns.tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {ns.tol}")
    sysm = build_truncation(ns.oracle_m, params)
    checks = []

    def record(name: str, measured: float, tolerance: float) -> None:
        checks.append(
            {"name": name, "measured": measured, "tolerance": tolerance,
             "passed": bool(measured < tolerance)}
        )

    for x, y in ((0, 0), (0, 1)):
        est = ness_estimate(sysm, th, x, y, ns.t_star)
        exact = s_element(params, th, x, y)
        record(f"ness_{x}_{y}", abs(est - exact), ns.tol)
    j_left, j_right = oracle_flux(sysm, th, ns.t_star)
    record("first_law", abs(j_left + j_right), 1e-6)
    record("flux_match", abs(j_left - heat_flux(params, th)), ns.tol)
    result = {"checks": checks, "passed": all(c["passed"] for c in checks)}
    rows = [
        (c["name"], c["measured"], c["tolerance"], "pass" if c["passed"] else "fail")
        for c in checks
    ]
    return result, ["check", "measured", "tolerance", "status"], rows


def _cmd_transition_fit(ns: argparse.Namespace):
    fit = divergence_fit(ThermalConfig(ns.beta_l, ns.beta_r))
    result = dataclasses.asdict(fit)
    cols = ["lambda", "ratio", "C_fit", "C_theory", "intercept", "residual",
            "rel_error"]
    rows = [
        (lam, ratio, fit.C_fit, fit.C_theory, fit.intercept, fit.residual,
         fit.rel_error)
        for lam, ratio in zip(fit.lambda_grid, fit.ratios)
    ]
    return result, cols, rows


# the flags of one operating point
_POINT = ("beta_l", "beta_r", "lam", "nu")
_DEFAULT_SWEEP = _sweep("-2:2:0.01")

# Every command: name -> (handler, flags read, defaults overridden, help).
_COMMANDS = {
    "correction": (_cmd_correction, ("lam",), {},
                   "transmission suppression profile over the band"),
    "flux": (_cmd_flux, _POINT, {},
             "flux observables at one operating point"),
    "flux-scan": (functools.partial(_cmd_sweep, ("J", "sigma")), _POINT,
                  {"lam": _DEFAULT_SWEEP},
                  "flux and entropy production over a field sweep"),
    "dflux": (functools.partial(_cmd_sweep, ("J_prime", "J_second")), _POINT,
              {"lam": _DEFAULT_SWEEP},
              "first and second flux derivatives over a field sweep"),
    "ness-matrix": (_cmd_ness_matrix, (*_POINT, "window"), {},
                    "steady-state correlation window"),
    "spectrum": (_cmd_spectrum, ("lam", "nu", "oracle_m"), {},
                 "bound-state data and truncated-eigensolve residuals"),
    "ti-check": (_cmd_ti_check, _POINT, {},
                 "translation-invariance defect, closed form vs matrix elements"),
    "oracle-verify": (_cmd_oracle_verify, (*_POINT, "tol", "oracle_m", "t_star"),
                      {"oracle_m": 1500},
                      "finite-lattice verification suite (exit 4 on failure)"),
    "transition-fit": (_cmd_transition_fit, ("beta_l", "beta_r"), {},
                       "log-divergence regression near zero field"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesslab",
        description="steady-state transport laboratory for the driven chain "
        "with a one-site field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads, overrides, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for attr in reads:
            flag, kind, default, flag_help = _FLAGS[attr]
            p.add_argument(flag, dest=attr, type=kind,
                           default=overrides.get(attr, default), help=flag_help)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
    return parser


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _render(ns: argparse.Namespace, result, cols, rows) -> str:
    if ns.fmt == "json":
        envelope = {"command": ns.command, "config": _echo(ns), "result": result}
        return json.dumps(envelope, indent=2, allow_nan=False) + "\n"
    lines = [",".join(cols)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        fh = open(path, "w", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot open output {path!r}: {exc.strerror}") from exc
    with fh:
        fh.write(text)


def _error_record(exc: BaseException) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _COMMANDS[ns.command][0]
    try:
        result, cols, rows = handler(ns)
        _emit(ns.output, _render(ns, result, cols, rows))
    except ValueError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3
    if ns.command == "oracle-verify" and not result["passed"]:
        print(_error_record(RuntimeError("oracle verification failed")), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
