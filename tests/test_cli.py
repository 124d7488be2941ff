"""Command-line surface: documents, determinism, exit codes."""

import argparse
import json
import math
import subprocess
import sys

import pytest

from nesslab.cli import _sweep, main
from nesslab.exceptions import NonConvergence
from nesslab.model import ModelParams, ThermalConfig
from nesslab.ness import correlation_block

GOLDEN_FLUX_12 = 0.019467106206978297

# the value flags each command reads; it takes --format and --output besides
POINT = ["--beta-l", "--beta-r", "--lambda", "--nu"]
READS = {
    "correction": ["--lambda"],
    "flux": POINT,
    "flux-scan": POINT,
    "dflux": POINT,
    "ness-matrix": [*POINT, "--window"],
    "spectrum": ["--lambda", "--nu", "--oracle-m"],
    "ti-check": POINT,
    "oracle-verify": [*POINT, "--tol", "--oracle-m", "--t-star"],
    "transition-fit": ["--beta-l", "--beta-r"],
}
# a cheap non-default value of every flag
FLAG_VALUES = {
    "--beta-l": "0.5", "--beta-r": "3", "--lambda": "0.3", "--nu": "1",
    "--tol": "0.01", "--oracle-m": "150", "--t-star": "100", "--window": "2",
}
UNREAD = [(cmd, flag) for cmd, reads in READS.items()
          for flag in FLAG_VALUES if flag not in reads]
ECHO_DEFAULTS = {
    "beta_l": 1.0, "beta_r": 2.0, "lambda": [0.2], "nu": 0, "tol": 1e-3,
    "oracle_m": 1000, "t_star": 900.0, "window": 5,
}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSweepParsing:
    def test_single_value(self):
        assert _sweep("0.5") == (0.5,)
        assert _sweep("-1.25") == (-1.25,)

    def test_grid_snaps_onto_round_values(self):
        grid = _sweep("-2:2:0.01")
        assert len(grid) == 401
        assert grid[0] == -2.0 and grid[-1] == 2.0
        assert grid[200] == 0.0
        assert grid[217] == 0.17

    def test_degenerate_sweep_is_one_point(self):
        assert _sweep("0.3:0.3:0.1") == (0.3,)

    # the last two: 1e12 points, and a step count that overflows to inf
    @pytest.mark.parametrize(
        "text",
        ["1:2", "2:1:0.1", "1:2:-0.5", "1:2:0", "1:inf:0.5", "a:b:c",
         "0:1e6:1e-6", "0:1e308:1e-308"],
    )
    def test_malformed_sweeps_exit_two(self, capsys, text):
        code, _, _ = run_cli(capsys, "flux", "--lambda", text)
        assert code == 2

    # argparse reads an exponent-form negative as a flag; the equals form passes it
    @pytest.mark.parametrize(
        "args",
        [["flux", "--lambda=-1e-5"], ["ness-matrix", "--lambda=-5e-324", "--window", "1"]],
        ids=lambda a: a[0],
    )
    def test_equals_form_negative_exits_zero(self, capsys, args):
        code, _, _ = run_cli(capsys, *args)
        assert code == 0

    def test_point_cap(self):
        assert len(_sweep("0:99999:1")) == 100_000
        with pytest.raises(argparse.ArgumentTypeError, match="more than 100000 points"):
            _sweep("0:100000:1")


class TestCorrection:
    def test_default_profile(self, capsys):
        code, out, err = run_cli(capsys, "correction")
        assert code == 0 and err == ""
        cols, rows = csv_rows(out)
        assert cols == ["k", "correction"]
        assert len(rows) == 801
        # band edges and band center transmit nothing extra
        for i in (0, 400, 800):
            assert float(rows[i][1]) == 0.0
        # quarter-band peak at the default field 0.2
        for i in (200, 600):
            assert abs(float(rows[i][1]) - 25.0 / 26.0) < 1e-15
        ks = [float(r[0]) for r in rows]
        assert abs(ks[0] + math.pi) < 1e-15 and abs(ks[-1] - math.pi) < 1e-15

    def test_rejects_a_sweep(self, capsys):
        code, _, err = run_cli(capsys, "correction", "--lambda", "0:1:0.5")
        assert code == 2
        record = json.loads(err)
        assert record["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_rejects_a_non_finite_field(self, capsys, lam):
        code, out, err = run_cli(capsys, "correction", "--lambda", lam, "--format", "json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestFlux:
    def test_golden_point(self, capsys):
        code, out, _ = run_cli(capsys, "flux", "--lambda", "0")
        assert code == 0
        cols, rows = csv_rows(out)
        assert cols == [
            "lambda", "nu", "beta_l", "beta_r", "J", "sigma", "J_prime",
            "J_second", "quadrature_error",
        ]
        (row,) = rows
        assert abs(float(row[4]) - GOLDEN_FLUX_12) < 1e-9
        assert float(row[5]) == float(row[4])  # beta gap is 1
        assert float(row[6]) == 0.0
        assert row[7] == ""  # curvature undefined at zero field

    def test_equal_temperatures_null_transport(self, capsys):
        code, out, _ = run_cli(
            capsys, "flux", "--beta-l", "2", "--beta-r", "2", "--lambda", "0.5"
        )
        assert code == 0
        _, rows = csv_rows(out)
        (row,) = rows
        assert float(row[4]) == 0.0 and float(row[5]) == 0.0
        assert float(row[6]) == 0.0 and float(row[7]) == 0.0

    def test_json_envelope_validates(self, capsys, repo_schema):
        code, out, _ = run_cli(capsys, "flux", "--lambda", "0.3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
        assert doc["command"] == "flux"
        assert doc["config"]["lambda"] == [0.3]
        assert set(doc["result"]) == {
            "J", "sigma", "J_prime", "J_second", "quadrature_error", "params",
            "thermal",
        }
        assert doc["result"]["params"] == {"lambda": 0.3, "nu": 0}


class TestFluxScan:
    def test_small_scan(self, capsys):
        code, out, _ = run_cli(capsys, "flux-scan", "--lambda", "0:1:0.5")
        assert code == 0
        cols, rows = csv_rows(out)
        assert cols == ["lambda", "J", "sigma"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        js = [float(r[1]) for r in rows]
        assert all(j > 0.0 for j in js)
        assert js[0] == max(js)
        for r in rows:
            assert float(r[2]) == float(r[1])

    def test_default_sweep_is_the_figure_grid(self, capsys):
        code, out, _ = run_cli(capsys, "flux-scan", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["lambda"] == list(_sweep("-2:2:0.01"))
        assert doc["result"]["lambda"] == doc["config"]["lambda"]


class TestDflux:
    def test_sweep_crossing_zero(self, capsys):
        code, out, _ = run_cli(capsys, "dflux", "--lambda=-0.02:0.02:0.01")
        assert code == 0
        cols, rows = csv_rows(out)
        assert cols == ["lambda", "J_prime", "J_second"]
        assert [r[0] for r in rows] == ["-0.02", "-0.01", "0", "0.01", "0.02"]
        assert float(rows[2][1]) == 0.0 and rows[2][2] == ""
        assert abs(float(rows[0][1]) + float(rows[4][1])) < 1e-12
        assert float(rows[1][2]) < 0.0  # deep in the logarithmic well


class TestNessMatrix:
    def test_json_matches_library_block(self, capsys, repo_schema, th12):
        code, out, _ = run_cli(
            capsys, "ness-matrix", "--lambda", "0.5", "--window", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
        block = correlation_block(ModelParams(0.5), th12, -2, 2)
        assert doc["result"] == block.to_dict()

    def test_csv_is_self_adjoint(self, capsys):
        code, out, _ = run_cli(capsys, "ness-matrix", "--lambda", "0.4", "--window", "1")
        assert code == 0
        cols, rows = csv_rows(out)
        assert cols == ["x", "y", "re", "im"]
        assert len(rows) == 9
        cells = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows}
        re01, im01 = cells[("0", "1")]
        re10, im10 = cells[("1", "0")]
        assert re01 == re10 and im01 == -im10

    def test_rejects_negative_window(self, capsys):
        code, _, err = run_cli(capsys, "ness-matrix", "--window", "-1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_overflowing_field_exits_zero(self, capsys):
        # lam^2 overflows here, but no kernel squares the field
        code, out, _ = run_cli(capsys, "ness-matrix", "--lambda", "1e200")
        assert code == 0
        _, rows = csv_rows(out)
        assert all(math.isfinite(float(v)) for row in rows for v in row[2:])


class TestSpectrum:
    def test_bound_state_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--lambda", "0.75", "--oracle-m", "300"
        )
        assert code == 0
        cols, rows = csv_rows(out)
        (row,) = rows
        named = dict(zip(cols, row))
        assert named["n_outside_band"] == "1"
        assert abs(float(named["energy"]) - 1.25) < 1e-12
        assert float(named["energy_residual"]) < 1e-8
        assert float(named["eigenvector_sup_error"]) < 1e-6
        assert named["staggered"] == "false"

    @pytest.mark.parametrize("m", ["10", "15"])
    def test_narrow_window_sweeps_its_own_sites(self, capsys, repo_schema, m):
        # the eigenvector is compared on |x| <= min(20, M); a window
        # narrower than 20 sites each side used to exit 2 on site -20
        code, out, err = run_cli(
            capsys, "spectrum", "--lambda", "0.75", "--oracle-m", m, "--format", "json"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        repo_schema(doc)
        assert doc["result"]["n_outside_band"] == 1
        assert doc["result"]["eigenvector_sup_error"] < 1e-3

    def test_free_chain_has_no_bound_state(self, capsys, repo_schema):
        code, out, _ = run_cli(
            capsys, "spectrum", "--lambda", "0", "--oracle-m", "150",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
        assert doc["result"]["n_outside_band"] == 0
        assert doc["result"]["energy"] is None
        assert doc["result"]["eigenvector_sup_error"] is None


class TestTiCheck:
    def test_fast_route_matches_matrix_elements(self, capsys, repo_schema):
        code, out, _ = run_cli(
            capsys, "ti-check", "--lambda", "0.2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
        assert abs(doc["result"]["difference"]) < 1e-10
        assert doc["result"]["fast"] > 0.0

    def test_largest_pinned_field(self, capsys):
        # the closed form raised NonConvergence here, exit 3
        code, out, _ = run_cli(capsys, "ti-check", "--lambda", "1e6")
        assert code == 0
        _, (row,) = csv_rows(out)
        assert abs(float(row[1]) - 2.4096155258689731e-8) < 1e-15
        assert abs(float(row[3])) < 1e-10


@pytest.mark.parametrize(
    "args", [["ti-check"], ["ness-matrix", "--window", "1"]], ids=lambda a: a[0]
)
def test_wide_sample_exits_zero(capsys, args):
    # the bound-state weight sums the sample sites in closed form
    code, _, _ = run_cli(capsys, *args, "--nu", "1000000000")
    assert code == 0


class TestTransitionFit:
    def test_regression_report(self, capsys, repo_schema):
        code, out, _ = run_cli(capsys, "transition-fit", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
        assert doc["config"] == ECHO_DEFAULTS
        res = doc["result"]
        assert len(res["lambda_grid"]) == 9
        assert res["residual"] < 1e-6
        assert abs(res["C_theory"] - 0.09532648936950905) < 1e-14
        recomputed = abs(res["C_fit"] - res["C_theory"]) / res["C_theory"]
        assert abs(res["rel_error"] - recomputed) < 1e-15


class TestOracleVerify:
    def test_full_run_passes(self, capsys):
        # 3001-site tridiagonal eigensolve plus late-time averages: ~4 s
        code, out, err = run_cli(
            capsys, "oracle-verify", "--t-star", "1100", "--format", "json"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["config"]["oracle_m"] == 1500
        assert doc["result"]["passed"] is True
        names = [c["name"] for c in doc["result"]["checks"]]
        assert names == ["ness_0_0", "ness_0_1", "first_law", "flux_match"]
        assert all(c["passed"] for c in doc["result"]["checks"])

    def test_starved_run_exits_four_with_report(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle-verify", "--oracle-m", "300", "--t-star", "120",
            "--tol", "1e-15",
        )
        assert code == 4
        cols, rows = csv_rows(out)
        assert cols == ["check", "measured", "tolerance", "status"]
        assert any(r[3] == "fail" for r in rows)
        assert json.loads(err)["error"]["type"] == "RuntimeError"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_invalid_tolerance_exits_two_before_the_lattice(self, capsys, monkeypatch, tol):
        def unexpected(*args, **kwargs):
            raise AssertionError("build_truncation ran")

        monkeypatch.setattr("nesslab.oracle.build_truncation", unexpected)
        code, out, err = run_cli(capsys, "oracle-verify", "--tol", tol, "--format", "json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "t_star, kind",
        [("inf", "ValueError"), ("nan", "ValueError"), ("1e300", "TimeHorizonExceeded")],
    )
    def test_unusable_time_exits_two(self, capsys, t_star, kind):
        code, out, err = run_cli(
            capsys, "oracle-verify", "--t-star", t_star, "--oracle-m", "100"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == kind


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "correction" in out

    def test_no_arguments_exits_two(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "fluxx")
        assert code == 2

    def test_invalid_temperatures_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "flux", "--beta-l", "0")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"
        code, _, _ = run_cli(capsys, "flux", "--beta-l", "3", "--beta-r", "1")
        assert code == 2

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        def broken(params, th, spec=None):
            raise NonConvergence("quadrature budget exhausted")

        monkeypatch.setattr("nesslab.cli.flux_report", broken)
        code, _, err = run_cli(capsys, "flux-scan", "--lambda", "0.5")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "NonConvergence"


class TestFlagTable:
    @pytest.mark.parametrize("command", list(READS))
    def test_json_echoes_every_flag(self, capsys, repo_schema, command):
        args = [x for flag in READS[command] for x in (flag, FLAG_VALUES[flag])]
        code, out, _ = run_cli(capsys, command, *args, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
        assert doc["command"] == command
        expected = dict(ECHO_DEFAULTS)
        for flag in READS[command]:
            key = flag[2:].replace("-", "_")
            text = FLAG_VALUES[flag]
            expected[key] = list(_sweep(text)) if key == "lambda" else type(expected[key])(text)
        assert doc["config"] == expected

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_is_an_argument_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag, FLAG_VALUES[flag])
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err


class TestOutputDiscipline:
    def test_output_file_has_unix_newlines(self, capsys, tmp_path):
        target = tmp_path / "correction.csv"
        code, out, _ = run_cli(capsys, "correction", "--output", str(target))
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert raw.count(b"\n") == 802
        assert b"\r" not in raw

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "flux.csv"
        code, out, err = run_cli(capsys, "flux", "--output", str(target))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("transition-fit", "--format", "json"),
            ("correction", "--lambda", "1"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, args):
        cmd = [sys.executable, "-m", "nesslab", *args]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty document


class TestImportCost:
    def test_closed_forms_load_no_scipy(self):
        # scipy.integrate alone costs ~0.6 s of every start; only the
        # oracle loads scipy, on first use, and neither the package nor the
        # CLI imports the oracle before it is used
        script = """
import math
import sys
import nesslab, nesslab.cli
from nesslab import ModelParams, ThermalConfig
th = ThermalConfig(1.0, 2.0)
for lam in (0.5, 1e-12):
    p = ModelParams(lam)
    nesslab.heat_flux(p, th)
    nesslab.flux_report(p, th)
    nesslab.pp_weight(p, th)
    nesslab.s_element(p, th, 0, 1)
    nesslab.correlation_block(p, th, -3, 3)
    nesslab.ti_commutator_element(p, th)
nesslab.adaptive_integrate(math.cos, 0.0, 1.0)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert "nesslab.oracle" not in sys.modules
assert nesslab.build_truncation(50, ModelParams(0.5)).bound_data() is not None
print("ok")
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"
