"""Command-line surface: documents, determinism, exit codes."""

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

    @pytest.mark.parametrize(
        "text", ["1:2", "2:1:0.1", "1:2:-0.5", "1:2:0", "1:inf:0.5", "a:b:c"]
    )
    def test_malformed_sweeps_exit_two(self, capsys, text):
        code, _, _ = run_cli(capsys, "flux", "--lambda", text)
        assert code == 2


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


class TestTransitionFit:
    def test_regression_report(self, capsys, repo_schema):
        code, out, _ = run_cli(capsys, "transition-fit", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        repo_schema(doc)
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

        monkeypatch.setattr("nesslab.cli.heat_flux", broken)
        code, _, err = run_cli(capsys, "flux-scan", "--lambda", "0.5")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "NonConvergence"


class TestOutputDiscipline:
    def test_output_file_has_unix_newlines(self, capsys, tmp_path):
        target = tmp_path / "correction.csv"
        code, out, _ = run_cli(capsys, "correction", "--output", str(target))
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert raw.count(b"\n") == 802
        assert b"\r" not in raw

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
        # oracle's eigensolves load scipy, on first use
        script = """
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
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert nesslab.build_truncation(50, ModelParams(0.5)).bound_data() is not None
print("ok")
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"
