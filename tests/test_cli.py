"""The command-line contract: exit codes, stdout and stderr of each mode.

Most checks call loopinfo.cli.main in this process. Those about a fresh
interpreter run `python -m loopinfo.cli`: what importing the CLI loads,
output that must not change between processes or BLAS thread counts, and
warnings as a user sees them on stderr.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from loopinfo.cli import main


def run_cli(*args):
    """main(args) in this process: its exit code (argparse's usage errors
    included) and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_fresh(*args, **kwargs):
    """The CLI in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "loopinfo.cli", *args], capture_output=True, text=True,
        **kwargs
    )


@pytest.fixture(scope="module")
def cli_import_adds():
    """The modules that importing the CLI adds to a fresh interpreter that
    has imported numpy (numpy 1.x loads numpy.polynomial itself)."""
    code = (
        "import json, sys, numpy; before = set(sys.modules); import loopinfo.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy(cli_import_adds):
    assert [m for m in cli_import_adds if m.split(".")[0] == "scipy"] == []


def test_cli_import_leaves_numpy_polynomial_unloaded(cli_import_adds):
    assert "loopinfo.cli" in cli_import_adds
    assert [m for m in cli_import_adds if m.startswith("numpy.polynomial")] == []


@pytest.fixture
def loop_config(tmp_path):
    cfg = {
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-2.0], "den": [1.0]},
        "feedback_filter": {"num": [1.0], "den": [1.0]},
        "channel_noise": {"kind": "white", "variance": 1.0},
        "output_disturbance": {"kind": "white", "variance": 1.0},
        "options": {"grid_points": 4096, "log_base": "nats", "seed": 1, "n_samples": 131072},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def unstable_config(tmp_path):
    cfg = {
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [0.0]},
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(cfg))
    return path


def write_config(tmp_path, name, **fields):
    """P = d/(1 - 2d) under K = -2 with the given config fields, as name.json."""
    cfg = {"plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]}, "controller": {"num": [-2.0]}}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, **fields}))
    return path


SIMULATE_CASES = {
    # a colored disturbance: its row is a product
    "colored": {
        "output_disturbance": {"kind": "colored", "variance": 0.5,
                               "shaping": {"num": [1.0], "den": [1.0, -0.9]}},
        "options": {"n_samples": 16384},
    },
    # a silent disturbance: no draw
    "silent": {
        "output_disturbance": {"kind": "white", "variance": 0.0},
        "options": {"n_samples": 16384},
    },
    # a silent one whose record ends inside a 64-sample block: zeroed padding
    "padded": {
        "output_disturbance": {"kind": "white", "variance": 0.0},
        "options": {"n_samples": 16411},
    },
}


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reports_rate(loop_config):
    res = run_cli("analyze", str(loop_config))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["stability"]["is_stabilizing"] is True
    assert doc["units"] == "nats/sample"
    rate = doc["rate"]
    assert rate["total_rate"] == pytest.approx(1.03972077084, abs=1e-10)
    assert rate["control_term"] == pytest.approx(math.log(2), abs=1e-10)
    assert rate["grid_points"] == 4096
    assert abs(rate["residual"]) < 1e-10


def test_analyze_bits_flag(loop_config):
    res = run_cli("analyze", "--bits", str(loop_config))
    doc = json.loads(res.stdout)
    assert doc["units"] == "bits/sample"
    # ln 2 + 0.5 ln 2 in bits is exactly 1.5
    assert doc["rate"]["total_rate"] == pytest.approx(1.5, abs=1e-10)


def test_analyze_grid_override(loop_config):
    for n in (1024, 65536):
        res = run_cli("analyze", "--grid", str(n), str(loop_config))
        assert json.loads(res.stdout)["rate"]["grid_points"] == n


def test_analyze_unstable_exits_2(unstable_config):
    res = run_cli("analyze", str(unstable_config))
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["stability"]["is_stabilizing"] is False
    assert doc["stability"]["offending_poles"] == [[2.0, 0.0]]
    assert "rate" not in doc


def test_analyze_bad_config_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": {"num": [0.0, "x"]}, "controller": {"num": [1.0]}}))
    res = run_cli("analyze", str(bad))
    assert res.returncode == 1
    assert "config.plant.num[1]" in res.stderr


def test_analyze_vanishing_shaping_filter_names_a_float_omega(tmp_path):
    cfg = tmp_path / "vanishing.json"
    cfg.write_text(json.dumps({
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-2.0]},
        "output_disturbance": {"kind": "colored", "variance": 1.0,
                               "shaping": {"num": [1.0, 1.0]}},
    }))
    res = run_cli("analyze", str(cfg))
    assert res.returncode == 1
    assert "omega=-3.141592653589793" in res.stderr
    assert "np." not in res.stderr


@pytest.mark.parametrize(
    "plant, controller, message",
    [
        # the roots of 1e-300 + 1e300 d overflow the eigensolver's matrix
        ({"num": [0.0, 1.0], "den": [1e-300, 1e300]}, {"num": [-2.0]},
         "config.plant: cannot compute the roots"),
        # the loop gain's coefficient 1e400 is not a float
        ({"num": [0.0, 1e200]}, {"num": [1e200]},
         "config: non-finite polynomial coefficients"),
        # a JSON integer of 401 digits is not a float
        ({"num": [0.0, int("1" + "0" * 400)]}, {"num": [-2.0]},
         "config.plant.num[1]: integer too large for a float"),
    ],
)
def test_analyze_coefficients_out_of_float_range_exit_1(tmp_path, plant, controller,
                                                        message):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"plant": plant, "controller": controller}))
    res = run_cli("analyze", str(cfg))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {message}")
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_overflowed_sensitivity_ratio_exits_1(tmp_path, command):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-2.0]},
        "channel_noise": {"kind": "white", "variance": 1e-200},
        "output_disturbance": {"kind": "white", "variance": 1e200},
    }))
    res = run_cli(command, str(cfg))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "sensitivity ratio S_Y/S_W" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr


def test_analyze_missing_file_exits_1(tmp_path):
    res = run_cli("analyze", str(tmp_path / "absent.json"))
    assert res.returncode == 1


def test_analyze_writes_output_and_integrands(loop_config, tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "parts.csv"
    for grid, n in (((), 4096), (("--grid", "1024"), 1024)):
        res = run_cli(
            "analyze", str(loop_config), *grid, "--output", str(out),
            "--integrands", str(csv_path),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["rate"]["grid_points"] == n
        assert doc["rate"]["total_rate"] == pytest.approx(1.03972077084, abs=1e-10)
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0] == ["omega", "log_Syw", "log_Fwy", "disturbance_integrand"]
        assert len(rows) == n + 1


def test_usage_error_exits_1():
    assert run_cli("analyze").returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli().returncode == 1


def test_seed_is_offered_only_where_it_is_read(loop_config):
    """simulate and verify read --seed; analyze and sweep reject it."""
    assert run_cli("analyze", "--seed", "1", str(loop_config)).returncode == 1
    sweep = ("sweep", str(loop_config), "--param", "sigma_v2", "--values", "1")
    assert run_cli(*sweep, "--seed", "5").returncode == 1
    assert run_cli(*sweep).returncode == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_fixed_loop_with_alternatives(loop_config):
    for grid, n in (((), 4096), (("--grid", "65536"), 65536)):
        res = run_cli(
            "verify",
            str(loop_config),
            *grid,
            "--alt-controller", "[-2.5]", "[1.0]",
            "--alt-controller", "[-1.5]", "[1.0]",
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["grid_points"] == n
        assert doc["residual_pass"] is True
        assert abs(doc["residual"]) < 1e-8
        ind = doc["independence"]
        assert ind["passed"] is True
        assert ind["max_deviation"] < 1e-9
        assert len(ind["disturbance_terms"]) == 3  # the config's controller plus two


def test_verify_random_suite():
    res = run_cli("verify", "--random", "5", "--seed", "0")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["cases"] == 5
    assert doc["identities_pass"] == 5
    assert doc["max_residual"] < 1e-8
    assert doc["max_proof_chain_gap"] < 1e-10
    assert doc["passed"] is True
    assert "5/5" in doc["note"]


def test_verify_random_suite_at_the_fine_grid():
    """50 loops at 65536 points, the entropy route included. On a numpy
    build other than the one test_lean_evaluation recorded its bits on, this
    is the suite's only check at this grid."""
    res = run_cli("verify", "--random", "50", "--seed", "71", "--grid", "65536")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["cases"] == 50
    assert doc["passed"] is True
    assert doc["max_residual"] < 1e-8
    assert doc["max_proof_chain_gap"] < 1e-10


def test_verify_random_zero_cases_is_vacuous():
    res = run_cli("verify", "--random", "0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["cases"] == 0


def test_verify_random_negative_count_is_a_usage_error():
    res = run_cli("verify", "--random", "-3")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "--random" in res.stderr


@pytest.mark.parametrize(
    "extra, flag",
    [
        (("CONFIG",), "config path"),
        (("--alt-controller", "[-2.5]", "[1.0]"), "--alt-controller"),
        (("--bits",), "--bits"),
    ],
)
def test_verify_random_rejects_flags_it_does_not_read(loop_config, extra, flag):
    args = [str(loop_config) if a == "CONFIG" else a for a in extra]
    res = run_cli("verify", "--random", "3", *args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert flag in res.stderr


def test_verify_config_rejects_seed(loop_config):
    res = run_cli("verify", str(loop_config), "--seed", "3")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "--seed" in res.stderr


def test_verify_needs_config_or_random():
    res = run_cli("verify")
    assert res.returncode == 1


def test_verify_random_negative_seed_is_a_usage_error():
    res = run_cli("verify", "--random", "2", "--seed", "-1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and "-1" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "num, den, bad",
    [("[true]", "[1]", "num[0]: not a number: True"),
     ("[-2.5]", "[1, false]", "den[1]: not a number: False"),
     ("[]", "[1]", "num: expected a non-empty coefficient array")],
)
def test_verify_alt_controller_coefficients_are_checked_as_in_a_config(
    loop_config, num, den, bad
):
    res = run_cli("verify", str(loop_config), "--alt-controller", num, den)
    assert res.returncode == 1
    assert res.stdout == ""
    assert f"--alt-controller.{bad}" in res.stderr


def test_verify_non_stabilizing_alternative_exits_2(loop_config):
    res = run_cli("verify", str(loop_config), "--alt-controller", "[0.1]", "[1.0]")
    assert res.returncode == 2
    assert "controller #1 " in res.stderr  # the config's own controller is #0


# a disturbance pole at 0.9999: the 4096-point quadrature is 2.7e-4 nats off
# the exact Jensen values, which decompose and the independence check both find
NEAR_CIRCLE_DISTURBANCE = {
    "output_disturbance": {"kind": "colored", "variance": 1.0,
                           "shaping": {"num": [1.0], "den": [1.0, -0.9999]}},
}


def test_verify_prints_a_warning_found_twice_once(tmp_path):
    res = run_fresh("verify", str(write_config(tmp_path, "near", **NEAR_CIRCLE_DISTURBANCE)))
    assert res.returncode == 0, res.stderr
    assert res.stderr.count("RuntimeWarning: quadrature on 4096 points is 0.000266") == 1
    assert res.stderr.count("Warning") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_warning_raises_under_an_error_filter(tmp_path):
    path = write_config(tmp_path, "near", **NEAR_CIRCLE_DISTURBANCE)
    with pytest.raises(RuntimeWarning, match="quadrature on 4096 points"):
        run_cli("verify", str(path))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic(loop_config):
    a = run_cli("simulate", str(loop_config))
    b = run_cli("simulate", str(loop_config))
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout  # byte-identical records
    doc = json.loads(a.stdout)
    assert doc["seed"] == 1
    assert doc["passed"] is True
    assert doc["abs_gap"] < 0.03


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_is_byte_identical_in_two_fresh_interpreters(tmp_path, case):
    path = write_config(tmp_path, case, **SIMULATE_CASES[case])
    a = run_fresh("simulate", str(path))
    b = run_fresh("simulate", str(path))
    assert a.returncode == 0, a.stderr
    json.loads(a.stdout)
    assert a.stdout == b.stdout


def test_simulate_checks_against_the_total_rate_analyze_prints(tmp_path):
    path = write_config(tmp_path, "colored", **SIMULATE_CASES["colored"])
    sim = json.loads(run_cli("simulate", str(path)).stdout)
    rate = json.loads(run_cli("analyze", str(path)).stdout)["rate"]
    assert sim["analytic_rate"] == rate["total_rate"]


def test_simulate_is_byte_identical_across_blas_thread_counts(tmp_path):
    # the simulation runs its blocks through BLAS matrix products
    cfg = {
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-1.8, 0.4], "den": [1.0, -0.3]},
        "channel_noise": {
            "kind": "colored", "variance": 1.3,
            "shaping": {"num": [1.0, 0.4], "den": [1.0, -0.6]},
        },
        "options": {"seed": 3, "n_samples": 65536},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(cfg))
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    default = {k: v for k, v in os.environ.items() if k not in threads}
    single = dict(default, **{k: "1" for k in threads})
    a = run_fresh("simulate", str(path), env=single)
    b = run_fresh("simulate", str(path), env=default)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout


def test_simulate_seed_override_changes_record(loop_config):
    a = run_cli("simulate", str(loop_config))
    b = run_cli("simulate", "--seed", "2", str(loop_config))
    assert json.loads(b.stdout)["seed"] == 2
    assert a.stdout != b.stdout


def test_simulate_impossible_tolerance_exits_3(loop_config):
    res = run_cli("simulate", "--tolerance", "1e-12", str(loop_config))
    assert res.returncode == 3
    assert json.loads(res.stdout)["passed"] is False


def test_simulate_refuses_a_record_shorter_than_one_welch_segment(loop_config, tmp_path):
    cfg = json.loads(loop_config.read_text())
    cfg["options"]["n_samples"] = 5000
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("simulate", str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == (
        "error: need n_samples - burn_in >= 1024, one Welch segment; "
        "got n_samples=5000, burn_in=4096 (904 samples)\n"
    )


def test_simulate_divergence_exits_2(tmp_path):
    cfg = {
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-0.1]},
        "options": {"n_samples": 8192},
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("simulate", str(path))
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# JSON key sets: each report's dataclass fields, plus the command's own keys

STABILITY_KEYS = {
    "is_stabilizing", "closed_loop_poles", "offending_poles",
    "unstable_cancellations",
}


def test_json_key_sets(loop_config):
    doc = json.loads(run_cli("analyze", str(loop_config)).stdout)
    assert set(doc) == {"stability", "units", "rate"}
    assert set(doc["stability"]) == STABILITY_KEYS
    assert set(doc["rate"]) == {
        "total_rate", "control_term", "disturbance_term", "residual",
        "bode_analytic", "grid_points", "convergence_estimate",
    }

    res = run_cli("verify", str(loop_config), "--alt-controller", "[-2.5]", "[1.0]")
    doc = json.loads(res.stdout)
    assert set(doc) == {"units", "residual", "residual_pass", "independence", "grid_points"}
    assert set(doc["independence"]) == {
        "disturbance_terms", "max_deviation", "passed", "tolerance",
    }

    doc = json.loads(run_cli("simulate", str(loop_config)).stdout)
    assert set(doc) == {
        "units", "seed", "n_samples", "analytic_rate", "empirical_rate",
        "abs_gap", "rel_gap", "tolerance", "passed", "floored_bins",
    }


# ---------------------------------------------------------------------------
# sweep


def test_sweep_disturbance_power(loop_config):
    res = run_cli(
        "sweep", str(loop_config), "--param", "sigma_v2", "--values", "0,1,3"
    )
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[0] == ["value", "total", "control", "disturbance"]
    got = {float(r[0]): float(r[3]) for r in rows[1:]}
    assert got[0.0] == pytest.approx(0.0, abs=1e-10)
    assert got[1.0] == pytest.approx(0.5 * math.log(2), abs=1e-10)
    assert got[3.0] == pytest.approx(math.log(2), abs=1e-10)
    # control term untouched by the sweep
    assert all(float(r[2]) == pytest.approx(math.log(2), abs=1e-10) for r in rows[1:])


def test_sweep_rows_are_what_analyze_prints(loop_config, tmp_path):
    """The sweep's points share the channel noise and its PSD: each row is,
    to 12 significant digits, analyze's report for the config with that
    disturbance variance."""
    res = run_cli("sweep", str(loop_config), "--param", "sigma_v2", "--values", "0.5,1")
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert [r["value"] for r in rows] == ["0.5", "1"]
    for row in rows:
        cfg = json.loads(loop_config.read_text())
        cfg["output_disturbance"] = {"kind": "white", "variance": float(row["value"])}
        path = tmp_path / "point.json"
        path.write_text(json.dumps(cfg))
        rate = json.loads(run_cli("analyze", str(path)).stdout)["rate"]
        for col, key in (("total", "total_rate"), ("control", "control_term"),
                         ("disturbance", "disturbance_term")):
            assert f"{float(row[col]):.12g}" == f"{rate[key]:.12g}", (row, rate)


def test_sweep_channel_power(loop_config):
    res = run_cli(
        "sweep", str(loop_config), "--param", "sigma_w2", "--values", "[1.0, 2.0]"
    )
    rows = list(csv.reader(io.StringIO(res.stdout)))
    got = {float(r[0]): float(r[3]) for r in rows[1:]}
    assert got[1.0] == pytest.approx(0.5 * math.log(2), abs=1e-10)
    assert got[2.0] == pytest.approx(0.5 * math.log(1.5), abs=1e-10)


def test_sweep_empty_values_header_only(loop_config):
    res = run_cli("sweep", str(loop_config), "--param", "sigma_v2", "--values", "")
    assert res.returncode == 0
    assert res.stdout.strip() == "value,total,control,disturbance"


@pytest.mark.parametrize("values", ["true", "[1.0, false]"])
def test_sweep_rejects_boolean_values(loop_config, values):
    res = run_cli("sweep", str(loop_config), "--param", "sigma_v2", "--values", values)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "not a number: " + ("true" if values == "true" else "false") in res.stderr


@pytest.mark.parametrize("values", ['["1.5"]', '"1.5"', "[1.0, null]", "[[1.0]]"])
def test_sweep_rejects_values_that_are_not_json_numbers(loop_config, values):
    res = run_cli("sweep", str(loop_config), "--param", "sigma_v2", "--values", values)
    assert res.returncode == 1
    assert res.stdout == ""
    named = json.loads(values)
    named = named[-1] if isinstance(named, list) else named
    assert "not a number: " + json.dumps(named) in res.stderr


@pytest.mark.parametrize(
    "values", ["1" + "0" * 400, "[0.5, 1" + "0" * 400 + "]"], ids=["number", "list"]
)
def test_sweep_integer_too_large_for_a_float_is_a_usage_error(loop_config, values):
    res = run_cli("sweep", str(loop_config), "--param", "sigma_v2", "--values", values)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "integer too large for a float" in res.stderr
    assert "0" * 20 not in res.stderr
    assert "Traceback" not in res.stderr


def test_sweep_infinite_variance_says_finite(loop_config):
    # the comma form parses each token with float, so 1e400 is inf
    res = run_cli("sweep", str(loop_config), "--param", "sigma_v2", "--values", "1e400,1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "noise variance must be finite and >= 0, got inf" in res.stderr
    assert "Traceback" not in res.stderr


def test_analyze_infinite_config_variance_says_finite(tmp_path):
    # json.loads reads 1e400 as inf
    cfg = tmp_path / "inf.json"
    cfg.write_text(
        '{"plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},'
        ' "controller": {"num": [-2.0]},'
        ' "output_disturbance": {"kind": "white", "variance": 1e400}}'
    )
    res = run_cli("analyze", str(cfg))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "config.output_disturbance: noise variance must be finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_sweep_unknown_param_rejected(loop_config):
    res = run_cli("sweep", str(loop_config), "--param", "gain", "--values", "1")
    assert res.returncode == 1
