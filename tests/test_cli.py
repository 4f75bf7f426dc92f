from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sievesim.cli import main
from sievesim.harness import parse_config, parse_results_csv, run_experiment
from sievesim.synthetic import load_dataset, load_test_function

DATA = Path(__file__).parent / "data"
GOLDEN_CONFIG = str(DATA / "golden_config.ini")


class TestRunCommand:
    def test_writes_results_and_slopes(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["run", GOLDEN_CONFIG, "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert out.with_name("res_slopes.csv").exists()
        printed = capsys.readouterr().out
        assert "sample_average" in printed
        assert "reference value" in printed

    def test_json_output(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["run", GOLDEN_CONFIG, "--format", "json",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_config_exits_1_naming_path(self, capsys):
        code = main(["run", "/nope/missing.ini"])
        assert code == 1
        assert "/nope/missing.ini" in capsys.readouterr().err

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nkernel = laplace\nd = 2\nsizes = 10\n"
                       "warp = 9\n\n[estimator krr]\n")
        assert main(["run", str(bad)]) == 1
        assert "warp" in capsys.readouterr().err

    def test_missing_out_directory_exits_1_before_running(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_run(config):
            raise AssertionError("the sweep ran before the output path was checked")
        monkeypatch.setattr("sievesim.cli.run_experiment", no_run)
        missing = tmp_path / "nodir"
        assert main(["run", GOLDEN_CONFIG, "--out", str(missing / "x.csv")]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["run", GOLDEN_CONFIG, "--bogus"]) == 1

    def test_seed_override_changes_results(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", GOLDEN_CONFIG, "--out", str(a)]) == 0
        assert main(["run", GOLDEN_CONFIG, "--out", str(b), "--seed", "99"]) == 0
        ca = parse_results_csv(a)
        cb = parse_results_csv(b)
        assert ca[0].mean_abs_error != cb[0].mean_abs_error

    def test_replication_override(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["run", GOLDEN_CONFIG, "--out", str(out),
                     "--replications", "3"]) == 0
        assert all(c.replications == 3 for c in parse_results_csv(out))


BASE = """\
[experiment]
kernel = laplace
d = 2
centers = 10
sizes = 20 40
replications = 1
theta_eval_points = 1000
record_timing = false
"""
VAR = BASE + "functional = var\ntau = 0.95\n"


@pytest.mark.parametrize("body, env, key", [
    (BASE + "[estimator inducing_krr]\nselection = bogus\n", {}, "selection"),
    (BASE + "[estimator relu]\nepochs = abc\n", {}, "epochs"),
    (BASE + "[estimator krr]\nlambda = -1\n", {}, "lambda"),
    (BASE.replace("replications", "sigma = -1\nreplications") + "[estimator krr]\n", {}, "sigma"),
    (BASE.replace("sizes = 20 40", "budgets = 5") + "[estimator krr]\n", {}, "budgets"),
    (BASE.replace("sizes = 20 40", "sizes = 1 20") + "[estimator inducing_krr]\n", {}, "sizes"),
    (BASE + "[estimator sample_average]\n[estimatorsample_average]\n", {}, "sample_average"),
    (BASE + "[estimator krr]\n", {"SIEVESIM_THREADS": "abc"}, "SIEVESIM_THREADS"),
    (BASE + "[estimator krr]\n", {"SIEVESIM_THREADS": "0"}, "SIEVESIM_THREADS"),
    (BASE + "[estimator krr]\n", {"SIEVESIM_THREADS": "-2"}, "SIEVESIM_THREADS"),
    (BASE + "smoothness = -1\n[estimator krr]\n", {}, "smoothness"),
    (BASE + "[estimator a,b]\nkind = sample_average\n", {}, "a,b"),
    (BASE + "sigma = inf\n[estimator sample_average]\n", {}, "sigma"),
    (VAR + "alpha = 5\n[estimator krr]\n", {}, "alpha"),
    (VAR + "alpha = 0.5\nbeta = 2\n[estimator krr]\n", {}, "beta"),
    (VAR + "alpha = 0.5\ngamma = 0.5\n[estimator krr]\n", {}, "gamma"),
    (BASE + "sigma = 5%\n[estimator krr]\n", {}, "sigma"),
    (BASE + "[estimator krr]\nlambda = 1%\n", {}, "lambda"),
    (VAR + "eta = bogus\n[estimator krr]\n", {}, "eta"),
    (BASE + "functional = nested_expectation\ntau = abc\n[estimator krr]\n", {}, "tau"),
    (BASE.replace("sizes = 20 40", "budgets = 1000\nm = 2") + "[estimator krr]\n", {}, "'m'"),
    (BASE + "allocation = smooth\n[estimator krr]\n", {}, "allocation"),
    (BASE + "alpha = 0.5\n[estimator krr]\n", {}, "'alpha'"),
    (VAR + "beta = 0.5\n[estimator krr]\n", {}, "'beta'"),
    (BASE.replace("d = 2", "d = 0") + "[estimator krr]\n", {}, "d = '0'"),
], ids=["selection", "epochs", "lambda", "sigma", "budgets", "inducing_n1", "duplicate_name",
        "threads_abc", "threads_zero", "threads_negative", "smoothness_negative",
        "name_with_comma", "sigma_inf", "alpha", "beta", "gamma", "sigma_percent",
        "lambda_percent", "eta_with_var", "tau_with_expectation", "m_with_budgets",
        "allocation_with_sizes", "alpha_with_expectation", "beta_without_alpha", "d_zero"])
def test_bad_input_exits_1_naming_the_key(body, env, key, tmp_path, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body)
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("body, key", [
    (BASE + "sigma = inf\n[estimator krr]\n", "sigma"),
    (VAR + "alpha = 5\n[estimator krr]\n", "alpha"),
    (VAR + "alpha = 0.5\nbeta = 2\n[estimator krr]\n", "beta"),
    (VAR + "alpha = 0.5\ngamma = 0.5\n[estimator krr]\n", "gamma"),
    (BASE + "alpha = 0.5\n[estimator krr]\n", "'alpha'"),
    (VAR + "beta = 0.5\n[estimator krr]\n", "'beta'"),
    (VAR + "eta = square\n[estimator krr]\n", "eta"),
    (BASE + "tau = 0.5\n[estimator krr]\n", "tau"),
    (BASE.replace("sizes = 20 40", "budgets = 1000\nm = 1") + "[estimator krr]\n", "'m'"),
    (BASE + "allocation = standard\n[estimator krr]\n", "allocation"),
], ids=["sigma_inf", "alpha", "beta", "gamma", "alpha_with_expectation", "beta_without_alpha",
        "eta_with_var", "tau_with_expectation", "m_with_budgets", "allocation_with_sizes"])
def test_rates_rejects_bad_experiment_values_before_printing(body, key, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body)
    assert main(["rates", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and key in err


class TestSlopeCommand:
    def test_matches_run_experiment(self, capsys):
        result = run_experiment(parse_config(GOLDEN_CONFIG))
        assert main(["slope", str(DATA / "golden_results.csv")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "estimator,slope,intercept,slope_stderr"
        name, slope, *_ = lines[1].split(",")
        assert name == result.slopes[0].estimator
        assert_allclose(float(slope), result.slopes[0].slope, rtol=1e-15)

    def test_missing_file_exits_1(self, capsys):
        assert main(["slope", "/nope/none.csv"]) == 1

    def test_corrupt_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["slope", str(bad)]) == 2


class TestRatesCommand:
    @pytest.mark.parametrize("stem", ["var_relu_network_d10", "inducing_sqrt_rate_d10"])
    def test_stdout_matches_snapshot(self, stem, capsys):
        config = Path(__file__).parent.parent / "configs" / f"{stem}.ini"
        assert main(["rates", str(config)]) == 0
        assert capsys.readouterr().out == (DATA / f"rates_{stem}.txt").read_text()

    def test_prints_prediction_lines(self, tmp_path, capsys):
        cfg = tmp_path / "r.ini"
        cfg.write_text("""\
[experiment]
kernel = laplace
d = 10
budgets = 1000 8000
replications = 5

[estimator krr]
[estimator inducing_krr]
[estimator relu]
""")
        assert main(["rates", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "budget=1000" in out and "n=100" in out
        assert out.count("exponent") >= 3

    def test_relu_below_smoothness_1_has_no_prediction(self, tmp_path, capsys):
        cfg = tmp_path / "r.ini"
        cfg.write_text(BASE.replace("laplace", "gaussian") + "smoothness = 0.5\n[estimator relu]\n")
        assert main(["rates", str(cfg)]) == 0
        assert "no rate prediction for kind 'relu'" in capsys.readouterr().out

    def test_var_rates_need_alpha_for_transform(self, tmp_path, capsys):
        cfg = tmp_path / "v.ini"
        cfg.write_text("""\
[experiment]
functional = var
tau = 0.95
kernel = gaussian
d = 10
sizes = 1000
alpha = 1.0

[estimator krr]
""")
        assert main(["rates", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "-0.5" in out


class TestGenCommand:
    def test_writes_loadable_files(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", GOLDEN_CONFIG, "--out", str(out), "--cell", "1"]) == 0
        surface = load_test_function(out / "test_function.txt")
        data = load_dataset(out / "dataset_c1_r0.txt")
        assert surface.kernel.family == "laplace"
        assert data.n == 80

    def test_matches_harness_data(self, tmp_path):
        from sievesim.harness import config_test_function, simulate_cell

        out = tmp_path / "gen"
        assert main(["gen", GOLDEN_CONFIG, "--out", str(out),
                     "--cell", "0", "--replication", "1"]) == 0
        config = parse_config(GOLDEN_CONFIG)
        surface = config_test_function(config)
        want = simulate_cell(config, surface, 0, 1)
        got = load_dataset(out / "dataset_c0_r1.txt")
        assert_allclose(got.scenarios, want.scenarios, rtol=0, atol=0)
        assert_allclose(got.ybar, want.ybar, rtol=0, atol=0)

    def test_cell_out_of_range_exits_1(self, tmp_path, capsys):
        assert main(["gen", GOLDEN_CONFIG, "--out", str(tmp_path),
                     "--cell", "5"]) == 1
        assert "out of range" in capsys.readouterr().err
