import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sievesim import cli
from sievesim.cli import main
from sievesim.harness import parse_config, parse_results_csv, run_experiment
from sievesim.synthetic import load_dataset, load_test_function

DATA = Path(__file__).parent / "data"
GOLDEN_CONFIG = str(DATA / "golden_config.ini")
SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))


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
    (BASE.replace("sizes = 20 40", "sizes = 3 4 6") + "[estimator krr]\nlambda = cv\n", {},
     "sizes: estimator 'krr' (krr) needs n >= 5"),
    # A budget of 8 gives n = 4 scenarios under the standard allocation.
    (BASE.replace("sizes = 20 40", "budgets = 8 1000") + "[estimator krr]\nlambda = cv\n", {},
     "budgets: estimator 'krr' (krr) needs n >= 5"),
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
], ids=["selection", "epochs", "lambda", "sigma", "budgets", "inducing_n1", "cv_sizes_n3",
        "cv_budgets_n4", "duplicate_name",
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


@pytest.mark.parametrize("command", ["run", "rates", "gen"])
def test_config_that_is_not_utf8_text_exits_1_naming_the_file(command, tmp_path, capsys):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes((BASE + "# caf\xe9\n[estimator krr]\n").encode("latin-1"))
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse config {cfg}: ") and "utf-8" in err


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


def test_unknown_eta_error_line_is_the_message(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE + "eta = bogus\n[estimator krr]\n")
    assert main(["rates", str(cfg)]) == 1
    assert capsys.readouterr().err == ("error: bad config value: unknown eta 'bogus'; "
                                       "registered names: ['exp_clipped', 'identity', 'square']\n")


@pytest.mark.parametrize("command", ["run", "rates", "gen", "slope"])
def test_a_directory_in_place_of_the_input_file_exits_1_naming_it(command, tmp_path, capsys):
    argv = [command, str(tmp_path)]
    if command == "gen":
        argv += ["--out", str(tmp_path / "gen")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("command, flags, out, dirs, files, bad", [
    ("run", [], "o", ["o"], [], "o"),
    ("run", [], "nodir/x.csv", [], [], "nodir"),
    ("run", [], "s.csv", ["s_slopes.csv"], [], "s_slopes.csv"),
    ("run", ["--format", "json"], "s.json", ["s_slopes.json"], [], None),
    ("gen", [], "afile", [], ["afile"], "afile"),
    ("gen", [], "afile/sub", [], ["afile"], "afile/sub"),
    ("gen", [], "d", ["d/test_function.txt"], [], "d/test_function.txt"),
    ("gen", [], "d", ["d/dataset_c0_r0.txt"], [], "d/dataset_c0_r0.txt"),
], ids=["run_out_is_a_directory", "run_out_directory_missing", "run_slopes_sibling_is_a_directory",
        "run_json_writes_no_sibling", "gen_out_is_a_file", "gen_out_is_below_a_file",
        "gen_function_file_is_a_directory", "gen_dataset_file_is_a_directory"])
def test_every_output_path_is_checked_before_any_work(command, flags, out, dirs, files, bad,
                                                      tmp_path, capsys, monkeypatch):
    # A bad path exits 1 naming it, before the sweep or the surface is built, and
    # writes nothing; a path that the format does not write is not checked.
    called = []
    for name in ("run_experiment", "config_test_function"):
        def spy(*args, name=name, real=getattr(cli, name)):
            called.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, spy)
    for d in dirs:
        (tmp_path / d).mkdir(parents=True)
    for f in files:
        (tmp_path / f).touch()
    before = sorted(tmp_path.rglob("*"))
    code = main([command, GOLDEN_CONFIG, *flags, "--out", str(tmp_path / out)])
    if bad is None:
        assert code == 0 and (tmp_path / out).is_file()
        return
    assert code == 1
    assert str(tmp_path / bad) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert called == []


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

    @pytest.mark.parametrize("row, message", [
        (b"krr,20,1,2,0.1\n", "line 3: 5 fields, the header names 7"),
        (b"krr,x,1,2,0.1,0.01,0\n", "line 3: field n: invalid literal for int()"),
        (b"krr,20,1,2,0.1,0.01,0,9\n", "line 3: 8 fields, the header names 7"),
        (b"krr,20,1,2,0.1,\xff,0\n", "line 3: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["too_few_fields", "bad_int", "too_many_fields", "undecodable_byte"])
    def test_malformed_row_exits_2_naming_file_line_and_field(self, tmp_path, capsys, row,
                                                              message):
        lines = (DATA / "golden_results.csv").read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(lines[0] + lines[1] + row + b"".join(lines[2:]))
        assert main(["slope", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"failed: {bad}, {message}"), err


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

    # Replacement values: non-finite, out-of-range and malformed numbers, an empty
    # value, and keyword values in the wrong key.
    VALUES = ["nan", "inf", "-inf", "1e400", "1e-400", "%", "-0", "0", "-1", "0.5",
              "99999999999", "0x10", "1_000", "١", "²", "", "-", "1 2", "laplace", "gaussian",
              "matern", "var", "square", "cv", "random", "farthest", "train", "fresh",
              "experiment", "true", "none"]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(config=st.sampled_from(SHIPPED_CONFIGS), data=st.data())
    def test_a_shipped_config_with_one_value_replaced_exits_0_or_1(self, config, data):
        text = config.read_text()
        values = list(re.finditer(r"^[^#;\[\s][^=\n]*=[ \t]*(.*)$", text, re.MULTILINE))
        value = data.draw(st.sampled_from(values))
        new = data.draw(st.sampled_from(self.VALUES))
        mutated = text[: value.start(1)] + new + text[value.end(1) :]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / config.name
            path.write_text(mutated, encoding="utf-8")
            assert main(["rates", str(path)]) in (0, 1)


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
