import configparser
import dataclasses
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sievesim import estimators, harness
from sievesim.estimators import ReluArchitecture, TrainConfig, fit_krr
from sievesim.functionals import FunctionalSpec, evaluate_functional
from sievesim.harness import (
    ESTIMATOR_KINDS,
    EXPERIMENT_FIELDS,
    CellStats,
    ConfigError,
    EstimatorSetting,
    ExperimentConfig,
    ExperimentResult,
    _worker_count,
    config_from_parser,
    config_test_function,
    config_theta,
    emit_results,
    enters_slope_fit,
    fit_loglog_slope,
    parse_config,
    parse_results_csv,
    run_experiment,
    simulate_cell,
    slopes_from_cells,
)
from sievesim.kernels import KernelSpec, _usable_cpus
from sievesim.synthetic import true_theta

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return path


TINY = """\
[experiment]
kernel = laplace
d = 2
centers = 30
sizes = 30 60 120
m = 2
sigma = 0.5
replications = 2
master_seed = 11
theta_eval_points = 5000
record_timing = false

[estimator sample_average]
[estimator krr]
"""


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        points = [(n, n ** -0.5) for n in (10, 100, 1000, 10_000)]
        slope, _, stderr = fit_loglog_slope(points)
        assert abs(slope - (-0.5)) < 1e-12
        assert stderr < 1e-12

    def test_constant_error(self):
        slope, _, _ = fit_loglog_slope([(10, 0.3), (100, 0.3), (1000, 0.3)])
        assert abs(slope) < 1e-14

    def test_matches_normal_equations_oracle(self):
        # Five perturbed points; the oracle solves the 2x2 normal equations
        # explicitly in log space.
        sizes = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
        errors = sizes ** -0.4 * np.array([1.1, 0.92, 1.05, 0.97, 1.01])
        slope, intercept, stderr = fit_loglog_slope(zip(sizes, errors))
        lx, le = np.log(sizes), np.log(errors)
        A = np.vstack([lx, np.ones(5)]).T
        coef = np.linalg.solve(A.T @ A, A.T @ le)
        assert_allclose([slope, intercept], coef, rtol=1e-10)
        resid = le - A @ coef
        want_se = math.sqrt(resid @ resid / 3.0 / np.sum((lx - lx.mean()) ** 2))
        assert_allclose(stderr, want_se, rtol=1e-10)

    def test_two_points_have_zero_stderr(self):
        slope, _, stderr = fit_loglog_slope([(10, 1.0), (100, 0.1)])
        assert_allclose(slope, -1.0, rtol=1e-12)
        assert stderr == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0), (20, -0.5)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0), (10, 0.5)])


class TestParseConfig:
    def test_round_trip_fields(self, tmp_path):
        config = parse_config(write_config(tmp_path, TINY))
        assert config.kernel.family == "laplace"
        assert config.kernel.dim == 2
        assert config.sizes == (30, 60, 120)
        assert config.m == 2
        assert config.replications == 2
        assert [e.kind for e in config.estimators] == ["sample_average", "krr"]
        assert config.record_timing is False

    def test_budgets_mode(self, tmp_path):
        body = TINY.replace("sizes = 30 60 120\nm = 2\n", "budgets = 1000 2000\n")
        config = parse_config(write_config(tmp_path, body))
        assert config.cells() == [(100, 10), (159, 12)]

    def test_sizes_and_budgets_conflict(self, tmp_path):
        body = TINY.replace("m = 2\n", "m = 2\nbudgets = 1000\n")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, body))

    def test_unknown_experiment_key(self, tmp_path):
        body = TINY.replace("m = 2\n", "m = 2\nturbo = yes\n")
        with pytest.raises(ConfigError, match="turbo"):
            parse_config(write_config(tmp_path, body))

    def test_unknown_estimator_kind(self, tmp_path):
        body = TINY + "[estimator spline]\n"
        with pytest.raises(ConfigError, match="spline"):
            parse_config(write_config(tmp_path, body))

    def test_unknown_estimator_option(self, tmp_path):
        body = TINY + "[estimator boosted]\nkind = krr\ndepth = 3\n"
        with pytest.raises(ConfigError, match="depth"):
            parse_config(write_config(tmp_path, body))

    def test_var_requires_tau(self, tmp_path):
        body = TINY.replace("[experiment]\n", "[experiment]\nfunctional = var\n")
        with pytest.raises(ConfigError, match="tau"):
            parse_config(write_config(tmp_path, body))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no/such"):
            parse_config("no/such/config.ini")

    def test_duplicate_estimator_names_rejected(self, tmp_path):
        # "[estimatorsample_average]" names the same estimator as
        # "[estimator sample_average]"; two sweeps under one name would be
        # pooled into one slope by slopes_from_cells.
        body = TINY + "[estimatorsample_average]\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_config(tmp_path, body))

    def test_options_parsed_once_with_defaults(self, tmp_path):
        body = TINY + "[estimator net]\nkind = relu\nhidden_widths = 8, 4\nepochs = 5\n"
        options = parse_config(write_config(tmp_path, body)).estimators[-1].options
        assert options == {"hidden_widths": (8, 4), "epochs": 5, "batch_size": None,
                           "learning_rate": 1e-3, "sparsity": None, "max_param": 1000.0}

    def test_readme_lists_every_option_of_the_kind_table(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        for kind, entry in ESTIMATOR_KINDS.items():
            for key, option in entry.options.items():
                row = f"| `{kind}` | `{key}` | `{option.default}` | {option.accepts} |"
                assert row in readme.splitlines()

    def test_readme_lists_every_experiment_key_with_its_field_default(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
        for key in [*harness.SPEC_KEYS, *EXPERIMENT_FIELDS]:
            assert any(line.startswith(f"| `{key}` | ") for line in readme), key
        for key, entry in EXPERIMENT_FIELDS.items():
            default = ExperimentConfig.__dataclass_fields__[key].default
            shown = ("unset" if default is None
                     else f"`{str(default).lower() if isinstance(default, bool) else default}`")
            assert f"| `{key}` | {shown} | {entry.accepts} |" in readme

    def test_omitted_keys_keep_the_dataclass_defaults(self):
        parser = configparser.ConfigParser()
        parser.read_string("[experiment]\nd = 2\nbudgets = 100\n[estimator krr]\n")
        config = config_from_parser(parser)
        for key in EXPERIMENT_FIELDS:
            if key != "budgets":
                want = ExperimentConfig.__dataclass_fields__[key].default
                assert getattr(config, key) == want, key

    @pytest.mark.parametrize("key, raw", [
        ("sigma", "nan"), ("sigma", "-0.5"), ("alpha", "0"), ("gamma", "inf"),
        ("smoothness", "0"), ("m", "0"), ("master_seed", "-1"), ("evaluation", "test"),
        ("record_timing", "maybe"), ("allocation", "bogus"),
    ])
    def test_out_of_range_value_names_the_key(self, key, raw):
        parser = configparser.ConfigParser()
        parser.read_string(f"[experiment]\nd = 2\nsizes = 30\n{key} = {raw}\n[estimator krr]\n")
        with pytest.raises(ConfigError, match=f"bad value {key} = '{raw}'"):
            config_from_parser(parser)

    @pytest.mark.parametrize("field, value", [
        ("sigma", math.inf), ("alpha", 5.0), ("beta", 2.0), ("gamma", 0.5),
        ("replications", 0), ("master_seed", -1), ("evaluation", "test"),
        ("allocation", "bogus"), ("m", 1.5), ("sizes", (40.5,)), ("master_seed", 1.5),
        ("replications", True),
        # Only a field whose default is None may be None, and record_timing is a bool.
        ("sigma", None), ("replications", None), ("centers", None), ("m", None),
        ("master_seed", None), ("evaluation", None), ("beta", None), ("record_timing", "false"),
        ("record_timing", 1), ("sigma", "1.0"), ("smoothness", "2"), ("sizes", 5),
    ])
    def test_replace_applies_the_same_range_rule(self, tmp_path, field, value):
        config = parse_config(write_config(tmp_path, TINY))
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            dataclasses.replace(config, **{field: value})

    @pytest.mark.parametrize("path, key, value", [
        ("configs/standard_rate_d1.ini", "m", 7),
        ("configs/var_ordering_d10.ini", "allocation", "smooth"),
        ("tests/data/golden_config.ini", "alpha", 0.5),
        ("configs/var_ordering_d10.ini", "beta", 0.5),
    ])
    def test_replace_applies_the_same_mode_rule(self, path, key, value):
        config = parse_config(Path(__file__).parent.parent / path)
        with pytest.raises(ConfigError, match=f"experiment key '{key}' is only read with"):
            dataclasses.replace(config, **{key: value})

    @pytest.mark.parametrize("line, key", [
        ("m = 1", "m"), ("beta = 1.0", "beta"), ("gamma = 1", "gamma"),
    ])
    def test_unread_key_is_rejected_at_its_default(self, line, key):
        parser = configparser.ConfigParser()
        parser.read_string(f"[experiment]\nd = 2\nbudgets = 100\n{line}\n[estimator krr]\n")
        with pytest.raises(ConfigError, match=f"experiment key '{key}' is only read with"):
            config_from_parser(parser)

    @pytest.mark.parametrize("kind, line", [
        ("krr", "lambda = -1"), ("relu", "epochs = 0"), ("inducing_krr", "ridge = nan"),
    ])
    def test_out_of_range_option_fails_when_read(self, kind, line):
        parser = configparser.ConfigParser()
        parser.read_string(f"[experiment]\nd = 2\nsizes = 30\n[estimator {kind}]\n{line}\n")
        key, raw = line.split(" = ")
        with pytest.raises(ConfigError, match=(rf"^section \[estimator {kind}\]: "
                                               rf"bad value {key} = '{raw}'; expected ")):
            config_from_parser(parser)

    def test_estimator_name_with_comma_rejected_in_python(self):
        with pytest.raises(ConfigError, match="a,b"):
            EstimatorSetting("a,b", "sample_average", {})

    @pytest.mark.parametrize("kind, options, match", [
        ("bogus", {}, "unknown kind 'bogus'"),
        ("krr", {"depth": 3}, r"unknown options \['depth'\]"),
    ])
    def test_unknown_kind_or_option_rejected_in_python(self, kind, options, match):
        with pytest.raises(ConfigError, match=match):
            EstimatorSetting("x", kind, options)

    @pytest.mark.parametrize("kind, options, key", [
        ("krr", {"lambda": -1.0}, "lambda"),
        ("krr", {"lambda": "bogus"}, "lambda"),
        ("krr", {"jitter": float("nan")}, "jitter"),
        ("inducing_krr", {"schedule": 0}, "schedule"),
        ("inducing_krr", {"selection": "nearest"}, "selection"),
        ("inducing_krr", {"ridge": -1e-3}, "ridge"),
        ("relu", {"epochs": 0}, "epochs"),
        ("relu", {"epochs": 2.5}, "epochs"),
        ("relu", {"hidden_widths": "8 4"}, "hidden_widths"),
        ("relu", {"hidden_widths": ()}, "hidden_widths"),
        ("relu", {"batch_size": True}, "batch_size"),
        ("relu", {"learning_rate": 0.0}, "learning_rate"),
        ("relu", {"sparsity": 0}, "sparsity"),
        ("relu", {"max_param": -1.0}, "max_param"),
    ])
    def test_python_built_option_obeys_the_file_rule(self, kind, options, key):
        with pytest.raises(ConfigError, match=f"^estimator 'x' \\({kind}\\): {key} must be "):
            EstimatorSetting("x", kind, options)

    @pytest.mark.parametrize("kind", sorted(ESTIMATOR_KINDS))
    def test_every_default_and_keyword_obeys_its_rule(self, kind):
        for key, option in ESTIMATOR_KINDS[kind].options.items():
            for value in (option.parse(option.default), *option.words.values()):
                assert EstimatorSetting("x", kind, {key: value}).options[key] == value

    @pytest.mark.parametrize("path, field", [
        ("tests/data/golden_config.ini", "sizes"),
        ("configs/standard_rate_d1.ini", "budgets"),
    ])
    def test_replace_rejects_an_empty_sweep(self, path, field):
        config = parse_config(Path(__file__).parent.parent / path)
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            dataclasses.replace(config, **{field: ()})

    def test_python_built_setting_gets_every_default(self):
        assert EstimatorSetting("k", "krr").options == {"lambda": "default", "jitter": 1e-10}
        relu = EstimatorSetting("r", "relu", {"epochs": 5}).options
        arch, train = ReluArchitecture(), TrainConfig()
        assert relu == {"hidden_widths": arch.hidden_widths, "epochs": 5,
                        "batch_size": train.batch_size, "learning_rate": train.learning_rate,
                        "sparsity": arch.sparsity, "max_param": arch.max_param}

    def test_python_built_setting_runs_like_the_file_one(self, tmp_path):
        from_file = parse_config(write_config(tmp_path, TINY))
        built = dataclasses.replace(from_file, estimators=(
            EstimatorSetting("sample_average", "sample_average"), EstimatorSetting("krr", "krr")))
        assert built == from_file
        assert run_experiment(built).cells == run_experiment(from_file).cells

    @pytest.mark.parametrize("raw, want", [
        ("true", True), ("Yes", True), ("ON", True), ("1", True),
        ("false", False), ("no", False), ("Off", False), ("0", False),
    ])
    def test_record_timing_takes_every_configparser_boolean(self, tmp_path, raw, want):
        body = TINY.replace("record_timing = false", f"record_timing = {raw}")
        assert parse_config(write_config(tmp_path, body)).record_timing is want

    def test_named_sections_give_distinct_estimators(self, tmp_path):
        body = TINY + "[estimator wide_net]\nkind = relu\nepochs = 5\n"
        config = parse_config(write_config(tmp_path, body))
        assert config.estimators[-1].name == "wide_net"
        assert config.estimators[-1].kind == "relu"


class TestRunExperiment:
    def test_cell_grid_and_determinism(self, tmp_path):
        config = parse_config(write_config(tmp_path, TINY))
        a = run_experiment(config)
        b = run_experiment(config)
        assert len(a.cells) == 6
        for ca, cb in zip(a.cells, b.cells):
            assert ca == cb
        assert a.slopes == b.slopes

    def test_threaded_run_matches_sequential(self, tmp_path, monkeypatch):
        # The relu fits (n = 30 and 120 are not multiples of the batch of 16)
        # each train with buffers of their own, so workers share none.
        body = TINY + "[estimator relu]\nhidden_widths = 8 4\nepochs = 3\nbatch_size = 16\n"
        config = parse_config(write_config(tmp_path, body))
        seq = run_experiment(config)
        monkeypatch.setenv("SIEVESIM_THREADS", "4")
        par = run_experiment(config)
        assert seq.cells == par.cells

    def test_thread_count_is_capped_without_starting_threads(self, monkeypatch):
        monkeypatch.setenv("SIEVESIM_THREADS", str(10**6))
        assert _worker_count() == _usable_cpus()
        monkeypatch.setenv("SIEVESIM_THREADS", "1")
        assert _worker_count() == 1
        monkeypatch.delenv("SIEVESIM_THREADS")
        assert _worker_count() == 1

    def test_thread_count_is_capped_at_the_usable_cpus(self, monkeypatch):
        # The CPUs this process may run on, not every CPU of the machine.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("SIEVESIM_THREADS", "2")
        assert _worker_count() == 2
        monkeypatch.setenv("SIEVESIM_THREADS", "64")
        assert _worker_count() == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_aborting_fit_cancels_the_queued_cells(self, tmp_path, monkeypatch, threads):
        # The first fit aborts the run; each other fit takes 20 ms, so the 40 cells
        # would take most of a second if the queued ones were not cancelled.
        monkeypatch.setenv("SIEVESIM_THREADS", threads)
        config = parse_config(write_config(
            tmp_path, TINY.replace("replications = 2", "replications = 40")
                          .replace("sizes = 30 60 120", "sizes = 30")
                          .replace("[estimator krr]\n", "")))
        calls, lock, fit = [], threading.Lock(), estimators.fit_sample_average

        def fit_or_abort(data):
            with lock:
                calls.append(None)
                first = len(calls) == 1
            if first:
                raise ValueError("abort")
            time.sleep(0.02)
            return fit(data)

        monkeypatch.setattr(estimators, "fit_sample_average", fit_or_abort)
        with pytest.raises(RuntimeError, match="failed at n=30"):
            run_experiment(config)
        assert len(calls) < 10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2), st.data())
    def test_replication_data_isolated_by_seed(self, total_a, total_b, size_index, data):
        # The dataset at (size, replication) depends only on the master seed
        # and those two indices, never on the replication total.
        parser = configparser.ConfigParser()
        parser.read_string(TINY)
        config = config_from_parser(parser)
        r = data.draw(st.integers(0, min(total_a, total_b) - 1), label="replication")
        a_config = dataclasses.replace(config, replications=total_a)
        b_config = dataclasses.replace(config, replications=total_b)
        surface = config_test_function(config)
        a = simulate_cell(a_config, surface, size_index, r)
        b = simulate_cell(b_config, surface, size_index, r)
        assert np.array_equal(a.scenarios, b.scenarios)
        assert np.array_equal(a.ybar, b.ybar)
        other = simulate_cell(a_config, surface, size_index, r + 1)
        assert not np.allclose(a.ybar, other.ybar)

    def test_statistics_match_two_pass_oracle(self, tmp_path):
        # Recompute every replication error by hand and compare the
        # aggregated mean and unbiased standard deviation.
        body = TINY.replace("[estimator sample_average]\n", "")
        config = parse_config(write_config(tmp_path, body))
        result = run_experiment(config)
        surface = config_test_function(config)
        theta = config_theta(config)
        from sievesim.estimators import default_regularization

        for si, (n, m) in enumerate(config.cells()):
            errs = []
            for r in range(config.replications):
                data = simulate_cell(config, surface, si, r)
                fitted = fit_krr(data, config.kernel,
                                 default_regularization(config.kernel, n))
                est = evaluate_functional(fitted.predict(data.scenarios),
                                          config.functional)
                errs.append(abs(est - theta.value))
            cell = result.get_cell("krr", n)
            assert_allclose(cell.mean_abs_error, np.mean(errs), rtol=1e-12)
            assert_allclose(cell.std_abs_error, np.std(errs, ddof=1), rtol=1e-12)

    def test_noiseless_identity_estimate_is_pure_mc(self, tmp_path):
        # With sigma=0, interpolating KRR, and the identity functional the
        # plug-in is the sample mean of true surface values, so its error is
        # Monte Carlo error alone (plus the reference's own).
        body = """\
[experiment]
eta = identity
kernel = laplace
d = 2
centers = 30
sizes = 512
sigma = 0.0
replications = 8
master_seed = 3
theta_eval_points = 200000

[estimator krr]
lambda = 1e-10
"""
        config = parse_config(write_config(tmp_path, body))
        result = run_experiment(config)
        surface = config_test_function(config)
        probe = surface(np.random.default_rng(0).random((4000, 2)))
        sd = probe.std()
        bound = 3.0 * sd / math.sqrt(512) + 3.0 * sd / math.sqrt(200_000)
        assert result.cells[0].mean_abs_error <= bound

    # Every worker starts from the caller's np.errstate, so the overflows count as
    # failed fits at any worker count, also under -W error.
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fit_failures_invalidate_cells_not_runs(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("SIEVESIM_THREADS", threads)
        body = TINY + """\
[estimator exploding]
kind = relu
epochs = 10
learning_rate = 1e80
max_param = inf
"""
        config = parse_config(write_config(tmp_path, body))
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(config)
        bad = [c for c in result.cells if c.estimator == "exploding"]
        assert all(c.replications == 0 for c in bad)
        assert all(math.isnan(c.mean_abs_error) for c in bad)
        assert any("exploding" in w for w in result.warnings)
        assert not any(s.estimator == "exploding" for s in result.slopes)
        good = result.get_cell("sample_average", 30)
        assert math.isfinite(good.mean_abs_error)

    def test_records_fold_into_cells_and_warnings(self, tmp_path, monkeypatch):
        body = TINY + ("[estimator exploding]\nkind = relu\nepochs = 10\nlearning_rate = 1e80\n"
                       "max_param = inf\n")
        config = parse_config(write_config(tmp_path, body))
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(config)
        names = [setting.name for setting in config.estimators]
        jobs = [(si, r, name) for si in range(3) for r in range(2) for name in names]
        assert [(record.size_index, record.replication, record.estimator)
                for record in result.records] == jobs
        for si, (n, _) in enumerate(config.cells()):
            for name in names:
                fitted = [record for record in result.records if record.size_index == si
                          and record.estimator == name and record.error is not None]
                assert result.get_cell(name, n).replications == len(fitted)
        failures = [record.failure for record in result.records if record.failure]
        assert len(failures) == 6 and all(f.startswith("exploding at n=") for f in failures)
        assert list(result.warnings[:len(failures)]) == failures
        assert result.get_cell("exploding", 30).replications == 0
        monkeypatch.setenv("SIEVESIM_THREADS", "2")
        with np.errstate(over="ignore", invalid="ignore"):
            threaded = run_experiment(config)
        assert ([record._replace(seconds=0.0) for record in threaded.records]
                == [record._replace(seconds=0.0) for record in result.records])

    def test_blown_up_relu_fits_are_counted_failures(self, tmp_path):
        # learning_rate = 1e6 keeps every loss finite, but the fits land
        # around 1e10 off the data; they count as failed replications
        # instead of cells with absurd errors.
        body = TINY.replace("[estimator krr]\n",
                            "[estimator relu]\nepochs = 20\nlearning_rate = 1e6\n")
        config = parse_config(write_config(tmp_path, body))
        result = run_experiment(config)
        relu = [c for c in result.cells if c.estimator == "relu"]
        assert [c.replications for c in relu] == [0, 0, 0]
        assert sum("ybar range" in w for w in result.warnings) == 6
        assert all(c.replications == 2 for c in result.cells if c.estimator != "relu")

    def test_too_few_valid_cells_warned_after_the_excluded_ones(self, tmp_path):
        # At learning rate 1 the two smallest relu cells diverge in every
        # replication, leaving two cells for a four-size slope fit.
        body = TINY.replace("sizes = 30 60 120", "sizes = 30 60 120 240").replace(
            "[estimator krr]\n", "[estimator relu]\nepochs = 20\nlearning_rate = 1\n")
        result = run_experiment(parse_config(write_config(tmp_path, body)))
        fit_failures = [w for w in result.warnings if w.startswith("relu at n=")]
        assert list(result.warnings[len(fit_failures):]) == [
            "relu: every replication failed at n=30",
            "relu: cell n=30 excluded from slope fit (mean error nan)",
            "relu: every replication failed at n=60",
            "relu: cell n=60 excluded from slope fit (mean error nan)",
            "relu: too few valid cells for a slope fit",
        ]
        assert [s.estimator for s in result.slopes] == ["sample_average"]

    def test_wall_time_recorded_when_enabled(self, tmp_path):
        body = TINY.replace("record_timing = false", "record_timing = true")
        config = parse_config(write_config(tmp_path, body))
        result = run_experiment(config)
        assert all(c.wall_time_s > 0.0 for c in result.cells)


class TestThetaMemo:
    @pytest.fixture
    def built(self, monkeypatch):
        """Count the surfaces built and references computed, from empty memos."""
        counts = {"surface": 0, "theta": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(harness, "make_test_function",
                            counting("surface", harness.make_test_function))
        monkeypatch.setattr(harness, "true_theta", counting("theta", true_theta))
        harness._test_function.cache_clear()
        harness._theta.cache_clear()
        yield counts
        harness._test_function.cache_clear()
        harness._theta.cache_clear()

    def test_warm_reference_equals_cold(self, tmp_path, built):
        config = parse_config(write_config(tmp_path, TINY))
        warm = config_theta(config)
        assert config_theta(config) is warm
        harness._test_function.cache_clear()
        harness._theta.cache_clear()
        cold = config_theta(config)
        assert cold is not warm and cold == warm
        assert built == {"surface": 2, "theta": 2}

    @pytest.mark.parametrize("before, after, new_surface", [
        ({}, {"kernel": KernelSpec("gaussian", 2)}, True),
        ({}, {"kernel": KernelSpec("laplace", 3)}, True),
        ({"kernel": KernelSpec("matern", 2, nu=1.5)},
         {"kernel": KernelSpec("matern", 2, nu=2.5)}, True),
        ({}, {"centers": 31}, True),
        ({}, {"master_seed": 12}, True),
        ({}, {"theta_eval_points": 5001}, False),
        ({}, {"functional": FunctionalSpec.value_at_risk(0.5)}, False),
        ({}, {"functional": FunctionalSpec.expectation("identity")}, False),
        ({"functional": FunctionalSpec.value_at_risk(0.5)},
         {"functional": FunctionalSpec.value_at_risk(0.9)}, False),
    ])
    def test_each_key_field_gives_a_fresh_reference(self, tmp_path, built,
                                                    before, after, new_surface):
        config = dataclasses.replace(parse_config(write_config(tmp_path, TINY)), **before)
        base = config_theta(config)
        other = config_theta(dataclasses.replace(config, **after))
        assert other.value != base.value
        assert built == {"surface": 1 + new_surface, "theta": 2}

    def test_configs_on_one_surface_share_one_reference(self, tmp_path, built):
        first = parse_config(write_config(tmp_path, TINY))
        body = TINY.replace("sizes = 30 60 120\n", "sizes = 40 80\n")
        body = body.replace("[estimator sample_average]\n[estimator krr]\n",
                            "[estimator krr]\nlambda = 1e-3\n")
        second = parse_config(write_config(tmp_path, body))
        a, b = run_experiment(first), run_experiment(second)
        assert built == {"surface": 1, "theta": 1}
        assert a.theta is b.theta


class TestEmission:
    def test_empty_result_is_header_only(self, tmp_path):
        theta = config_theta(parse_config(DATA / "golden_config.ini"))
        empty = ExperimentResult(cells=(), slopes=(), theta=theta)
        paths = emit_results(empty, fmt="csv", path=tmp_path / "empty.csv")
        assert paths[0].read_text() == (
            "estimator,n,m,replications,mean_abs_error,std_abs_error,"
            "wall_time_s\n")
        assert paths[1].read_text() == "estimator,slope,intercept,slope_stderr\n"

    def test_csv_round_trip(self, tmp_path):
        config = parse_config(DATA / "golden_config.ini")
        result = run_experiment(config)
        path = tmp_path / "res.csv"
        emit_results(result, fmt="csv", path=path)
        back = parse_results_csv(path)
        assert tuple(back) == result.cells

    def test_json_mirrors_cells(self, tmp_path):
        import json

        config = parse_config(DATA / "golden_config.ini")
        result = run_experiment(config)
        path = tmp_path / "res.json"
        emit_results(result, fmt="json", path=path)
        doc = json.loads(path.read_text())
        assert len(doc["cells"]) == len(result.cells)
        assert doc["cells"][0]["mean_abs_error"] == result.cells[0].mean_abs_error
        assert doc["slopes"][0]["slope"] == result.slopes[0].slope

    def test_golden_bytes(self, tmp_path):
        """The frozen config reproduces the recorded output byte for byte.

        Pins the whole pipeline: seed derivation, simulation, estimation,
        aggregation, and 17-digit formatting.  Regenerate the fixtures by
        rerunning emit_results on tests/data/golden_config.ini if the seed
        layout ever changes deliberately.
        """
        config = parse_config(DATA / "golden_config.ini")
        result = run_experiment(config)
        paths = emit_results(result, fmt="csv", path=tmp_path / "golden.csv")
        assert paths[0].read_bytes() == (DATA / "golden_results.csv").read_bytes()
        assert paths[1].read_bytes() == (DATA / "golden_results_slopes.csv").read_bytes()

    @pytest.mark.parametrize("mean, enters", [
        (0.25, True), (1e-300, True), (0.0, False), (-0.25, False),
        (math.nan, False), (math.inf, False),
    ])
    def test_slope_fit_takes_finite_positive_means(self, mean, enters):
        cells = [CellStats("e", n, 1, 2, mean if n == 40 else 1.0 / n, 0.0, 0.0)
                 for n in (10, 20, 40)]
        assert enters_slope_fit(cells[2]) is enters
        assert len(slopes_from_cells(cells)) == int(enters)

    def test_refit_slopes_from_csv_match(self):
        config = parse_config(DATA / "golden_config.ini")
        result = run_experiment(config)
        refit = slopes_from_cells(parse_results_csv(DATA / "golden_results.csv"))
        assert len(refit) == len(result.slopes)
        for a, b in zip(refit, result.slopes):
            assert a.estimator == b.estimator
            assert_allclose(a.slope, b.slope, rtol=1e-15)

    def test_estimator_golden_bytes(self, tmp_path):
        """Every estimator kind, the var functional and fresh evaluation,
        pinned byte for byte in CSV, slope CSV and JSON."""
        result = run_experiment(parse_config(DATA / "golden_estimators.ini"))
        paths = emit_results(result, fmt="csv", path=tmp_path / "golden.csv")
        assert paths[0].read_bytes() == (DATA / "golden_estimators_results.csv").read_bytes()
        assert paths[1].read_bytes() == (
            DATA / "golden_estimators_results_slopes.csv").read_bytes()
        (json_path,) = emit_results(result, fmt="json", path=tmp_path / "golden.json")
        assert json_path.read_bytes() == (DATA / "golden_estimators_results.json").read_bytes()
