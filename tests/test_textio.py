"""The v1 columnar files' input contract: a file loads, or it raises ``ValueError``
naming the file."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievesim.estimators import load_estimator, save_estimator
from sievesim.synthetic import load_dataset, load_test_function

V1_FILES = Path(__file__).parent / "data" / "v1"
LOADERS = {"dataset": load_dataset, "test_function_matern": load_test_function,
           **{kind: load_estimator for kind in ("sample_average", "krr", "inducing_krr", "relu")}}

# Replacement tokens: non-finite and out-of-range numbers, forms that Python's int or
# float reads and loadtxt may not, punctuation, an empty token and words of the format.
TOKENS = ["nan", "inf", "-inf", "1e400", "1e-400", "-0", "0", "-1", "2", "99999999", "0.5",
          "-", "", "abc", "0x10", "1_000", "١", "²", "#", "=", "1,2", "dim", "n",
          "krr", "relu", "laplace", "matern", "v1", "sievesim"]


def test_no_committed_v1_file_holds_a_non_finite_number():
    for name in LOADERS:
        body = (V1_FILES / f"{name}.txt").read_text().splitlines()[3:]
        assert np.isfinite(np.loadtxt(body, ndmin=2)).all(), name


@pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_a_non_finite_number_names_the_file_and_its_line(name, token, tmp_path):
    lines = (V1_FILES / f"{name}.txt").read_text().splitlines(keepends=True)
    lines[-1] = " ".join([token, *lines[-1].split()[1:]]) + "\n"
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {len(lines)}: "
                                         "a number that is not finite$"):
        LOADERS[name](path)


@pytest.mark.parametrize("name, field", [
    ("dataset", "sigma=nan"), ("test_function_matern", "lengthscale=inf"),
    ("test_function_matern", "norm_sq=nan"), ("krr", "lam=nan"), ("relu", "max_param=nan"),
    ("relu", "max_param=-inf"),
])
def test_a_non_finite_header_float_names_the_file_and_the_field(name, field, tmp_path):
    key = field.split("=")[0]
    path = tmp_path / f"{name}.txt"
    path.write_text(re.sub(rf" {key}=\S+", f" {field}", (V1_FILES / f"{name}.txt").read_text(), 1))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the header's "
                                         f"{re.escape(field)} is not finite$"):
        LOADERS[name](path)


def test_a_relu_max_param_of_inf_loads_and_resaves_byte_for_byte(tmp_path):
    # inf is the documented "no bound" on a ReLU sieve's weights.
    path = tmp_path / "relu.txt"
    path.write_text((V1_FILES / "relu.txt").read_text().replace(" max_param=5", " max_param=inf"))
    est = load_estimator(path)
    assert est.architecture.max_param == math.inf
    save_estimator(est, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_the_line_of_a_non_finite_number_counts_blank_and_comment_lines(tmp_path):
    lines = (V1_FILES / "dataset.txt").read_text().splitlines(keepends=True)
    lines[4:4] = ["\n", "# a comment\n"]
    lines[6] = lines[6].replace(lines[6].split()[0], "nan", 1)
    path = tmp_path / "dataset.txt"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 7: "):
        load_dataset(path)


def test_a_relu_dim_beyond_memory_is_refused_before_the_network_is_built(tmp_path):
    path = tmp_path / "relu.txt"
    path.write_text((V1_FILES / "relu.txt").read_text().replace("dim=2 ", f"dim={10**12} ", 1))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the header's "
                                         f"dim={10**12} and hidden=4,3 give "):
        load_estimator(path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_a_header_without_rows_names_the_file(name, tmp_path):
    # A relu header gives no row count, so only this check refuses its empty body.
    path = tmp_path / f"{name}.txt"
    path.write_text("".join((V1_FILES / f"{name}.txt").read_text().splitlines(True)[:3]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the body has 0 rows$"):
        LOADERS[name](path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_a_file_with_one_token_replaced_loads_or_names_the_file(name, data):
    text = (V1_FILES / f"{name}.txt").read_text()
    # A header field's key and value are a token each.
    token = data.draw(st.sampled_from(list(re.finditer(r"[^\s=]+", text))))
    mutated = text[: token.start()] + data.draw(st.sampled_from(TOKENS)) + text[token.end() :]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.txt"
        path.write_text(mutated, encoding="utf-8")
        try:
            LOADERS[name](path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
