"""Tests of the benchmark itself, at tiny scale (one replication, small theta)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _repetition(tmp_path: Path, name: str, seed: int, traced: bool, tag: str) -> dict:
    configs = []
    for stem, text in workloads.render(workloads.WORKLOADS[name], seed, tiny=True).items():
        path = tmp_path / f"{stem}.ini"
        path.write_text(text)
        configs.append(path)
    doc = run.run_repetition(configs, tmp_path / tag, traced, timeout=120)
    assert doc is not None, "repetition did not finish"
    return doc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_tracing_keeps_csv_bytes(tmp_path, name):
    seed = workloads.WORKLOADS[name].default_seed
    plain = _repetition(tmp_path, name, seed, False, "plain")
    traced = _repetition(tmp_path, name, seed, True, "traced")
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["csv_sha256"] == traced["csv_sha256"]
    assert all(c["master_seed"] == seed for c in plain["configs"])
    failed, problems = run.evaluate([(False, plain), (True, traced)])
    assert (failed, problems) == (0, [])

    for k, (_, start, end, parent, _, _) in enumerate(traced["spans"]):
        assert start <= end
        if parent >= 0:
            assert parent < k
            assert traced["spans"][parent][1] <= start and end <= traced["spans"][parent][2]
    child = [0.0] * len(traced["spans"])
    for _, start, end, parent, _, _ in traced["spans"]:
        if parent >= 0:
            child[parent] += end - start
    assert all(end - start - child[k] >= 0.0
               for k, (_, start, end, *_rest) in enumerate(traced["spans"]))
    values = run.layer_values(spans.summarize(traced["spans"]))
    assert set(values) | {"trace_overhead_s"} == set(run.LAYER_METRICS)
    assert values["harness.run_experiment.s"] > 0 and values["kernels.kernel_matrix.entries"] > 0
    assert (values["network.loss_and_grad.calls"] > 0) == (name == "relu_var_d10")


def test_counts_repeat_exactly_on_a_nondefault_seed(tmp_path):
    docs = [_repetition(tmp_path, "relu_var_d10", 7, True, f"traced{k}") for k in range(2)]
    counts = [run.layer_values(spans.summarize(d["spans"])) for d in docs]
    for key in ("kernels.kernel_matrix.entries", "network.loss_and_grad.calls"):
        assert counts[0][key] == counts[1][key] > 0
    assert docs[0]["csv_sha256"] == docs[1]["csv_sha256"]
    assert all(d["problems"] == [] for d in docs)


def test_differing_csv_bytes_fail_a_repetition(tmp_path):
    doc = _repetition(tmp_path, "small_cells_d1", 3, False, "plain")
    other = json.loads(json.dumps(doc))
    other["csv_sha256"]["standard_rate_d1.csv"] = "0" * 64
    failed, problems = run.evaluate([(False, doc), (False, doc), (False, other), (False, None)])
    assert failed == 2
    assert any("CSV bytes differ" in p for p in problems)


def test_tracer_wraps_every_binding_once_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import sievesim
    from sievesim import estimators, harness, kernels, network, synthetic

    originals = (synthetic.true_theta, kernels.kernel_matrix, network.ReluNetwork.loss_and_grad)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.true_theta is synthetic.true_theta is sievesim.true_theta
        assert harness.true_theta is not originals[0]
        assert estimators.kernel_matrix is synthetic.kernel_matrix is kernels.kernel_matrix
        assert kernels.kernel_matrix is not originals[1]
        net = network.ReluNetwork([2, 3, 1], seed=0)
        net.loss_and_grad([[0.1, 0.2]], [1.0])
        kernels.gram(kernels.KernelSpec.gaussian(2), [[0.0, 0.0], [1.0, 1.0]])
    finally:
        tracer.uninstall()
    assert (synthetic.true_theta, kernels.kernel_matrix,
            network.ReluNetwork.loss_and_grad) == originals
    assert harness.true_theta is originals[0]
    summary = spans.summarize(tracer.spans)
    assert summary["network.loss_and_grad"]["calls"] == 1
    assert summary["kernels.kernel_matrix"]["calls"] == 1
    assert summary["kernels.kernel_matrix"]["count"] == 4


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.LAYER_METRICS.items()}
