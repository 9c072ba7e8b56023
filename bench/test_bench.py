"""Fast checks of the benchmark: every workload at a tiny size, the
metric names and units against BENCHMARK.json, the output gates, and the
layer trace leaving ccx as it found it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_config():
    """Default taps and layer counts (so metric names match), tiny widths."""
    cfg = W.default_config()
    cfg.update({"encoder.image_size": 16, "encoder.patch_size": 8,
                "encoder.d_model": 8, "encoder.heads": 2, "enhancer.heads": 2,
                "decoder.c_model": 8, "decoder.depth": 1, "decoder.heads": 2,
                "decoder.max_len": 12})
    return cfg


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _emitted(result, units):
    line = json.loads(result.line(units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return {k: v["unit"] for k, v in line["metrics"].items()}, line


def test_declared_metrics_match_the_code():
    assert _units(SPEC["end_to_end"]) == W.END_TO_END
    assert _units(SPEC["per_layer"]) == W.layer_metrics(W.default_config())
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_plain_run_emits_every_end_to_end_metric(name, tmp_path):
    result = W.run_plain(name, tiny_config(), 1, 0.05, tmp_path, n_pairs=4)
    units, line = _emitted(result, W.END_TO_END)
    assert units == _units(SPEC["end_to_end"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert dict((n, u) for n, _, u in result.report)["failed_share"] == "share"


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = W.run_traced(name, tiny_config(), 1, 0.05, tmp_path, n_pairs=4)
    units, line = _emitted(result, W.layer_metrics(tiny_config()))
    assert units == _units(SPEC["per_layer"])
    assert line["correct"] and line["failed"] == 0
    assert result.metrics["trace.grad_max_err"] <= W.GRAD_TOL
    assert result.metrics["trace.output_max_rel_diff"] <= W.TRACE_LOSS_RTOL
    if name == "train-step":
        for layer in ("encoder", "enhancer", "bridge.project", "bridge.decoder"):
            assert result.metrics[f"{layer}.bwd_ms"] > 0


def test_trace_restores_ccx_even_after_an_error():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in layertrace.TARGETS}
    tracer = layertrace.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            assert all(vars(o)[a] is not fn for (o, a), fn in before.items())
            raise KeyError("boom")
    assert all(vars(o)[a] is fn for (o, a), fn in before.items())


def test_train_gate_catches_a_small_loss_or_gradient_error(tmp_path):
    loss, norm = W.TrainStep(tiny_config(), 1, tmp_path, n_pairs=4).op(0).value
    for expected, ok in (([loss, norm], True), ([loss * (1 + 1e-6), norm], False),
                         ([loss, norm * (1 + 1e-6)], False)):
        w = W.TrainStep(tiny_config(), 1, tmp_path, n_pairs=4)
        w.expected = [expected]
        assert w.op(0).ok is ok


def test_caption_gate_compares_ids_and_truncation(tmp_path):
    w = W.CaptionGreedy(tiny_config(), 1, tmp_path, n_pairs=4)
    ids, truncated = w.op(0).value
    w.first.clear()
    w.expected = [[ids, not truncated]]
    assert not w.op(0).ok


def test_refuses_a_checkout_without_ccx(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ckpt-metrics", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert '"correct"' not in out.stdout
