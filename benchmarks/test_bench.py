"""Self-test of the benchmark at toy sizes (a few seconds in all).

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the three workload shapes, shrunk: same block structure and densities
# scaled so that every node keeps a few neighbors
TOY = {
    "sbm-dense-200": dict(n_per_block=20, p_in=0.5, p_out=0.05),
    "sbm-sparse-2k": dict(n_per_block=25, p_in=0.2, p_out=0.01),
    "sbm-sparse-8k": dict(n_per_block=40, p_in=0.1, p_out=0.005),
}


def toy(name: str):
    return replace(WORKLOADS[name], **TOY[name], epochs=3, setup_reps=2,
                   finetune_steps=1, hidden=16, feat_signal=4.0)


def targets_now():
    return [getattr(module, attr) for module, attr, _ in tracing.TARGETS]


@pytest.fixture(scope="module")
def graph_dirs(tmp_path_factory):
    dirs = {}
    for name in TOY:
        out = tmp_path_factory.mktemp(name)
        worker.generate(toy(name), seed=3, out_dir=out)
        dirs[name] = str(out)
    return dirs


def run(name, graph_dirs, trace, seconds=2.0):
    return worker.measure(toy(name), graph_dirs[name], seed=3, seconds=seconds, trace=trace)


@pytest.mark.parametrize("name", sorted(TOY))
def test_untraced_run_reports_every_metric_and_patches_nothing(name, graph_dirs):
    before = targets_now()
    result, tracer = run(name, graph_dirs, trace=False)
    assert tracer is None and "per_layer" not in result
    assert targets_now() == before
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    metrics = result["end_to_end"]
    assert list(metrics) == [name for name, _ in worker.END_TO_END]
    for metric, unit in worker.END_TO_END:
        assert metrics[metric]["unit"] == unit
        assert metrics[metric]["value"] > 0 or metric == "failed_frac"
    assert result["epochs"] > result["fixed_epochs"]      # rounds ran


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_spans_nest_and_metrics_complete(name, graph_dirs):
    before = targets_now()
    result, tracer = run(name, graph_dirs, trace=True)
    assert targets_now() == before
    assert result["failed"] == 0, result["failures"]
    layers = result["per_layer"]
    assert [(k, v["unit"]) for k, v in layers.items()] == tracing.per_layer_names()

    spans = tracer.spans
    assert all(s >= -1e-9 for s in tracer.self_times())
    for name_, start, end, parent in spans:
        assert end >= start
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
    assert layers["recon.engine.tape_records"]["value"] > 0
    assert layers["svg.engine.backward.calls"]["value"] == 1


def test_tape_census_repeats_for_a_seed(graph_dirs):
    def census():
        result, _ = run("sbm-dense-200", graph_dirs, trace=True, seconds=0.0)
        return {k: v["value"] for k, v in result["per_layer"].items()
                if ".tape_" in k}
    assert census() == census()


def test_failure_in_a_layer_is_counted(graph_dirs, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")
    monkeypatch.setattr(tracing.fusion, "fuse", broken)
    result, _ = run("sbm-dense-200", graph_dirs, trace=True, seconds=0.0)
    assert result["failed"] > 0
    layers = result["per_layer"]
    assert layers["fusion.failed"]["value"] > 0
    assert layers["graphs.failed"]["value"] == 0


def test_tail_rule():
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100)
    samples = [float(i) for i in range(100)]
    assert worker.tail(samples) == (89.0, 90)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} <= set(worker.END_TO_END)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sbm-dense-200",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
