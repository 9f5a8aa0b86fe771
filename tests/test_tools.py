"""Smoke test of the same-behaviour digest tool on a toy configuration."""

import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from adamore import engine
from adamore.engine import Tensor

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_behaviour", ROOT / "tools" / "same_behaviour.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_behaviour_digests(tmp_path):
    tool = _load_tool()
    a, b, other = (str(tmp_path / name) for name in ("a.npz", "b.npz", "other.npz"))
    for path, seed in ((a, 0), (b, 0), (other, 1)):
        tool.collect(path, epochs=2, per_block=8, seed=seed)
    report = io.StringIO()
    assert tool.compare(a, b, out=report)
    lines = report.getvalue().splitlines()
    assert any(line.startswith("default.svg_grad.gate.0: identical") for line in lines)
    assert any(line.startswith("oracle.recon_grad.") for line in lines)
    for key in ("default.finetune.head.w", "default.finetune.gate.0", "default.finetune.classify",
                "hidden8.kmeans", "oracle.prototype_1shot", "study.oracle_accuracy",
                "structural_embeddings", "loaded_graph.edges", "loaded_graph.fingerprint",
                "local_homophily", "local_homophily_heterophilous"):
        assert f"{key}: identical" in lines
    assert not any(line.startswith("oracle.finetune.") for line in lines)
    assert all(line.endswith("identical") for line in lines[:-1])
    report = io.StringIO()
    assert not tool.compare(a, other, out=report)
    assert "default.metrics: max|diff|" in report.getvalue()
    assert tool.main(["compare", a, b]) == 0
    assert tool.main(["compare", a, other]) == 1
    assert "environment: identical" in lines
    with np.load(a) as digest:
        counts, ops = digest["default.tape_at_backward"], digest["default.tape_ops_at_backward"]
        assert np.array_equal(digest["loaded_graph.edges"], [[0, 1], [0, 4], [1, 3], [2, 4]])
    assert ops.shape == counts.shape and all(len(h) == 64 for h in ops)
    assert "default.tape_ops_at_backward: identical" in lines


def test_tape_op_hash_sees_record_order(tmp_path):
    """Two tapes with the same records in another order have equal lengths
    but different op hashes, and compare rejects them at any tolerance."""
    tool = _load_tool()
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    paths = []
    for first, second in ((engine.sigmoid, engine.relu), (engine.relu, engine.sigmoid)):
        engine.reset_tape()
        first(x)
        second(x)
        paths.append(str(tmp_path / f"{first.__name__}.npz"))
        np.savez(paths[-1], tape_at_backward=np.array([len(engine.current_tape())]),
                 tape_ops_at_backward=np.array([tool.tape_op_sha256()]))
    engine.reset_tape()
    report = io.StringIO()
    assert not tool.compare(*paths, out=report, rel=1.0)
    assert "tape_at_backward: identical" in report.getvalue()
    assert "tape_ops_at_backward: differs" in report.getvalue()


def test_compare_names_the_settings_two_digests_were_made_under(tmp_path):
    tool = _load_tool()
    env = tool.environment()
    assert {"thread_env", "blas_threads", "numpy", "blas"} <= env.keys()
    ref = {"loss": np.array([0.75]), "environment": np.array(json.dumps(env))}
    threads = (env["blas_threads"] or 0) + 1     # differs from both recorded settings
    moved = dict(env, thread_env=dict(env["thread_env"], OPENBLAS_NUM_THREADS=str(threads)),
                 blas_threads=threads)
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    np.savez(a, **ref)
    np.savez(b, **dict(ref, environment=np.array(json.dumps(moved))))
    report = io.StringIO()
    assert not tool.compare(a, b, out=report, rel=1.0)
    line = next(x for x in report.getvalue().splitlines() if x.startswith("environment:"))
    assert "thread_env.OPENBLAS_NUM_THREADS" in line and f"'{threads}'" in line
    assert f"blas_threads {env['blas_threads']!r} vs {threads}" in line
    assert "numpy" not in line


def test_compare_rel_accepts_a_perturbed_digest_within_tolerance(tmp_path):
    tool = _load_tool()
    ref = {"loss": np.array([0.75, -2.0, 1.5]), "steps": np.arange(3),
           "label": np.array("run")}
    perturbed = dict(ref, loss=ref["loss"] * (1.0 + np.array([0.0, 3e-9, -1e-9])))
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    np.savez(a, **ref)
    np.savez(b, **perturbed)
    assert tool.main(["compare", a, b]) == 1
    assert tool.main(["compare", "--rel", "1e-12", a, b]) == 1
    report = io.StringIO()
    assert tool.compare(a, b, out=report, rel=1e-8)
    assert "loss: max|diff| / max|ref| = 6e-09 / 2 = 3e-09" in report.getvalue()
    assert tool.main(["compare", "--rel", "1e-8", a, b]) == 0
    np.savez(b, **dict(perturbed, label=np.array("other")))
    assert tool.main(["compare", "--rel", "1", a, b]) == 1      # not numeric


def test_compare_lists_the_entries_it_does_not_accept(tmp_path):
    """The closing JSON line names each entry outside the tolerance: a
    changed tape count and op hash, a NaN and a missing entry, not a
    rounding-level change that --rel accepts."""
    tool = _load_tool()
    ref = {"loss": np.array([0.75, -2.0]), "run.tape_at_backward": np.array([263]),
           "run.tape_ops_at_backward": np.array(["0" * 64]), "grad": np.array([1.0, 2.0]),
           "gone": np.zeros(1)}
    changed = dict(ref, loss=ref["loss"] * (1.0 + 1e-15), grad=np.array([1.0, np.nan]),
                   **{"run.tape_at_backward": np.array([241]),
                      "run.tape_ops_at_backward": np.array(["1" * 64])})
    del changed["gone"]
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    np.savez(a, **ref)
    np.savez(b, **changed)
    for rel, loss in ((0.0, ["loss"]), (1e-12, [])):
        report = io.StringIO()
        assert not tool.compare(a, b, out=report, rel=rel)
        closing = json.loads(report.getvalue().splitlines()[-1])
        assert closing["differ"] == ["gone", "grad", *loss, "run.tape_at_backward",
                                     "run.tape_ops_at_backward"]
        assert closing["same"] is False
    report = io.StringIO()
    assert tool.compare(a, a, out=report)
    assert json.loads(report.getvalue().splitlines()[-1])["differ"] == []
