"""Smoke test of the same-behaviour digest tool on a toy configuration."""

import importlib.util
import io
from pathlib import Path

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
    assert all(line.endswith("identical") for line in lines[:-1])
    report = io.StringIO()
    assert not tool.compare(a, other, out=report)
    assert "default.metrics: max|diff|" in report.getvalue()
    assert tool.main(["compare", a, b]) == 0
    assert tool.main(["compare", a, other]) == 1
