"""The benchmark tracer patches library functions by attribute name, so a
rename in ``src/`` must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_trace_targets_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert tracing.TARGETS and missing == []
