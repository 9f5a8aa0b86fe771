"""Run adamore benchmark workloads and print their metrics.

    python3 benchmarks/run.py --workload sbm-dense-200 --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all

Run from the repository root. For each workload the graph is generated in
one process and measured in a second, timed one; the library is imported
from ``src`` (nothing is installed). The report prints every metric by name
and unit; the last line of standard output is the result as one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``, as
listed in ``BENCHMARK.json``). Span
traces are written to ``.bench_work/traces``. Exits 1 if a workload
process fails, 2 if the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
TIME_LIMIT = 170.0      # seconds for one workload, generation included

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    env = child_env()
    worker = [sys.executable, str(HERE / "worker.py")]
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        subprocess.run(worker + ["gen", "--workload", name, "--seed", str(seed),
                                 "--out", str(tmp)],
                       env=env, check=True, timeout=deadline - time.monotonic())
        subprocess.run(worker + ["measure", "--workload", name, "--seed", str(seed),
                                 "--graph", str(tmp / "graph"), "--seconds", str(seconds),
                                 "--trace", str(trace), "--out", str(tmp / "result.json"),
                                 "--trace-file",
                                 str(WORK / "traces" / f"{name}-seed{seed}.json")],
                       env=env, check=True, timeout=deadline - time.monotonic())
        result = json.loads((tmp / "result.json").read_text())
        result["reference"] = json.loads((tmp / "reference.json").read_text())
    return result


def report(result: dict, trace: int) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  n={result['n']} m={result['m']}  "
          f"epochs {result['epochs']} ({result['fixed_epochs']} trained before evaluation)")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    notes = {
        "epoch_s": f"median of {result['epochs']} epochs",
        "epoch_s_tail": f"p{result['epoch_tail_pct']} of {result['epochs']} epochs",
        "train_s": f"setup_s + {result['fixed_epochs']} epochs",
        "probe_acc": f"floor {result['probe_floor']:.2f}; raw features "
                     f"{result['reference']['raw_probe_acc']:.4f} (reference)",
        "failed_frac": f"{result['failed']} of {result['attempted']} operations",
    }
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("end-to-end" + (" (traced run: not in the result line)" if trace else ""))
    for name, m in result["end_to_end"].items():
        print(f"  {name:<14} {m['value']:>14.6g} {m['unit']:<9} {notes.get(name, '')}")
    if trace:
        print("per-layer (self seconds and calls per setup / epoch / embed / fine-tune step)")
        for name, m in result["per_layer"].items():
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run adamore benchmark workloads.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "adamore" / "__init__.py").is_file():
        print(f"error: no adamore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # the result line carries exactly the metrics BENCHMARK.json names
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        report(result, args.trace)
        measured = result["per_layer"] if args.trace else result["end_to_end"]
        metrics = {m["name"]: measured[m["name"]] for m in spec[section]}
        print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
