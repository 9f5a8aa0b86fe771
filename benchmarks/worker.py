"""Benchmark worker: graph generation and one timed workload run.

    python3 benchmarks/worker.py gen --workload W --seed S --out DIR
    python3 benchmarks/worker.py measure --workload W --seed S --graph DIR/graph \
        --seconds T --trace 0|1 --out RESULT.json [--trace-file SPANS.json]

``gen`` writes the workload's SBM graph directory, plus the raw-feature probe
accuracy as a reference, in a process of its own: at n = 8 000 the
generator's O(n^2) pair sampling transiently allocates about 1 GB, which must
not show in the timed process's peak RSS or set-up time. ``measure`` is that
timed process. It needs ``src`` on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from adamore import evaluation, graphs, trainer
from workloads import WORKLOADS, Workload

import tracing

# every end-to-end metric a run prints; BENCHMARK.json bounds a subset
END_TO_END = (
    ("setup_s", "s"), ("epoch_s", "s"), ("epoch_s_tail", "s"), ("train_s", "s"),
    ("embed_s", "s"), ("finetune_s", "s"), ("probe_s", "s"), ("cluster_s", "s"),
    ("fewshot_s", "s"), ("peak_rss_mb", "MB"), ("probe_acc", "fraction"),
    ("failed_frac", "fraction"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def generate(w: Workload, seed: int, out_dir: Path) -> dict:
    g = graphs.gen_sbm(w.n_per_block, w.k_blocks, w.p_in, w.p_out,
                       feat_dim=16, feat_signal=w.feat_signal, seed=seed)
    graphs.save_graph(g, str(out_dir))
    raw = evaluation.linear_probe(g.features, g.labels, g)
    return {"n": g.n_nodes, "m": g.n_edges, "raw_probe_acc": raw.mean}


def _blas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy reports, if it is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Operations:
    """Times each operation and counts those that raise or fail a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, list[float]] = {}

    def run(self, kind: str, fn, check=None):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{kind}: raised")
            return None
        self.seconds.setdefault(kind, []).append(time.perf_counter() - start)
        self._record(kind, check(out) if check else None)
        return out

    def check(self, kind: str, problem: str | None) -> None:
        """An output check made across operations (counted as one more)."""
        self.attempted += 1
        self._record(kind, problem)

    def _record(self, kind: str, problem: str | None) -> None:
        if problem:
            print(f"check failed: {kind}: {problem}", file=sys.stderr)
            self.failures.append(f"{kind}: {problem}")


def _finite_losses(record: dict) -> str | None:
    bad = [k for k, v in record.items() if k != "epoch" and not np.isfinite(v)]
    return f"non-finite losses {bad}" if bad else None


def _embedding_check(n: int, hidden: int):
    def check(emb: np.ndarray) -> str | None:
        if emb.shape != (n, 2 * hidden):
            return f"shape {emb.shape}, expected {(n, 2 * hidden)}"
        if not np.isfinite(emb).all():
            return "non-finite embedding"
        return None
    return check


def _edge_weight_check(m: int):
    def check(w: np.ndarray) -> str | None:
        if w.shape != (m,):
            return f"shape {w.shape}, expected ({m},)"
        if not ((w >= 0.0) & (w <= 1.0)).all():
            return "edge weights outside [0, 1]"
        return None
    return check


def _probe_check(floor: float):
    def check(res) -> str | None:
        if not floor <= res.mean <= 1.0:
            return f"probe accuracy {res.mean:.4f} below the floor {floor:.2f}"
        return None
    return check


def _cluster_check(res) -> str | None:
    values = (res.acc, res.nmi, res.ari)
    if not (np.isfinite(values).all() and 0.0 <= res.acc <= 1.0 and -1.0 <= res.ari <= 1.0):
        return f"cluster scores out of range {values}"
    return None


def _fewshot_check(res) -> str | None:
    return None if 0.0 <= res.mean <= 1.0 else f"few-shot accuracy {res.mean}"


def _finetune_check(emb: np.ndarray, n_classes: int):
    def check(state) -> str | None:
        if not np.isfinite(state.model.head_w.values).all():
            return "non-finite classification head"
        pred = trainer.classify(state, emb)
        if pred.shape != (emb.shape[0],) or not 0 <= pred.min() <= pred.max() < n_classes:
            return "classify returned invalid labels"
        return None
    return check


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest-percentile sample with at least ten samples above it.

    Returns the value and its percentile. Below 20 samples that rule falls
    at or under the median, so the tail is then the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def measure(w: Workload, graph_dir: str, seed: int, seconds: float,
            trace: bool, run_id: str = "") -> tuple[dict, "tracing.Tracer | None"]:
    """Run the workload once; returns the result record and the tracer.

    The run is a loop of rounds, each one epoch plus other operations, so
    that the samples of every median spread across the whole run: the
    machine's speed drifts over seconds. The first rounds hold the fixed
    work (``setup_reps`` set-ups, ``epochs`` epochs with an embed after
    each); after the last fixed epoch the embedding is checked and
    evaluated and the model fine-tuned once. Rounds of every operation
    then repeat until ``seconds`` have passed since set-up began.
    """
    tracer = tracing.Tracer(run_id) if trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    patched = tracer.patched if tracer else nullcontext
    cfg = trainer.TrainConfig(epochs=w.epochs, lr=0.01, hidden=w.hidden, seed=seed)
    ft_cfg = replace(cfg, finetune_epochs=w.finetune_steps)
    ops = Operations()
    setup_times: list[float] = []
    epoch_traced: list[bool] = []
    start = time.perf_counter()

    def setup():
        with span("setup"):
            t0 = time.perf_counter()
            g = graphs.load_graph(graph_dir)
            state = trainer.init_state(g, cfg)
            setup_times.append(time.perf_counter() - t0)
        return g, state

    def epoch() -> None:
        # a traced run traces odd epochs only; the even ones run the same
        # training untraced, for the tracing overhead
        traced = tracer is not None and len(epoch_traced) % 2 == 1
        with patched() if traced else nullcontext():
            ops.run("epoch", lambda: trainer.train_epoch(state), _finite_losses)
        epoch_traced.append(traced)

    def embed():
        return ops.run("embed", lambda: trainer.embed(state),
                       _embedding_check(g.n_nodes, w.hidden))

    def evaluate(emb):
        with span("eval"):
            probe = ops.run("probe", lambda: evaluation.linear_probe(emb, g.labels, g),
                            _probe_check(w.probe_floor))
            ops.run("cluster", lambda: evaluation.kmeans_eval(
                emb, g.labels, k=g.n_classes, seeds=(0,)), _cluster_check)
            ops.run("fewshot", lambda: evaluation.prototype_fewshot(emb, g.labels, k=1),
                    _fewshot_check)
        return probe

    def finetune(emb) -> None:
        ops.run("finetune", lambda: trainer.finetune_fewshot(state, g, support, ft_cfg),
                _finetune_check(emb, g.n_classes))

    with patched():
        g, state = setup()
    rng = np.random.default_rng(seed)
    support = np.array([rng.choice(np.flatnonzero(g.labels == c))
                        for c in range(g.n_classes)])
    emb = probe = None
    evaluated = False
    while not evaluated or time.perf_counter() - start < seconds:
        epoch()
        with patched():
            if len(setup_times) < w.setup_reps or evaluated:
                setup()
            if len(epoch_traced) < w.epochs:
                embed()
            elif not evaluated:
                # the model after the workload's fixed epochs is the one
                # evaluated; later rounds evaluate this embedding again
                emb, again = embed(), embed()
                ops.check("embed repeat", None if emb is not None and again is not None
                          and np.array_equal(emb, again) else "embed differs between calls")
                with span("eval"):
                    ops.run("edge_weights", lambda: trainer.eval_edge_weights(state),
                            _edge_weight_check(g.n_edges))
                probe = evaluate(emb)
                finetune(emb)
                evaluated = True
            else:
                embed()
                evaluate(emb)
                finetune(emb)

    samples = {"setup": setup_times, **ops.seconds}

    def median(kind: str) -> float:
        # an operation that never returned has no time (the run is incorrect)
        return statistics.median(samples[kind]) if samples.get(kind) else float("nan")

    epochs = samples.get("epoch", [])
    tail_s, tail_pct = tail(epochs) if epochs else (float("nan"), 0)
    e2e = {
        "setup_s": median("setup"),
        "epoch_s": median("epoch"),
        "epoch_s_tail": tail_s,
        "train_s": median("setup") + sum(epochs[:w.epochs]),
        "embed_s": median("embed"),
        "finetune_s": median("finetune"),
        "probe_s": median("probe"),
        "cluster_s": median("cluster"),
        "fewshot_s": median("fewshot"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_acc": probe.mean if probe is not None else float("nan"),
    }
    result = {
        "workload": w.name, "seed": seed, "n": g.n_nodes, "m": g.n_edges,
        "fixed_epochs": w.epochs, "epochs": len(epochs), "epoch_tail_pct": tail_pct,
        "probe_floor": w.probe_floor,
    }
    if tracer is not None:
        ops.check("tape census repeats", None if tracer.census_repeats()
                  else "tape census differs between calls of one phase")
        layers = tracer.layer_metrics(w.finetune_steps)
        # epoch 0 pays first-touch allocation, so it is left out
        traced = [t for t, on in zip(epochs[1:], epoch_traced[1:]) if on]
        plain = [t for t, on in zip(epochs[1:], epoch_traced[1:]) if not on]
        overhead, base = float("nan"), float("nan")
        if traced and plain:
            base = statistics.median(plain)
            overhead = statistics.median(traced) - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / base
        result["per_layer"] = {name: {"value": layers[name], "unit": unit}
                               for name, unit in tracing.per_layer_names()}
    e2e["failed_frac"] = len(ops.failures) / ops.attempted
    result.update(
        end_to_end={name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END},
        attempted=ops.attempted, failed=len(ops.failures), failures=ops.failures,
        environment=environment())
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("gen")
    p_gen.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", type=Path, required=True)
    p_run = sub.add_parser("measure")
    p_run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if args.command == "gen":
        info = generate(w, args.seed, args.out / "graph")
        (args.out / "reference.json").write_text(json.dumps(info))
        return 0
    run_id = f"{w.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    result, tracer = measure(w, args.graph, args.seed, args.seconds,
                             bool(args.trace), run_id)
    if tracer is not None and args.trace_file:
        tracer.write(args.trace_file)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
