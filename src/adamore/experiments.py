"""Experiment harnesses: oracle edge weights, noise robustness, training
stability, per-bucket filter comparisons, and hyperparameter sweeps.

Every run is an independent seeded training session, so a study runs them on one
process per usable CPU, each with one BLAS thread; report assembly is deterministic.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import engine, evaluation, filters, graphs, trainer
from .graphs import Graph
from .trainer import TrainConfig


@dataclass(frozen=True)
class OracleWeightSpec:
    """Label-derived edge weights with optional Gaussian corruption."""

    mode: str = "distinctiveness"       # distinctiveness | accuracy
    w_same: float = 0.9
    w_diff: float = 0.1
    p_coh_correct: float = 1.0
    p_disp_correct: float = 1.0
    noise_ratio: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.mode not in ("distinctiveness", "accuracy"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        for name in ("w_same", "w_diff", "p_coh_correct", "p_disp_correct",
                     "noise_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")


def oracle_weights(g: Graph, spec: OracleWeightSpec, seed: int = 0) -> np.ndarray:
    """Per-undirected-edge weights derived from ground-truth labels."""
    if g.labels is None:
        raise ValueError("oracle weights require labels")
    rng = np.random.default_rng(seed)
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    if spec.mode == "distinctiveness":
        w = np.where(same, spec.w_same, spec.w_diff).astype(np.float64)
    else:
        coh_hit = rng.random(g.n_edges) < spec.p_coh_correct
        disp_hit = rng.random(g.n_edges) < spec.p_disp_correct
        w = np.where(same, np.where(coh_hit, 1.0, 0.0),
                     np.where(disp_hit, 0.0, 1.0))
    if spec.noise_ratio > 0.0 and spec.noise_std > 0.0:
        count = int(round(spec.noise_ratio * g.n_edges))
        hit = rng.choice(g.n_edges, size=count, replace=False)
        w = w.copy()
        w[hit] = np.clip(w[hit] + rng.normal(0.0, spec.noise_std, size=count), 0.0, 1.0)
    return w


# ---------------------------------------------------------------------------
# stability study

def loss_volatility(curve: list[float]) -> float:
    """Standard deviation over the final quarter of a loss curve."""
    tail = curve[-max(1, len(curve) // 4):]
    return float(np.std(tail))


@dataclass
class StabilityReport:
    curves: dict[str, dict[int, list[float]]]   # arm -> seed -> l_mae curve
    volatility: dict[str, float]                # median over seeds
    final_loss: dict[str, float]                # median over seeds
    volatility_ratio: float                     # full model / naive heterogeneous

    def curve_rows(self) -> list[tuple]:
        rows = []
        for arm, by_seed in sorted(self.curves.items()):
            for seed, curve in sorted(by_seed.items()):
                rows += [(epoch, f"{arm}:seed{seed}", loss)
                         for epoch, loss in enumerate(curve)]
        return rows


def stability_bench(g: Graph, cfg: TrainConfig, seeds=(0, 1, 2, 3, 4),
                    include_homogeneous: bool = False) -> StabilityReport:
    """Backbone-residual vs naive flat MoE under matched seeds and budgets."""
    arms = ["backbone-residual", "naive-heterogeneous"]
    if include_homogeneous:
        arms.append("naive-homogeneous")
    tasks = [(arm, seed, g, cfg) for arm in arms for seed in seeds]
    results = _map_jobs(_stability_worker, tasks)
    curves: dict[str, dict[int, list[float]]] = {arm: {} for arm in arms}
    for (arm, seed, _, _), curve in zip(tasks, results):
        curves[arm][seed] = curve
    volatility = {arm: float(np.median([loss_volatility(c) for c in by_seed.values()]))
                  for arm, by_seed in curves.items()}
    final_loss = {arm: float(np.median([c[-1] for c in by_seed.values()]))
                  for arm, by_seed in curves.items()}
    naive = volatility["naive-heterogeneous"]
    ratio = volatility["backbone-residual"] / naive if naive > 0 else float("inf")
    return StabilityReport(curves=curves, volatility=volatility,
                           final_loss=final_loss, volatility_ratio=ratio)


def _stability_worker(task):
    arm, seed, g, cfg = task
    run_cfg = replace(cfg, seed=seed)
    if arm == "backbone-residual":
        history = trainer.train(g, run_cfg).history
    else:
        kinds = ("gcn-layer",) * 4 if arm == "naive-homogeneous" else None
        history = trainer.naive_moe_baseline(g, run_cfg, kinds=kinds)
    return [rec["l_mae"] for rec in history]


# ---------------------------------------------------------------------------
# per-bucket motivation analysis

def _bucket_indices(values: np.ndarray):
    """Quintile buckets; returns (bucket id per entry, bucket count)."""
    if np.unique(values).size == 1:
        warnings.warn("degenerate bucketing: all values identical", stacklevel=2)
        return np.zeros(values.shape[0], dtype=np.int64), 1
    edges = np.unique(np.quantile(values, np.linspace(0, 1, 6)[1:-1]))
    edges = edges[(edges > values.min()) & (edges <= values.max())]
    bucket = np.searchsorted(edges, values, side="right")
    return bucket, int(bucket.max()) + 1


def _per_bucket_accuracy(emb: np.ndarray, g: Graph, bucket: np.ndarray,
                         n_buckets: int, split) -> list[float]:
    w, b = evaluation._fit_logreg(emb[split.train], g.labels[split.train],
                                  g.n_classes, steps=300, lr=0.05)
    pred = evaluation.predict(emb, w, b)
    out = []
    for q in range(n_buckets):
        members = np.intersect1d(split.test, np.flatnonzero(bucket == q))
        out.append(float((pred[members] == g.labels[members]).mean())
                   if members.size else float("nan"))
    return out


def motivation_analysis(g: Graph, seed: int = 0) -> dict:
    """Per-bucket probe accuracy of complementary filters and depths.

    (a) buckets nodes by local-homophily quantile and compares a one-hop
    low-pass against a one-hop high-pass probe; (b) buckets by clustering
    coefficient and compares 1-hop against 4-hop low-pass propagation.
    The probes read the model's own filters on the unweighted graph.
    """
    if g.labels is None:
        raise ValueError("motivation analysis requires labels")
    split = graphs.make_splits(g, (0.3, 0.1, 0.6), seed=seed)

    homo = graphs.local_homophily(g)
    valid = homo >= 0.0
    if not valid.any():
        raise ValueError("every node is isolated; no homophily buckets")
    bucket = np.full(g.n_nodes, -1, dtype=np.int64)
    bucket[valid], n_hb = _bucket_indices(homo[valid])
    x, view = engine.Tensor(g.features), filters.raw_view(g)
    sgc_emb, _, _, deep_emb = (out.values for out in filters.filter_bank_outputs(
        "sgc", 4, x, view))
    lap_emb = filters.filter_bank_outputs("lapsgc", 1, x, view)[0].values
    homophily_section = {
        "n_buckets": n_hb,
        "bucket_mean_homophily": [
            float(homo[valid][bucket[valid] == q].mean())
            if (bucket[valid] == q).any() else float("nan")
            for q in range(n_hb)],
        "sgc": _per_bucket_accuracy(sgc_emb, g, bucket, n_hb, split),
        "lapsgc": _per_bucket_accuracy(lap_emb, g, bucket, n_hb, split),
    }

    coef = graphs.clustering_coefficient(g)
    cbucket, n_cb = _bucket_indices(coef)
    clustering_section = {"n_buckets": n_cb}
    for depth, emb in ((1, sgc_emb), (4, deep_emb)):
        clustering_section[f"depth{depth}"] = _per_bucket_accuracy(
            emb, g, cbucket, n_cb, split)
    return {"homophily": homophily_section, "clustering": clustering_section}


# ---------------------------------------------------------------------------
# sweeps

def sensitivity_sweep(g: Graph, axis: str, values, cfg: TrainConfig, seeds=(0, 1, 2)) -> list[dict]:
    """One trained session per (value, seed), with config key ``axis`` set
    to the value; probe accuracy table. Any key but ``seed``, which each
    run sets, is an axis; an ablation is a sweep such as ``svg_steps=0``."""
    if axis == "seed" or axis not in {f.name for f in fields(TrainConfig)}:
        raise ValueError(f"sweep axis must be a config key other than seed, got {axis!r}")
    if not values:
        raise ValueError("sweep values must be nonempty")
    cases = [(v, replace(cfg, **{axis: v}), None) for v in values]
    return probe_study(g, cases, seeds)


def probe_study(g: Graph, cases, seeds=(0, 1, 2, 3, 4)) -> list[dict]:
    """Probe accuracy over seeds, one row per ``(value, cfg, spec)`` case.

    Each (case, seed) trains ``cfg`` at that seed, on the oracle weights of
    ``spec`` (an :class:`OracleWeightSpec`) in place of the learned gate
    unless ``spec`` is None, and probes the embedding over three splits.
    """
    tasks = [(g, replace(cfg, seed=int(s)), spec) for _, cfg, spec in cases for s in seeds]
    accs = _map_jobs(_probe_worker, tasks)
    rows = []
    for i, (value, _, _) in enumerate(cases):
        per_seed = accs[i * len(seeds):(i + 1) * len(seeds)]
        rows.append({"value": value, "median_accuracy": float(np.median(per_seed)),
                     "mean_accuracy": float(np.mean(per_seed)), "per_seed": per_seed})
    return rows


def _probe_worker(task):
    g, cfg, spec = task
    fixed = None if spec is None else oracle_weights(g, spec, seed=cfg.seed)
    emb = trainer.embed(trainer.train(g, cfg, fixed_weights=fixed))
    return evaluation.linear_probe(emb, g.labels, g, repeats=3, seed=1000 + cfg.seed).mean


def noise_robustness(g: Graph, cfg: TrainConfig, ratios=(0.0, 0.2, 0.5, 0.8),
                     stddev: float = 0.5, seeds=(0, 1, 2, 3, 4)) -> list[dict]:
    """Probe accuracy as the 0.9/0.1 oracle weights get progressively corrupted."""
    cases = [(float(ratio), cfg, OracleWeightSpec(noise_ratio=float(ratio),
                                                  noise_std=stddev if ratio > 0 else 0.0))
             for ratio in ratios]
    return probe_study(g, cases, seeds)


def distinctiveness_study(g: Graph, cfg: TrainConfig, pairs=((0.9, 0.1), (0.7, 0.3), (0.5, 0.5)),
                          seeds=(0, 1, 2, 3, 4)) -> list[dict]:
    """Probe accuracy as the oracle weight separation shrinks."""
    cases = [(f"{w_same}/{w_diff}", cfg,
              OracleWeightSpec(mode="distinctiveness", w_same=w_same, w_diff=w_diff))
             for w_same, w_diff in pairs]
    return probe_study(g, cases, seeds)


def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS bundled with numpy, or None."""
    for lib in sorted(Path(np.__file__).resolve().parents[1].glob("numpy.libs/*openblas*")):
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            return setter
    return None


def _pool_worker() -> None:
    """A pool worker shares the CPUs with its siblings: one BLAS thread, and
    its probe blocks in its own thread."""
    _blas_thread_setter()(1)
    graphs._SHARED_CPUS = True


def _map_jobs(worker, tasks) -> list:
    """``worker`` over ``tasks`` in order, on ``min(usable CPUs, tasks)`` processes with
    one thread each; in this process if that is one or the BLAS setter is missing."""
    procs = min(graphs.usable_cpus(), len(tasks))
    if procs <= 1 or _blas_thread_setter() is None:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=procs, initializer=_pool_worker) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# report files

def write_report_json(report, path: str) -> None:
    """The report as strict JSON: NaN and infinities are written as null."""
    # a round trip through the lenient parser turns each non-finite float into None
    strict = json.loads(json.dumps(report, sort_keys=True), parse_constant=lambda _: None)
    engine.atomic_write(path, json.dumps(strict, indent=2, allow_nan=False) + "\n")


def write_report_csv(rows: list[dict], path: str) -> None:
    if not rows:
        engine.atomic_write(path, "")
        return
    keys = []
    for row in rows:
        keys += [k for k in row if k not in keys]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    engine.atomic_write(path, buf.getvalue())


def write_curves_csv(rows: list[tuple], path: str) -> None:
    lines = ["epoch,arm,loss"] + [f"{e},{arm},{repr(float(x))}" for e, arm, x in rows]
    engine.atomic_write(path, "\n".join(lines) + "\n")
