"""Same-behaviour proof for refactors: collect a run digest, compare two.

    PYTHONPATH=src python3 tools/same_behaviour.py collect OUT.npz
    PYTHONPATH=src python3 tools/same_behaviour.py compare [--rel TOL] A.npz B.npz

``collect`` trains the fixed two-block SBM of ``adamore gen-sbm --blocks 2
--per-block 100 --p-in 0.5 --p-out 0.05 --seed 0`` for 20 epochs at lr 0.01
under five configs: the default, all four residual kinds with diversity
targets ``both``, ``hidden=8`` (F >= d_e, the projected-first basis), an
empty residual pool and unit-norm feature rows (``normalize_features``). A
sixth run trains the default config under fixed oracle edge weights. Per config it stores the metrics records, the routing
log, the eval-mode edge weights, alpha and embeddings, the checkpoint
arrays as written and read back, the tape length at every ``backward``
and a sha256 of the tape's op-name sequence there (so a reorder of
records shows even when every value matches), every parameter gradient of one svg step and one reconstruction step at the
trained state, the k-means scores and 1-shot prototype accuracies of the
embeddings, and the flat-MoE ``l_mae`` curve. The ``default`` run is then
fine-tuned for five epochs on four labeled nodes per class; the digest
holds its gate and head parameters and the ``classify`` labels. It also
stores the splits of the graph with its labels dropped. On the same graph
it stores, as JSON, the rows of ``distinctiveness_study``,
``noise_robustness``, ``sensitivity_sweep`` and one accuracy-mode
``probe_study`` case, the ``stability_bench`` report with all three arms
(a three-epoch config, one or two seeds) and the ``motivation_analysis``
report, which it also stores for a heterophilous four-block SBM. Last, it
stores the CLI's text forms: the ``print-config`` output, and the
``config.txt`` of one ``adamore train`` run on a tiny SBM with a non-default
float, int, str, bool and tuple key, as written and as ``read_config_file``
reads it back. The ``environment`` entry records where the digest was made:
``benchmarks/worker.environment()``, that is the thread variables, the BLAS
thread count and the library versions. Above n = 200 the bytes of a
training run depend on the BLAS thread count.

``compare`` prints each entry as identical, or as max |diff| / max |ref|
(for ``environment``, the settings that differ), and exits 0 only when
every entry of both files is identical. With
``--rel TOL`` it also accepts a numeric entry whose ratio is at most TOL,
the proof for a change that reorders a sum. Its closing JSON line lists
the entries it does not accept under ``differ``, so a change that only
alters the tape reads as exactly its ``*.tape_at_backward`` and
``*.tape_ops_at_backward`` entries. Run ``collect`` once with the
parent commit's ``src`` on PYTHONPATH and once with the change's, then
``compare`` the two files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from adamore import cli, engine, evaluation, experiments, graphs, trainer
from adamore.trainer import TrainConfig

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
from worker import environment  # noqa: E402

CONFIGS = {
    "default": {},
    "four_kinds_both": dict(residual_kinds=("gcn-layer", "sage-mean", "gin0", "gat-1head"),
                            diversity_targets="both"),
    "hidden8": dict(hidden=8),
    "no_residual": dict(residual_kinds=()),
    "normalized": dict(normalize_features=True),
    "oracle": {},
}
STUDY = dict(epochs=3, hidden=8, d_s=3, edge_hidden=8, n_exp=2, top_k=1)
# one non-default key of each type: float, int, str, bool and tuple
TRAIN_FLAGS = ("--epochs", "2", "--lr", "0.01", "--hidden", "8", "--d-s", "3",
               "--edge-hidden", "8", "--n-exp", "2", "--top-k", "1",
               "--diversity-targets", "both", "--normalize-features",
               "--residual-kinds", "gcn-layer,gin0")


def tape_op_sha256() -> str:
    """sha256 of the current tape's op names in record order."""
    ops = "\n".join(rec[0] for rec in engine.current_tape().records)
    return hashlib.sha256(ops.encode()).hexdigest()


def _grads_of_step(state: trainer.TrainState, step) -> dict[str, np.ndarray]:
    """Gradients the step hands to Adam, keyed by parameter name."""
    names = {id(p): name for name, p in state.model.named_parameters().items()}
    grads = {}
    original = engine.adam_step

    def capture(params, adam):
        grads.update({names[id(p)]: p.grad.copy() for p in params if p.grad is not None})
        original(params, adam)

    engine.adam_step = capture
    try:
        step(state)
    finally:
        engine.adam_step = original
    return grads


def _finetuned(g: graphs.Graph, state: trainer.TrainState) -> dict[str, np.ndarray]:
    """Gate and head parameters after a five-epoch fine-tune on four labeled
    nodes per class, and the labels ``classify`` gives the new embeddings."""
    support = np.concatenate([np.flatnonzero(g.labels == c)[:4] for c in range(g.n_classes)])
    trainer.finetune_fewshot(state, g, support, replace(state.model.cfg, finetune_epochs=5))
    out = {f"finetune.{name}": p.values.copy()
           for name, p in state.model.named_parameters().items()
           if name.split(".")[0] in ("gate", "head")}
    out["finetune.classify"] = trainer.classify(state, trainer.embed(state))
    return out


def _run(g: graphs.Graph, cfg: TrainConfig, fixed,
         finetune: bool = False) -> dict[str, np.ndarray]:
    tapes, op_hashes = [], []
    original = engine.backward

    def counted(loss):
        tapes.append(len(engine.current_tape()))
        op_hashes.append(tape_op_sha256())
        original(loss)

    engine.backward = counted
    try:
        state = trainer.train(g, cfg, fixed_weights=fixed)
    finally:
        engine.backward = original
    keys = sorted(state.history[0])
    out = {
        "metrics": np.array([[rec[k] for k in keys] for rec in state.history], dtype=float),
        "metrics_keys": np.array(keys),
        "routing": np.array([(e, c == "disp", k, f, p) for e, c, k, f, p in state.routing_log],
                            dtype=float),
        "tape_at_backward": np.array(tapes),
        "tape_ops_at_backward": np.array(op_hashes),
        "weights": trainer.eval_edge_weights(state),
        "alpha": trainer.eval_forward(state).alpha,
        "embeddings": trainer.embed(state),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        trainer.save_model(state, path)
        for name, arr in engine.load_checkpoint(path).items():
            out[f"ckpt.{name}"] = arr
    if fixed is None:
        out.update({f"svg_grad.{k}": v
                    for k, v in _grads_of_step(state, trainer.svg_step).items()})
    out.update({f"recon_grad.{k}": v
                for k, v in _grads_of_step(state, trainer.reconstruction_step).items()})
    clusters = evaluation.kmeans_eval(out["embeddings"], g.labels, g.n_classes)
    out["kmeans"] = np.array([clusters.acc, clusters.nmi, clusters.ari])
    out["prototype_1shot"] = np.array(evaluation.prototype_fewshot(
        out["embeddings"], g.labels, 1, n_tasks=20).accuracies)
    if finetune:
        out.update(_finetuned(g, state))
    return out


def collect(path: str, epochs: int = 20, per_block: int = 100, seed: int = 0) -> None:
    g = graphs.gen_sbm(per_block, 2, 0.5, 0.05, seed=0)
    base = TrainConfig(epochs=epochs, lr=0.01, seed=seed)
    digest = {}
    for label, overrides in CONFIGS.items():
        cfg = replace(base, **overrides)
        fixed = (experiments.oracle_weights(g, experiments.OracleWeightSpec())
                 if label == "oracle" else None)
        digest.update({f"{label}.{k}": v
                       for k, v in _run(g, cfg, fixed, label == "default").items()})
    curve = [rec["l_mae"] for rec in trainer.naive_moe_baseline(g, base)]
    digest["flat_moe.l_mae"] = np.array(curve)
    unlabeled = graphs.make_graph(g.n_nodes, g.edges, g.features)
    split = graphs.make_splits(unlabeled, (0.2, 0.2, 0.6), seed=seed)
    digest.update({f"unlabeled_split.{k}": getattr(split, k) for k in ("train", "val", "test")})
    digest.update({f"study.{k}": np.array(json.dumps(v, sort_keys=True))
                   for k, v in _studies(g, replace(base, **STUDY), (seed,)).items()})
    digest.update({f"cli.{k}": np.array(v) for k, v in _cli_text(seed).items()})
    digest["environment"] = np.array(json.dumps(environment(), sort_keys=True))
    np.savez(path, **digest)


def _cli_text(seed: int) -> dict[str, str]:
    """The ``print-config`` output, and the ``config.txt`` of a tiny
    ``adamore train`` run as written and as read back."""
    with tempfile.TemporaryDirectory() as tmp:
        graphs.save_graph(graphs.gen_sbm(10, 2, 0.5, 0.1, feat_dim=6, seed=seed),
                          os.path.join(tmp, "graph"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["print-config"])
            printed = out.getvalue()
            cli.main(["train", "--data", os.path.join(tmp, "graph"),
                      "--out", os.path.join(tmp, "run"), "--seed", str(seed), *TRAIN_FLAGS])
        config_path = os.path.join(tmp, "run", "config.txt")
        with open(config_path) as fh:
            written = fh.read()
        read_back = cli.read_config_file(config_path)
    return {"print_config": printed, "config_txt": written,
            "config_read_back": repr(read_back)}


def _studies(g: graphs.Graph, cfg: TrainConfig, seeds: tuple[int, ...]) -> dict:
    """Rows of the probe studies, the stability report and the motivation
    reports, through the public functions alone so that a parent commit's
    ``src`` runs them too."""
    stability = experiments.stability_bench(g, cfg, seeds=(seeds[0], seeds[0] + 1),
                                            include_homogeneous=True)
    heterophilous = graphs.gen_sbm(50, 4, 0.01, 0.08, feat_dim=8, feat_signal=0.8, seed=3)
    accuracy_mode = experiments.OracleWeightSpec(mode="accuracy", p_coh_correct=0.8,
                                                 p_disp_correct=0.7)
    return {
        "distinctiveness": experiments.distinctiveness_study(
            g, cfg, pairs=((0.9, 0.1), (0.6, 0.4)), seeds=seeds),
        "noise": experiments.noise_robustness(g, cfg, ratios=(0.0, 0.5), seeds=seeds),
        "sensitivity": experiments.sensitivity_sweep(g, "hidden", (8, 16), cfg, seeds=seeds),
        "oracle_accuracy": experiments.probe_study(g, [("0.8/0.7", cfg, accuracy_mode)],
                                                   seeds),
        "stability": {"curves": stability.curve_rows(), "volatility": stability.volatility,
                      "final_loss": stability.final_loss,
                      "volatility_ratio": stability.volatility_ratio},
        "motivation": experiments.motivation_analysis(g, seed=seeds[0]),
        "motivation_heterophilous": experiments.motivation_analysis(heterophilous,
                                                                    seed=seeds[0]),
    }


def _difference(a: np.ndarray | None, b: np.ndarray | None) -> tuple[str, float] | None:
    """None when identical, else a short description of the difference and
    max |diff| / max |ref| (infinite where no such ratio applies)."""
    if a is None or b is None:
        return "missing in " + ("A" if a is None else "B"), np.inf
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return f"shape/dtype {a.shape} {a.dtype} vs {b.shape} {b.dtype}", np.inf
    if np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
        return None
    if a.dtype.kind not in "fiu":
        return "differs", np.inf
    diff = np.max(np.abs(a.astype(float) - b.astype(float)))
    ref = np.max(np.abs(a.astype(float)))
    rel = diff / ref if ref else np.inf
    return f"max|diff| / max|ref| = {diff:.3g} / {ref:.3g} = {rel:.3g}", rel


def _flat(settings: dict, prefix: str = "") -> dict:
    """Nested settings as one level, keyed by dotted paths."""
    out = {}
    for key, value in settings.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _settings_difference(a: np.ndarray, b: np.ndarray) -> str:
    """The settings two ``environment`` entries disagree on, A's value first."""
    ea, eb = _flat(json.loads(str(a))), _flat(json.loads(str(b)))
    keys = sorted(k for k in ea.keys() | eb.keys() if ea.get(k) != eb.get(k))
    return "made under other settings: " + ", ".join(
        f"{k} {ea.get(k)!r} vs {eb.get(k)!r}" for k in keys)


def compare(path_a: str, path_b: str, out=sys.stdout, rel: float = 0.0) -> bool:
    """True when every entry is identical, or numeric and within ``rel``."""
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    differ = []
    for key in sorted(a.keys() | b.keys()):
        diff = _difference(a.get(key), b.get(key))
        if diff and key == "environment" and key in a and key in b:
            diff = _settings_difference(a[key], b[key]), np.inf
        if diff and not diff[1] <= rel:
            differ.append(key)
        print(f"{key}: {diff[0] if diff else 'identical'}", file=out)
    print(json.dumps({"entries": len(a.keys() | b.keys()), "rel": rel, "same": not differ,
                      "differ": differ}), file=out)
    return not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="train the fixed configs and write a digest")
    p.add_argument("out")
    p = sub.add_parser("compare", help="compare two digests; exit 0 when they match")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rel", type=float, default=0.0, metavar="TOL",
                   help="also accept a numeric entry with max|diff| / max|ref| <= TOL "
                        "(default 0: identical only)")
    args = parser.parse_args(argv)
    if args.command == "collect":
        collect(args.out)
        return 0
    return 0 if compare(args.a, args.b, rel=args.rel) else 1


if __name__ == "__main__":
    sys.exit(main())
