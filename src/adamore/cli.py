"""Command-line entry point.

Subcommands cover training, embedding, evaluation, and the experiment
harnesses. Option precedence is flags over config-file keys over defaults;
a config file holds flat ``key=value`` lines mirroring the training
configuration, and unknown keys are rejected. All randomness is controlled
by --seed, and primary output files are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import typing

from . import engine, evaluation, experiments, fusion, gating, graphs, trainer
from .trainer import TrainConfig

_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# print-config's owner tag of each key the trainer does not own
OWNERS = {**dict.fromkeys(("gamma_svg", "tau", "edge_hidden"), "view-gating"),
          **dict.fromkeys(("lambda_load", "lambda_div", "top_k", "n_exp", "residual_kinds",
                           "diversity_targets"), "expert-moe"),
          "d_s": "graph-core", "normalize_features": "graph-core"}

# every config key in TrainConfig's order, its type, and how text becomes a
# value: booleans as true/false, yes/no or 1/0, tuples as comma lists
FIELD_TYPES = typing.get_type_hints(TrainConfig)
_FROM_TEXT = {bool: lambda raw: _BOOLEANS[raw.lower()],
              tuple[str, ...]: lambda raw: tuple(t for t in raw.split(",") if t)}
PARSERS = {key: _FROM_TEXT.get(kind, kind) for key, kind in FIELD_TYPES.items()}


class UsageError(Exception):
    """Validation problem; the CLI exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def read_config_file(path: str) -> dict:
    values, set_on = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in PARSERS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in set_on:
                raise UsageError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
            set_on[key] = lineno
            try:
                values[key] = PARSERS[key](raw)
            except (KeyError, ValueError):
                raise UsageError(f"{path}:{lineno}: invalid value {raw!r} for {key}") from None
    return values


def build_config(args) -> TrainConfig:
    values = read_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in PARSERS
                  if getattr(args, key) is not None)
    return _train_config(values)


def _train_config(values: dict) -> TrainConfig:
    try:
        return TrainConfig(**values)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid configuration: {err}") from err


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for key, kind in FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=key, type=PARSERS[key],
                           metavar="KIND[,KIND...]" if key == "residual_kinds" else None)


def _floats(raw: str, sep: str = ",") -> tuple[float, ...]:
    """A ``sep``-separated list of numbers, as an argparse type."""
    try:
        return tuple(float(x) for x in raw.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected numbers separated by {sep!r}, got {raw!r}") from None


def _at_least(low: int, kind: str):
    """An argparse type: a whole number >= ``low``, called a ``kind`` integer."""
    def parse(raw: str) -> int:
        with contextlib.suppress(ValueError):
            if int(raw) >= low:
                return int(raw)
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {raw!r}")
    return parse


_count, _seed = _at_least(1, "positive"), _at_least(0, "non-negative")


def _pairs(raw: str) -> tuple[tuple[float, ...], ...]:
    """A comma list of a/b number pairs, as an argparse type."""
    pairs = tuple(_floats(token, "/") for token in raw.split(","))
    if any(len(pair) != 2 for pair in pairs):
        raise argparse.ArgumentTypeError(f"expected a comma list of a/b pairs, got {raw!r}")
    return pairs


def build_parser() -> _Parser:
    parser = _Parser(prog="adamore",
                     description="Unsupervised graph mixture-of-residual-experts")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-sbm", help="generate a stochastic block model graph directory")
    p.add_argument("--blocks", type=_count, required=True)
    p.add_argument("--per-block", type=_count, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--feat-dim", type=_count, default=16)
    p.add_argument("--feat-signal", type=float, default=2.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="unsupervised training; writes metrics and checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("embed", help="write eval-mode embeddings from a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--out", help="output tsv (default <model-dir>/embeddings.tsv)")

    p = sub.add_parser("eval-probe", help="linear probe accuracy of a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--repeats", type=_count, default=5)
    p.add_argument("--seed", type=_seed, default=100)
    p.add_argument("--out")

    p = sub.add_parser("eval-cluster", help="k-means clustering metrics of a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")

    p = sub.add_parser("eval-fewshot", help="prototype few-shot accuracy of a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--k", type=_count, default=1)
    p.add_argument("--tasks", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")

    def study(name: str, summary: str, seeds: int) -> argparse.ArgumentParser:
        """A subcommand that trains one config over several seeds."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", type=_count, default=seeds)
        _add_config_flags(p)
        return p

    p = study("bench-stability", "stability of full model vs naive flat MoE", 5)
    p.add_argument("--include-homogeneous", action="store_true")

    p = study("exp-oracle-weights", "probe accuracy under oracle edge weights", 5)
    p.add_argument("--mode", choices=("distinctiveness", "accuracy"),
                   default="distinctiveness")
    p.add_argument("--pairs", type=_pairs, default="0.9/0.1,0.7/0.3,0.5/0.5",
                   help="comma list of w_same/w_diff (or p_coh/p_disp) pairs")

    p = study("exp-noise", "probe accuracy vs noise on oracle weights", 5)
    p.add_argument("--ratios", type=_floats, default="0,0.2,0.5,0.8")
    p.add_argument("--stddev", type=float, default=0.5)

    p = study("exp-sensitivity", "sweep one config key, e.g. an ablation", 3)
    p.add_argument("--axis", required=True, metavar="KEY",
                   help="the config key to sweep: any but seed and residual_kinds",
                   choices=[key for key, kind in FIELD_TYPES.items()
                            if kind in (bool, int, float, str) and key != "seed"])
    p.add_argument("--values", required=True, help="comma-separated values")

    p = sub.add_parser("motivate", help="per-bucket filter/depth comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)

    sub.add_parser("print-config", help="print every config default with its module")
    return parser


# ---------------------------------------------------------------------------
# command implementations

def _config_items(cfg: TrainConfig):
    """(key, text value) per config field; tuples as comma lists."""
    for key in FIELD_TYPES:
        value = getattr(cfg, key)
        yield key, ",".join(value) if isinstance(value, tuple) else value


def _write_run_config(cfg: TrainConfig, path: str) -> None:
    lines = [f"{key}={value}" for key, value in _config_items(cfg)]
    engine.atomic_write(path, "\n".join(lines) + "\n")


def _load_model_dir(model_dir: str):
    """(state, graph) of a trained model directory; its config.txt must set
    every key, and data_path.txt still name the graph it was trained on."""
    cfg_path = os.path.join(model_dir, "config.txt")
    data_path = os.path.join(model_dir, "data_path.txt")
    sha_path = os.path.join(model_dir, "graph_sha256.txt")
    ckpt_path = os.path.join(model_dir, "model.ckpt")
    for required in (cfg_path, data_path, sha_path, ckpt_path):
        if not os.path.exists(required):
            raise UsageError(f"missing model file: {required}")
    values = read_config_file(cfg_path)
    missing = [key for key in FIELD_TYPES if key not in values]
    if missing:     # a default may differ from the value the model was trained with
        raise UsageError(f"{cfg_path} does not set {', '.join(missing)}")
    cfg = _train_config(values)
    with open(data_path) as fh:
        graph_dir = fh.read().strip()
    g = graphs.load_graph(graph_dir)
    with open(sha_path) as fh:
        trained_on = fh.read().strip()
    if graphs.fingerprint(g) != trained_on:
        raise UsageError(f"graph in {graph_dir} has changed since the model in "
                         f"{model_dir} was trained on it (sha256 {trained_on})")
    state = trainer.init_state(g, cfg)
    trainer.load_model(state, ckpt_path)
    return state, g


def cmd_gen_sbm(args) -> int:
    g = graphs.gen_sbm(args.per_block, args.blocks, args.p_in, args.p_out,
                       feat_dim=args.feat_dim, feat_signal=args.feat_signal,
                       seed=args.seed)
    graphs.save_graph(g, args.out)
    print(f"wrote {g.n_nodes} nodes, {g.n_edges} edges to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    g = graphs.load_graph(args.data)
    state = trainer.train(g, cfg)
    os.makedirs(args.out, exist_ok=True)
    trainer.write_metrics(state.history, os.path.join(args.out, "metrics.jsonl"))
    trainer.write_routing_csv(state.routing_log, os.path.join(args.out, "routing.csv"))
    trainer.save_model(state, os.path.join(args.out, "model.ckpt"))
    _write_run_config(cfg, os.path.join(args.out, "config.txt"))
    engine.atomic_write(os.path.join(args.out, "data_path.txt"),
                        os.path.abspath(args.data) + "\n")
    engine.atomic_write(os.path.join(args.out, "graph_sha256.txt"),
                        graphs.fingerprint(g) + "\n")
    weights = trainer.eval_edge_weights(state)
    gating.export_weights_tsv(g, weights, os.path.join(args.out, "weights.tsv"))
    alpha = trainer.eval_forward(state).alpha
    fusion.export_alpha_tsv(alpha, os.path.join(args.out, "alpha.tsv"))
    print(f"trained {cfg.epochs} epochs; final loss "
          f"{state.history[-1]['total']:.6f}; outputs in {args.out}")
    return 0


def cmd_embed(args) -> int:
    state, g = _load_model_dir(args.model_dir)
    emb = trainer.embed(state)
    out = args.out or os.path.join(args.model_dir, "embeddings.tsv")
    lines = ["\t".join(repr(float(x)) for x in row) for row in emb]
    engine.atomic_write(out, "\n".join(lines) + "\n")
    print(f"wrote {emb.shape[0]}x{emb.shape[1]} embeddings to {out}")
    return 0


def _require_labels(g: graphs.Graph) -> graphs.Graph:
    if g.labels is None:
        raise UsageError("this command requires labels.tsv in the graph directory")
    return g


def _labeled_embeddings(model_dir: str):
    """(embeddings, graph) of a trained model whose graph carries labels."""
    state, g = _load_model_dir(model_dir)
    _require_labels(g)
    return trainer.embed(state), g


def cmd_eval_probe(args) -> int:
    emb, g = _labeled_embeddings(args.model_dir)
    res = evaluation.linear_probe(emb, g.labels, g, repeats=args.repeats,
                                  seed=args.seed)
    report = {"accuracy_mean": res.mean, "accuracy_std": res.std,
              "per_split": list(res.accuracies)}
    if args.out:
        experiments.write_report_json(report, args.out)
    print(f"probe accuracy {res.mean:.4f} +/- {res.std:.4f} over {args.repeats} splits")
    return 0


def cmd_eval_cluster(args) -> int:
    emb, g = _labeled_embeddings(args.model_dir)
    res = evaluation.kmeans_eval(emb, g.labels, k=g.n_classes,
                                 seeds=tuple(range(args.seed, args.seed + 5)))
    report = {"acc": res.acc, "nmi": res.nmi, "ari": res.ari}
    if args.out:
        experiments.write_report_json(report, args.out)
    print(f"clustering ACC {res.acc:.4f} NMI {res.nmi:.4f} ARI {res.ari:.4f}")
    return 0


def cmd_eval_fewshot(args) -> int:
    emb, g = _labeled_embeddings(args.model_dir)
    res = evaluation.prototype_fewshot(emb, g.labels, k=args.k,
                                       n_tasks=args.tasks, seed=args.seed)
    report = {"k": args.k, "accuracy_mean": res.mean, "accuracy_std": res.std}
    if args.out:
        experiments.write_report_json(report, args.out)
    print(f"{args.k}-shot prototype accuracy {res.mean:.4f} +/- {res.std:.4f} "
          f"over {args.tasks} tasks")
    return 0


def cmd_bench_stability(args) -> int:
    cfg = build_config(args)
    g = graphs.load_graph(args.data)
    report = experiments.stability_bench(g, cfg, seeds=tuple(range(args.seeds)),
                                         include_homogeneous=args.include_homogeneous)
    os.makedirs(args.out, exist_ok=True)
    experiments.write_curves_csv(report.curve_rows(),
                                 os.path.join(args.out, "curves.csv"))
    experiments.write_report_json(
        {"volatility": report.volatility, "final_loss": report.final_loss,
         "volatility_ratio": report.volatility_ratio},
        os.path.join(args.out, "report.json"))
    print(f"volatility ratio (full/naive) {report.volatility_ratio:.4f}; "
          f"reports in {args.out}")
    return 0


def _study_inputs(args):
    """(graph, config, seeds) of an ``exp-*`` command."""
    cfg = build_config(args)
    return _require_labels(graphs.load_graph(args.data)), cfg, tuple(range(args.seeds))


def cmd_exp_oracle_weights(args) -> int:
    g, cfg, seeds = _study_inputs(args)
    if args.mode == "distinctiveness":
        rows = experiments.distinctiveness_study(g, cfg, pairs=args.pairs, seeds=seeds)
    else:
        cases = [(f"{p_coh}/{p_disp}", cfg,
                  experiments.OracleWeightSpec(mode="accuracy", p_coh_correct=p_coh,
                                               p_disp_correct=p_disp))
                 for p_coh, p_disp in args.pairs]
        rows = experiments.probe_study(g, cases, seeds=seeds)
    _write_rows(rows, args.out, "")
    return 0


def cmd_exp_noise(args) -> int:
    g, cfg, seeds = _study_inputs(args)
    rows = experiments.noise_robustness(g, cfg, ratios=args.ratios, stddev=args.stddev, seeds=seeds)
    _write_rows(rows, args.out, "ratio ")
    return 0


def cmd_exp_sensitivity(args) -> int:
    try:
        values = tuple(PARSERS[args.axis](x) for x in args.values.split(","))
    except (KeyError, ValueError):
        raise UsageError(f"--values: expected a comma list of "
                         f"{FIELD_TYPES[args.axis].__name__} values "
                         f"for --axis {args.axis}, got {args.values!r}") from None
    g, cfg, seeds = _study_inputs(args)
    rows = experiments.sensitivity_sweep(g, args.axis, values, cfg, seeds=seeds)
    _write_rows(rows, args.out, f"{args.axis}=")
    return 0


def _write_rows(rows, out_dir: str, label: str) -> None:
    """Write a study's report.json and report.csv; print one line per row."""
    os.makedirs(out_dir, exist_ok=True)
    experiments.write_report_json(rows, os.path.join(out_dir, "report.json"))
    flat = [{k: (v if not isinstance(v, list) else " ".join(map(str, v)))
             for k, v in row.items()} for row in rows]
    experiments.write_report_csv(flat, os.path.join(out_dir, "report.csv"))
    for row in rows:
        print(f"{label}{row['value']}: median accuracy {row['median_accuracy']:.4f}")


def cmd_motivate(args) -> int:
    g = _require_labels(graphs.load_graph(args.data))
    report = experiments.motivation_analysis(g, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    experiments.write_report_json(report, os.path.join(args.out, "report.json"))
    print(f"motivation report in {args.out}")
    return 0


def cmd_print_config(_args) -> int:
    for key, value in _config_items(TrainConfig()):
        print(f"{key} = {value}  # {OWNERS.get(key, 'trainer')}")
    return 0


COMMANDS = {
    "gen-sbm": cmd_gen_sbm,
    "train": cmd_train,
    "embed": cmd_embed,
    "eval-probe": cmd_eval_probe,
    "eval-cluster": cmd_eval_cluster,
    "eval-fewshot": cmd_eval_fewshot,
    "bench-stability": cmd_bench_stability,
    "exp-oracle-weights": cmd_exp_oracle_weights,
    "exp-noise": cmd_exp_noise,
    "exp-sensitivity": cmd_exp_sensitivity,
    "motivate": cmd_motivate,
    "print-config": cmd_print_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return COMMANDS[args.command](args)
    except (UsageError, graphs.GraphFormatError) as err:
        print(err, file=sys.stderr)
        return 1
    except (ValueError, OSError, trainer.TrainingError, engine.NonFiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
