import dataclasses
import json
import os
import shutil
import warnings

import numpy as np
import pytest

from adamore import cli, engine, graphs
from adamore.trainer import TrainConfig

TINY = ("--epochs", "1", "--hidden", "8", "--d-s", "3", "--edge-hidden", "8", "--n-exp", "2")
# a value unlike the default for every config key, cheap to train with TINY
NON_DEFAULT = {
    "epochs": 2, "lr": 0.01, "hidden": 6, "mask_ratio": 0.25, "gamma": 3.0,
    "gamma_svg": 2.0, "lambda_load": 0.2, "lambda_div": 0.0, "lambda_cls": 0.5,
    "tau": 0.75, "top_k": 1, "n_exp": 3, "d_s": 2, "edge_hidden": 4,
    "residual_kinds": ("gcn-layer", "gin0"), "diversity_targets": "both",
    "svg_steps": 0, "finetune_epochs": 1, "normalize_features": True, "seed": 3,
}


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "sbm"
    code = run_cli("gen-sbm", "--blocks", "2", "--per-block", "12", "--p-in", "0.6",
                   "--p-out", "0.1", "--feat-dim", "5", "--seed", "7",
                   "--out", str(d))
    assert code == 0
    return str(d)


@pytest.fixture(scope="module")
def model_dir(sbm_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "model"
    code = run_cli("train", "--data", sbm_dir, "--out", str(out),
                   "--epochs", "3", "--hidden", "8", "--d-s", "3",
                   "--edge-hidden", "8", "--n-exp", "3", "--top-k", "2",
                   "--lr", "0.01", "--seed", "1")
    assert code == 0
    return str(out)


def test_gen_sbm_writes_graph_dir(sbm_dir):
    assert os.path.exists(os.path.join(sbm_dir, "edges.tsv"))
    assert os.path.exists(os.path.join(sbm_dir, "features.tsv"))
    assert os.path.exists(os.path.join(sbm_dir, "labels.tsv"))


def test_train_outputs(model_dir):
    for name in ("metrics.jsonl", "routing.csv", "model.ckpt", "config.txt",
                 "weights.tsv", "alpha.tsv", "data_path.txt"):
        assert os.path.exists(os.path.join(model_dir, name)), name
    lines = open(os.path.join(model_dir, "metrics.jsonl")).read().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "l_mae", "l_load", "l_div", "l_svg", "total"}


def test_train_deterministic_outputs(sbm_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli("train", "--data", sbm_dir, "--out", str(out),
                       "--epochs", "2", "--hidden", "8", "--d-s", "3",
                       "--edge-hidden", "8", "--n-exp", "2", "--top-k", "1",
                       "--seed", "5")
        assert code == 0
        outs.append((out / "metrics.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_embed_command(model_dir, tmp_path):
    out = tmp_path / "emb.tsv"
    assert run_cli("embed", "--model-dir", model_dir, "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 24
    assert len(rows[0].split("\t")) == 16  # 2 * hidden


def test_eval_commands(model_dir, tmp_path):
    probe_out = tmp_path / "probe.json"
    assert run_cli("eval-probe", "--model-dir", model_dir, "--repeats", "2",
                   "--out", str(probe_out)) == 0
    report = json.loads(probe_out.read_text())
    assert 0.0 <= report["accuracy_mean"] <= 1.0

    cluster_out = tmp_path / "cluster.json"
    assert run_cli("eval-cluster", "--model-dir", model_dir,
                   "--out", str(cluster_out)) == 0
    report = json.loads(cluster_out.read_text())
    assert set(report) == {"acc", "nmi", "ari"}

    fewshot_out = tmp_path / "fewshot.json"
    assert run_cli("eval-fewshot", "--model-dir", model_dir, "--k", "1",
                   "--tasks", "5", "--out", str(fewshot_out)) == 0
    report = json.loads(fewshot_out.read_text())
    assert report["k"] == 1


def test_model_dir_rejects_a_changed_graph(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    gen = ("gen-sbm", "--blocks", "2", "--per-block", "8", "--p-in", "0.6",
           "--p-out", "0.1", "--feat-dim", "4", "--out", str(data))
    assert run_cli(*gen, "--seed", "0") == 0
    assert run_cli("train", "--data", str(data), "--out", str(run), "--epochs", "1",
                   "--hidden", "4", "--d-s", "2", "--edge-hidden", "4",
                   "--n-exp", "2", "--top-k", "1") == 0
    embed = ("embed", "--model-dir", str(run), "--out", str(tmp_path / "emb.tsv"))
    # rewriting the same graph keeps the model directory usable
    assert run_cli(*gen, "--seed", "0") == 0
    assert run_cli(*embed) == 0
    assert run_cli(*gen, "--seed", "7") == 0
    capsys.readouterr()
    assert run_cli(*embed) == 1
    assert "has changed" in capsys.readouterr().err
    assert run_cli("eval-probe", "--model-dir", str(run)) == 1
    (run / "graph_sha256.txt").unlink()
    assert run_cli(*embed) == 1
    assert "missing model file" in capsys.readouterr().err


def test_motivate_command(sbm_dir, tmp_path):
    out = tmp_path / "motivate"
    assert run_cli("motivate", "--data", sbm_dir, "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert "homophily" in report and "clustering" in report


def test_exp_sensitivity_single_value(sbm_dir, tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("exp-sensitivity", "--data", sbm_dir, "--out", str(out),
                   "--axis", "lambda_load", "--values", "0.1", "--seeds", "1",
                   "--epochs", "2", "--hidden", "8", "--d-s", "3",
                   "--edge-hidden", "8", "--n-exp", "2", "--top-k", "1")
    assert code == 0
    rows = json.loads((out / "report.json").read_text())
    assert len(rows) == 1
    assert (out / "report.csv").exists()


@pytest.mark.parametrize("axis, values", [("svg_steps", "0,1"),
                                          ("diversity_targets", "foundational,both")])
def test_exp_sensitivity_sweeps_an_ablation_axis(sbm_dir, tmp_path, axis, values):
    out = tmp_path / "sweep"
    assert run_cli("exp-sensitivity", "--data", sbm_dir, "--out", str(out), "--axis", axis,
                   "--values", values, "--seeds", "1", *TINY) == 0
    rows = json.loads((out / "report.json").read_text())
    assert [str(row["value"]) for row in rows] == values.split(",")


def test_exp_oracle_weights_accuracy_mode_jobs_agree(sbm_dir, tmp_path):
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = run_cli("exp-oracle-weights", "--data", sbm_dir, "--out", str(out),
                       "--mode", "accuracy", "--pairs", "1.0/1.0,0.6/0.6",
                       "--seeds", "2", "--jobs", jobs, "--epochs", "2",
                       "--hidden", "8", "--d-s", "3", "--edge-hidden", "8",
                       "--n-exp", "2", "--top-k", "1")
        assert code == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]
    rows = json.loads(reports[0])
    assert [row["value"] for row in rows] == ["1.0/1.0", "0.6/0.6"]
    for row in rows:
        assert len(row["per_seed"]) == 2
        assert row["median_accuracy"] == float(np.median(row["per_seed"]))


def test_print_config_lists_defaults(capsys):
    assert run_cli("print-config") == 0
    out = capsys.readouterr().out
    assert "lr = 3e-05  # trainer" in out
    assert "lambda_load = 0.1  # expert-moe" in out
    for f in ("epochs", "hidden", "tau", "top_k", "n_exp", "seed"):
        assert f in out


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli("frobnicate") == 1


def test_unknown_flag_exits_one(sbm_dir):
    assert run_cli("gen-sbm", "--bogus", "1") == 1


def test_missing_data_exits_one(tmp_path):
    assert run_cli("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")) == 1


def test_config_file_precedence(sbm_dir, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs=2\nhidden=8\nd_s=3\nedge_hidden=8\n"
                        "n_exp=2\ntop_k=1\nseed=3\n")
    out = tmp_path / "run"
    # the flag overrides the file's seed
    code = run_cli("train", "--data", sbm_dir, "--out", str(out),
                   "--config", str(cfg_file), "--seed", "9")
    assert code == 0
    text = (out / "config.txt").read_text()
    assert "seed=9" in text and "epochs=2" in text


def test_config_file_rejects_unknown_key(sbm_dir, tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("warp_speed=11\n")
    assert run_cli("train", "--data", sbm_dir, "--out", str(tmp_path / "x"),
                   "--config", str(cfg_file)) == 1


@pytest.mark.parametrize("line", ["epochs=abc", "lr=fast", "normalize_features=ture"])
def test_config_file_rejects_unparsable_value(sbm_dir, tmp_path, capsys, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"seed=3\n{line}\n")
    assert run_cli("train", "--data", sbm_dir, "--out", str(tmp_path / "x"),
                   "--config", str(cfg_file)) == 1
    assert f"{cfg_file}:2: invalid value" in capsys.readouterr().err


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
def test_every_config_key_survives_flag_config_file_and_model_dir(sbm_dir, tmp_path, field):
    value = NON_DEFAULT[field.name]
    assert value != field.default
    flag = ["--" + field.name.replace("_", "-")]
    if not isinstance(value, bool):
        flag.append(",".join(value) if isinstance(value, tuple) else str(value))
    argv = ["train", "--data", sbm_dir, "--out", str(tmp_path / "run"), *TINY, *flag]
    from_flags = cli.build_config(cli.build_parser().parse_args(argv))
    assert getattr(from_flags, field.name) == value
    assert run_cli(*argv) == 0
    read_back = cli.read_config_file(str(tmp_path / "run" / "config.txt"))
    assert read_back[field.name] == value and type(read_back[field.name]) is type(value)
    assert TrainConfig(**read_back) == from_flags
    assert run_cli("embed", "--model-dir", str(tmp_path / "run")) == 0


def test_config_file_booleans(tmp_path):
    cfg_file = tmp_path / "flags.cfg"
    for text, want in (("True", True), ("FALSE", False), ("yes", True), ("No", False),
                       ("1", True), ("0", False)):
        cfg_file.write_text(f"normalize_features={text}\n")
        assert cli.read_config_file(str(cfg_file)) == {"normalize_features": want}


def test_embed_names_a_truncated_checkpoint(model_dir, tmp_path, capsys):
    """A checkpoint cut at 0 or 5 bytes, inside its header or inside its
    payload fails with exit 2 and a message naming the file."""
    run = tmp_path / "run"
    shutil.copytree(model_dir, run)
    ckpt = run / "model.ckpt"
    whole = ckpt.read_bytes()
    header_end = 8 + int.from_bytes(whole[:8], "little")
    for cut in (0, 5, header_end - 10, len(whole) - 8):
        ckpt.write_bytes(whole[:cut])
        assert run_cli("embed", "--model-dir", str(run), "--out", str(tmp_path / "e.tsv")) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: truncated checkpoint" in err
        assert cut < header_end or "entry '" in err
    ckpt.write_bytes(whole)
    assert run_cli("embed", "--model-dir", str(run), "--out", str(tmp_path / "e.tsv")) == 0


def test_embed_refuses_a_config_that_lacks_keys(model_dir, tmp_path, capsys):
    """Without its tau= and hidden= lines, config.txt would fill both with
    defaults the model was perhaps not trained with: embed exits 1 naming
    the two keys and writes nothing."""
    run = tmp_path / "run"
    shutil.copytree(model_dir, run)
    cfg = run / "config.txt"
    lines = cfg.read_text().splitlines(keepends=True)
    cfg.write_text("".join(x for x in lines if not x.startswith(("tau=", "hidden="))))
    out = tmp_path / "e.tsv"
    assert run_cli("embed", "--model-dir", str(run), "--out", str(out)) == 1
    assert f"{cfg} does not set hidden, tau" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", ["bank_coh.2", "gate.0"])
def test_eval_passes_name_a_non_finite_op(model_dir, tmp_path, capsys, entry):
    """A checkpoint entry at 1e308 overflows the eval forward: embed and the
    eval commands exit 2 with a message naming the op, not a traceback, and
    no epoch, which a model loaded from its directory does not know."""
    run = tmp_path / "run"
    shutil.copytree(model_dir, run)
    ckpt = str(run / "model.ckpt")
    named = engine.load_checkpoint(ckpt)
    named[entry] = np.full_like(named[entry], 1e308)
    engine.save_checkpoint(ckpt, named)
    for command, *flags in (("embed", "--out", str(tmp_path / "e.tsv")),
                            ("eval-probe", "--repeats", "1"), ("eval-cluster",)):
        assert run_cli(command, "--model-dir", str(run), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite eval forward: operation '" in err, err
        assert "epoch" not in err, err
    assert not (tmp_path / "e.tsv").exists()


def test_motivate_names_an_overflowing_probe_op(tmp_path, capsys):
    """Features at 1e200 overflow the linear probe: motivate exits 2 with one
    line naming the op, not a traceback or a numpy warning."""
    g = graphs.gen_sbm(20, 2, 0.3, 0.05, seed=0)
    data = tmp_path / "huge"
    graphs.save_graph(dataclasses.replace(g, features=g.features * 1e200), str(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("motivate", "--data", str(data), "--out", str(tmp_path / "out")) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "operation '" in err and err.count("\n") == 1, err


def test_train_rejects_zero_hidden_width(sbm_dir, tmp_path, capsys):
    assert run_cli("train", "--data", sbm_dir, "--out", str(tmp_path / "x"),
                   "--hidden", "0") == 1
    assert "invalid configuration" in capsys.readouterr().err


def test_train_rejects_negative_seed_naming_the_key(sbm_dir, tmp_path, capsys):
    assert run_cli("train", "--data", sbm_dir, "--out", str(tmp_path / "x"),
                   "--seed", "-1") == 1
    assert "invalid configuration: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_help_everywhere_exits_zero():
    for cmd in cli.COMMANDS:
        with pytest.raises(SystemExit) as exc:
            run_cli(cmd, "--help")
        assert exc.value.code == 0


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_reports_are_strict_json(sbm_dir, tmp_path):
    out = tmp_path / "stability"
    # four epochs leave a one-point tail, so both volatilities are 0
    code = run_cli("bench-stability", "--data", sbm_dir, "--out", str(out),
                   "--epochs", "4", "--seeds", "2", "--hidden", "8", "--d-s", "3",
                   "--edge-hidden", "8", "--n-exp", "2", "--top-k", "1")
    assert code == 0
    assert _strict_json(out / "report.json")["volatility_ratio"] is None

    data = tmp_path / "small"
    assert run_cli("gen-sbm", "--blocks", "2", "--per-block", "10", "--p-in", "0.5",
                   "--p-out", "0.1", "--feat-dim", "6", "--seed", "0",
                   "--out", str(data)) == 0
    out = tmp_path / "motivate"
    assert run_cli("motivate", "--data", str(data), "--out", str(out)) == 0
    assert "homophily" in _strict_json(out / "report.json")
    # buckets without test nodes have no accuracy
    assert "null" in (out / "report.json").read_text()


@pytest.mark.parametrize("argv, flag", [
    (("exp-noise", "--ratios", "0,x"), "--ratios"),
    (("exp-oracle-weights", "--pairs", "0.9"), "--pairs"),
    (("exp-sensitivity", "--axis", "hidden", "--values", "8,x"), "--values"),
])
def test_malformed_list_flags_are_usage_errors(sbm_dir, tmp_path, capsys, argv, flag):
    code = run_cli(*argv, "--data", sbm_dir, "--out", str(tmp_path / "out"), "--epochs", "1")
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (("bench-stability", "--data", "{data}", "--out", "{out}", "--seeds", "0"), "--seeds"),
    (("exp-noise", "--data", "{data}", "--out", "{out}", "--seeds", "-1"), "--seeds"),
    (("eval-probe", "--model-dir", "{model}", "--repeats", "0"), "--repeats"),
    (("eval-fewshot", "--model-dir", "{model}", "--tasks", "0"), "--tasks"),
    (("eval-fewshot", "--model-dir", "{model}", "--k", "0"), "--k"),
    (("bench-stability", "--data", "{data}", "--out", "{out}", "--jobs", "0"), "--jobs"),
    (("exp-noise", "--data", "{data}", "--out", "{out}", "--jobs", "-2"), "--jobs"),
])
def test_counts_below_one_are_usage_errors(sbm_dir, model_dir, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code = run_cli(*(a.format(data=sbm_dir, out=out, model=model_dir) for a in argv))
    assert code == 1
    assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err
    assert not out.exists()
