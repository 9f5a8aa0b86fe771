import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from adamore import engine, gating, graphs, trainer
from adamore.engine import Tensor
from adamore.trainer import TrainConfig


def tiny_cfg(**kw):
    base = dict(epochs=3, lr=0.01, hidden=8, d_s=3, edge_hidden=8, n_exp=3,
                top_k=2, seed=0, finetune_epochs=4)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def sbm():
    return graphs.gen_sbm(12, 2, 0.6, 0.1, feat_dim=5, feat_signal=2.0, seed=1)


# ---------------------------------------------------------------------------
# config validation

def test_config_defaults_match_contract():
    cfg = TrainConfig()
    assert cfg.epochs == 200
    assert cfg.lr == 3e-5
    assert cfg.hidden == 128
    assert cfg.mask_ratio == 0.5
    assert cfg.gamma == 2.0
    assert cfg.gamma_svg == 1.0
    assert cfg.lambda_load == 0.1
    assert cfg.lambda_div == 0.1
    assert cfg.lambda_cls == 1.0
    assert cfg.tau == 0.5
    assert cfg.top_k == 2 and cfg.n_exp == 4
    assert cfg.d_s == 8


@pytest.mark.parametrize("bad", [
    dict(mask_ratio=0.0), dict(mask_ratio=1.0), dict(epochs=0),
    dict(lambda_load=-0.1), dict(tau=0.0), dict(top_k=5),
    dict(diversity_targets="nope"), dict(residual_kinds=("mystery",)),
    dict(hidden=0), dict(edge_hidden=0), dict(d_s=0), dict(lr=0.0), dict(lr=-0.01),
    dict(gamma=0.0), dict(gamma_svg=-2.0), dict(svg_steps=-1), dict(finetune_epochs=-1),
    dict(lambda_load=float("nan")), dict(lr=float("inf")), dict(gamma=float("inf")),
    dict(seed=-1),
])
def test_config_rejects_invalid(bad):
    with pytest.raises(ValueError):
        tiny_cfg(**{k: v for k, v in bad.items()})


# ---------------------------------------------------------------------------
# masking

def test_mask_plan_size(sbm):
    plan = trainer.sample_mask(np.random.default_rng(0), sbm.n_nodes, 0.5)
    assert plan.size == round(0.5 * sbm.n_nodes)


def test_masked_input_substitutes_token(sbm):
    token = engine.zeros_param((1, sbm.feat_dim))
    token.values = np.full((1, sbm.feat_dim), 7.0)
    plan = np.array([0, 3])
    features = sbm.features.copy()
    x_gate, x = trainer.masked_input(features, plan, token)
    assert np.allclose(x.values[0], 7.0)
    assert np.allclose(x.values[3], 7.0)
    assert np.array_equal(x.values[1], sbm.features[1])
    assert np.array_equal(x_gate[[0, 3]], np.zeros((2, sbm.feat_dim)))
    assert np.array_equal(x_gate[1], sbm.features[1])
    assert np.array_equal(features, sbm.features)       # the argument is left as it was


def test_masked_rows_never_enter_forward(sbm):
    """The masked forward reads nothing of the masked rows, in the gate or
    the experts: poisoning them leaves the loss bit-identical."""
    cfg = tiny_cfg()
    model = trainer.init_state(sbm, cfg).model
    plan = trainer.sample_mask(np.random.default_rng(3), sbm.n_nodes, 0.5)

    def loss():
        engine.reset_tape()
        fwd = trainer.full_forward(model, np.random.default_rng(0), plan)
        return trainer.mae_loss(fwd.h_final, model.decoder, sbm.features,
                                plan, cfg.gamma).item()

    clean = loss()
    poisoned = sbm.features.copy()
    poisoned[plan] = 1e300
    model.graph = replace(sbm, features=poisoned)
    assert loss() == clean


def test_mae_loss_rejects_empty_mask(sbm):
    cfg = tiny_cfg()
    state = trainer.init_state(sbm, cfg)
    h = Tensor(np.ones((sbm.n_nodes, 2 * cfg.hidden)))
    with pytest.raises(ValueError):
        trainer.mae_loss(h, state.model.decoder, sbm.features,
                         np.array([], dtype=int), 2.0)


def test_mae_loss_closed_form_half_cosine():
    # constant decoder output at 60 degrees from every target row
    dec = engine.MLP(
        w1=Tensor(np.zeros((4, 3))), b1=Tensor(np.zeros((1, 3))),
        w2=Tensor(np.zeros((3, 2))), b2=Tensor(np.array([[0.5, np.sqrt(3.0) / 2.0]])))
    x_orig = np.tile([[1.0, 0.0]], (6, 1))
    h = Tensor(np.zeros((6, 4)))
    loss = trainer.mae_loss(h, dec, x_orig, np.arange(6), gamma=2.0)
    assert abs(loss.item() - 0.75) < 1e-7


def test_composite_loss_arithmetic():
    cfg = tiny_cfg(lambda_load=0.1, lambda_div=0.1)
    out = trainer.composite_loss(Tensor([[0.8]]), Tensor([[1.0]]), Tensor([[0.5]]), cfg)
    assert abs(out.item() - 0.95) < 1e-12
    bare = trainer.composite_loss(Tensor([[0.8]]), Tensor([[1.0]]), Tensor([[0.5]]),
                                  tiny_cfg(lambda_load=0.0, lambda_div=0.0))
    assert abs(bare.item() - 0.8) < 1e-12


# ---------------------------------------------------------------------------
# alternating isolation

def test_parameter_groups_disjoint(sbm):
    state = trainer.init_state(sbm, tiny_cfg())
    gating_ids = {id(p) for p in state.model.gating_parameters()}
    main_ids = {id(p) for p in state.model.main_parameters()}
    assert not gating_ids & main_ids


def test_svg_step_touches_only_gating(sbm):
    state = trainer.init_state(sbm, tiny_cfg())
    before_main = [p.values.copy() for p in state.model.main_parameters()]
    before_gate = [p.values.copy() for p in state.model.gating_parameters()]
    trainer.svg_step(state)
    for p, old in zip(state.model.main_parameters(), before_main):
        assert np.array_equal(p.values, old)
        assert p.grad is None
    moved = any(not np.array_equal(p.values, old)
                for p, old in zip(state.model.gating_parameters(), before_gate))
    assert moved


def test_reconstruction_step_keeps_gating_fixed(sbm):
    state = trainer.init_state(sbm, tiny_cfg())
    trainer.svg_step(state)
    after_svg = [p.values.copy() for p in state.model.gating_parameters()]
    trainer.reconstruction_step(state)
    for p, snap in zip(state.model.gating_parameters(), after_svg):
        assert np.array_equal(p.values, snap)


def test_stale_gradients_do_not_leak_between_steps(sbm):
    """Step-2 gradients on gating params must not feed the next svg update."""
    cfg = tiny_cfg()
    a = trainer.init_state(sbm, cfg)
    trainer.train_epoch(a)
    grads_before = [p.grad for p in a.model.gating_parameters()]
    trainer.svg_step(a)
    # a fresh state run twice gives the same trajectory: leakage would break this
    b = trainer.init_state(sbm, cfg)
    trainer.train_epoch(b)
    trainer.svg_step(b)
    for pa, pb in zip(a.model.gating_parameters(), b.model.gating_parameters()):
        assert np.array_equal(pa.values, pb.values)
    del grads_before


def _named_grads(model, params):
    names = {id(p): name for name, p in model.named_parameters().items()}
    return {names[id(p)]: p.grad for p in params}


def _tape_after(monkeypatch, module, name, counts):
    """Record the tape length each time ``module.name`` returns."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        counts.append(len(engine.current_tape()))
        return out

    monkeypatch.setattr(module, name, counted)


def test_each_step_differentiates_only_what_it_updates(sbm, monkeypatch):
    state = trainer.init_state(sbm, tiny_cfg())
    trainer.svg_step(state)
    trainer.reconstruction_step(state)
    gate = _named_grads(state.model, state.model.gating_parameters())
    assert gate and all(g is None for g in gate.values()), gate.keys()

    trainer.finetune_fewshot(state, sbm, support_set(sbm))
    main = _named_grads(state.model, state.model.main_parameters())
    assert all(g is None for g in main.values())

    forward_tapes, logit_tapes = [], []
    _tape_after(monkeypatch, trainer, "full_forward", forward_tapes)
    _tape_after(monkeypatch, gating, "edge_logits", logit_tapes)
    trainer.embed(state)
    trainer.eval_edge_weights(state)
    assert forward_tapes == [0]
    assert logit_tapes == [0, 0]     # inside embed, then eval_edge_weights
    assert len(engine.current_tape()) == 0


def test_step_tape_record_counts(sbm, monkeypatch):
    """Pinned census: a re-materialized edge message or a frozen group that
    is taped again changes these counts."""
    state = trainer.init_state(sbm, tiny_cfg(residual_kinds=(
        "gcn-layer", "sage-mean", "gin0", "gat-1head")))
    at_backward, at_forward = [], []
    _tape_after(monkeypatch, trainer, "full_forward", at_forward)
    original = engine.backward
    monkeypatch.setattr(engine, "backward", lambda loss: (
        at_backward.append(len(engine.current_tape())), original(loss)))
    trainer.svg_step(state)
    assert at_forward == []                  # the svg step has its own forward
    trainer.reconstruction_step(state)
    assert len(at_forward) == 1
    trainer.embed(state)
    trainer.finetune_fewshot(state, sbm, support_set(sbm),
                             tiny_cfg(finetune_epochs=1))
    assert at_backward == [34, 222, 213]   # svg, recon, fine-tune
    assert at_forward[1] == 0                # embed


def test_recon_edge_weights_ignore_the_token_and_the_masked_rows(sbm, monkeypatch):
    """The recon step's gate reads the features with the masked rows zeroed:
    its edge weights are constants that neither the mask token nor the
    masked rows' features move."""
    state = trainer.init_state(sbm, tiny_cfg())
    model = state.model
    weights, masks = [], []
    original, sample = gating.build_views, trainer.sample_mask
    monkeypatch.setattr(gating, "build_views", lambda g, w: (
        weights.append(w), original(g, w))[1])
    monkeypatch.setattr(trainer, "sample_mask", lambda *args: (
        masks.append(sample(*args)), masks[-1])[1])

    def recon_mask():
        state.rng = np.random.default_rng(5)
        trainer.reconstruction_step(state)
        return masks[-1]

    model.mask_token.values = np.full((1, sbm.feat_dim), 3.0)
    mask = recon_mask()
    model.mask_token.values = np.zeros((1, sbm.feat_dim))
    poked = sbm.features.copy()
    poked[mask] = -5.0
    model.graph = replace(sbm, features=poked)
    assert np.array_equal(recon_mask(), mask)

    assert len(weights) == 2
    assert np.array_equal(weights[0].values, weights[1].values)
    assert not any(w.requires_grad for w in weights)


def test_recon_step_forms_no_per_edge_gradient(sbm, monkeypatch):
    """With constant edge weights the recon step tapes nothing of the edge
    gate: no pair_mlp record, so no per-edge gate backward runs."""
    state = trainer.init_state(sbm, tiny_cfg())
    state.model.mask_token.values = np.full((1, sbm.feat_dim), 0.5)
    records = []
    original = engine.backward
    monkeypatch.setattr(engine, "backward", lambda loss: (
        records.extend(engine.current_tape().records), original(loss)))
    trainer.reconstruction_step(state)
    ops = [rec[0] for rec in records]
    assert "edge_sum" in ops and "pair_mlp" not in ops


def test_recon_tape_holds_no_embedding_square(sbm, monkeypatch):
    """With F < d_e the diversity term works in F x F blocks: no record of
    the recon step is d_e x d_e, as a Gram of projected outputs would be."""
    cfg = tiny_cfg()
    assert sbm.feat_dim < cfg.hidden and cfg.diversity_targets == "foundational"
    state = trainer.init_state(sbm, cfg)
    shapes = []
    original = engine.backward
    monkeypatch.setattr(engine, "backward", lambda loss: (
        shapes.extend(rec[1].shape for rec in engine.current_tape().records),
        original(loss)))
    trainer.reconstruction_step(state)
    assert shapes and (cfg.hidden, cfg.hidden) not in shapes


def test_svg_tape_propagates_in_the_filter_basis(sbm, monkeypatch):
    """The cross-filter loss stays in the F + 1 wide filter basis: no tensor
    on the svg tape is d_e wide, as a projected hop, its complement or a
    d_e-wide edge sum would be."""
    cfg = tiny_cfg(hidden=11)
    assert cfg.hidden not in (sbm.feat_dim, sbm.feat_dim + 1, cfg.d_s,
                              cfg.edge_hidden, cfg.n_exp)
    state = trainer.init_state(sbm, cfg)
    widths = []
    original = engine.backward
    monkeypatch.setattr(engine, "backward", lambda loss: (
        widths.extend(t.shape[1] for rec in engine.current_tape().records
                      for t in (rec[1],) + rec[2]),
        original(loss)))
    trainer.svg_step(state)
    assert widths and cfg.hidden not in widths


def test_gate_tape_holds_no_edge_concatenation(sbm, monkeypatch):
    """The gate's first layer runs on node rows: no tensor on the svg or
    recon tape is m x 2(F + d_s), the per-edge input of a concatenated MLP.
    Its hidden layer runs in row blocks: none is 2m x edge_hidden either."""
    cfg = tiny_cfg()
    state = trainer.init_state(sbm, cfg)
    shapes = []
    original = engine.backward
    monkeypatch.setattr(engine, "backward", lambda loss: (
        shapes.extend(t.shape for rec in engine.current_tape().records
                      for t in (rec[1],) + rec[2]),
        original(loss)))
    trainer.svg_step(state)
    trainer.reconstruction_step(state)
    assert shapes and (sbm.n_edges, 2 * (sbm.feat_dim + cfg.d_s)) not in shapes
    assert (2 * sbm.n_edges, cfg.edge_hidden) not in shapes


@pytest.mark.parametrize("poisoned", ["gate", "main", "finetune"])
def test_failed_step_restores_gradient_flags(sbm, poisoned):
    """A step aborted by a non-finite value leaves no parameter frozen."""
    state = trainer.init_state(sbm, tiny_cfg())
    model = state.model
    if poisoned == "gate":
        target, step = model.gate.w1, trainer.svg_step
    elif poisoned == "finetune":
        target = model.gate.w1
        step = lambda state: trainer.finetune_fewshot(state, sbm, support_set(sbm))
    else:
        target, step = model.banks[0].proj_w, trainer.reconstruction_step
    target.values = np.full_like(target.values, np.nan)
    with pytest.raises(trainer.TrainingError):
        step(state)
    assert all(p.requires_grad for p in model.all_parameters())


# ---------------------------------------------------------------------------
# training loop

def test_train_history_schema_and_determinism(sbm):
    cfg = tiny_cfg()
    s1 = trainer.train(sbm, cfg)
    s2 = trainer.train(sbm, cfg)
    assert len(s1.history) == cfg.epochs
    assert list(s1.history[0]) == ["epoch", "l_svg", "l_mae", "l_load", "l_div", "total"]
    assert trainer.metrics_jsonl(s1.history) == trainer.metrics_jsonl(s2.history)


def test_graphs_of_equal_size_trained_in_turn_log_what_they_log_alone(sbm):
    """Two graphs with the same n and m but different edges, trained epoch by
    epoch in turn in one process, each give the records they give alone:
    no sparse layout of one graph serves the other."""
    perm = np.random.default_rng(5).permutation(sbm.n_nodes)
    other = graphs.make_graph(sbm.n_nodes, perm[sbm.edges], sbm.features, sbm.labels)
    assert other.n_edges == sbm.n_edges and not np.array_equal(other.edges, sbm.edges)
    cfg = tiny_cfg(residual_kinds=("gcn-layer", "sage-mean", "gin0", "gat-1head"))
    alone = [trainer.metrics_jsonl(trainer.train(g, cfg).history) for g in (sbm, other)]
    assert alone[0] != alone[1]
    states = [trainer.init_state(g, cfg) for g in (sbm, other)]
    for _ in range(cfg.epochs):
        for state in states:
            trainer.train_epoch(state)
    assert [trainer.metrics_jsonl(state.history) for state in states] == alone


def test_training_reduces_reconstruction_loss(sbm):
    cfg = tiny_cfg(epochs=25, lr=0.02)
    state = trainer.train(sbm, cfg)
    assert state.history[-1]["l_mae"] < state.history[0]["l_mae"]


def test_embed_shape_and_determinism(sbm):
    cfg = tiny_cfg()
    state = trainer.train(sbm, cfg)
    e1 = trainer.embed(state)
    e2 = trainer.embed(state)
    assert e1.shape == (sbm.n_nodes, 2 * cfg.hidden)
    assert np.array_equal(e1, e2)


def test_disabled_residual_paths_are_equivalent(sbm):
    cfg = tiny_cfg(residual_kinds=("gcn-layer", "gin0"))
    state = trainer.init_state(sbm, cfg)
    for gamma in state.model.pools[0].gammas + state.model.pools[1].gammas:
        gamma.values = np.zeros((1, 1))
    via_zero_gamma = trainer.embed(state)
    for pool in state.model.pools:
        pool.kinds, pool.params, pool.gammas = (), [], []
    via_empty_pool = trainer.embed(state)
    assert np.array_equal(via_zero_gamma, via_empty_pool)


def test_alpha_override_reproduces_single_view_arms(sbm):
    cfg = tiny_cfg()
    state = trainer.train(sbm, cfg)
    coh_only = trainer.embed(state, alpha_override=np.ones(sbm.n_nodes))
    assert not coh_only[:, cfg.hidden:].any()
    disp_only = trainer.embed(state, alpha_override=np.zeros(sbm.n_nodes))
    assert not disp_only[:, :cfg.hidden].any()
    static = trainer.embed(state, alpha_override=np.full(sbm.n_nodes, 0.5))
    full = trainer.embed(state)
    assert static.shape == full.shape


def test_eval_edge_weights_are_the_noise_free_gate(sbm):
    state = trainer.train(sbm, tiny_cfg(epochs=2))
    model = state.model
    logits = gating.edge_logits(model.gate, Tensor(sbm.features), model.s, sbm)
    want = expit(logits.values / state.model.cfg.tau).ravel()
    assert len(engine.current_tape()) > 0      # the reference above was taped
    assert np.array_equal(trainer.eval_edge_weights(state), want)
    assert len(engine.current_tape()) == 0


def test_fixed_weights_bypass_the_gate(sbm):
    cfg = tiny_cfg(epochs=2)
    w = np.linspace(0.1, 0.9, sbm.n_edges)
    state = trainer.train(sbm, cfg, fixed_weights=w)
    assert all(rec["l_svg"] == 0.0 for rec in state.history)
    assert np.array_equal(trainer.eval_edge_weights(state), w)


def test_nan_abort_names_epoch_and_component(sbm):
    cfg = tiny_cfg()
    state = trainer.init_state(sbm, cfg)
    state.model.decoder.w1.values = np.full_like(state.model.decoder.w1.values, 1e308)
    state.epoch = 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # numpy's overflow warning must not escape
        with pytest.raises(trainer.TrainingError) as err:
            trainer.reconstruction_step(state)
    assert "epoch 7: non-finite l_mae" in str(err.value)


def test_eval_passes_abort_naming_the_pass(sbm):
    """An eval pass names itself but no epoch: a model loaded from a
    checkpoint keeps no count of the epochs it trained."""
    state = trainer.init_state(sbm, tiny_cfg())
    state.model.gate.w1.values = np.full_like(state.model.gate.w1.values, 1e308)
    state.epoch = 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # numpy's overflow warning must not escape
        for run, component in ((trainer.eval_edge_weights, "eval edge weights"),
                               (trainer.embed, "eval forward")):
            with pytest.raises(trainer.TrainingError, match=f"^non-finite {component}: "):
                run(state)
    assert all(p.requires_grad for p in state.model.all_parameters())


# ---------------------------------------------------------------------------
# few-shot fine-tuning

def support_set(g, k=2, seed=0):
    rng = np.random.default_rng(seed)
    idx = []
    for c in range(g.n_classes):
        members = np.flatnonzero(g.labels == c)
        idx.extend(rng.choice(members, size=k, replace=False).tolist())
    return np.array(sorted(idx))


def test_finetune_freezes_expert_parameters(sbm):
    cfg = tiny_cfg(epochs=2)
    state = trainer.train(sbm, cfg)
    frozen_before = [p.values.copy() for p in state.model.main_parameters()]
    gate_before = [p.values.copy() for p in state.model.gating_parameters()]
    trainer.finetune_fewshot(state, sbm, support_set(sbm), cfg)
    for p, old in zip(state.model.main_parameters(), frozen_before):
        assert np.array_equal(p.values, old)
    assert state.model.head_w is not None
    moved = any(not np.array_equal(p.values, old)
                for p, old in zip(state.model.gating_parameters(), gate_before))
    assert moved


def test_finetune_lambda_cls_zero_never_trains_head(sbm):
    cfg = tiny_cfg(epochs=1, lambda_cls=0.0)
    state = trainer.train(sbm, cfg)
    state.model.add_head(sbm.n_classes, state.rng)
    head_init = state.model.head_w.values.copy()
    trainer.finetune_fewshot(state, sbm, support_set(sbm), cfg)
    # the head only enters through the classification term; with it off the
    # gradients are absent and the head stays at its initialization
    assert np.array_equal(state.model.head_w.values, head_init)
    assert state.model.head_w.shape == (2 * cfg.hidden, sbm.n_classes)


def test_finetune_validates_support(sbm):
    cfg = tiny_cfg(epochs=1)
    state = trainer.train(sbm, cfg)
    with pytest.raises(ValueError):
        trainer.finetune_fewshot(state, sbm, np.array([], dtype=int), cfg)
    only_class0 = np.flatnonzero(sbm.labels == 0)[:2]
    with pytest.raises(ValueError) as err:
        trainer.finetune_fewshot(state, sbm, only_class0, cfg)
    assert "misses classes" in str(err.value)


def test_finetune_refuses_a_support_that_is_not_node_indices(sbm):
    # a negative index used to fail only in the first step, after the head
    # was added; a boolean mask used to read as the nodes 0 and 1
    cfg = tiny_cfg(epochs=1)
    state = trainer.train(sbm, cfg)
    support = support_set(sbm)
    mask = np.zeros(sbm.n_nodes, dtype=bool)
    mask[support] = True
    for bad in (np.append(support, -1), np.append(support, sbm.n_nodes), mask):
        with pytest.raises(ValueError, match="node indices"):
            trainer.finetune_fewshot(state, sbm, bad, cfg)
        assert state.model.head_w is None


def test_epoch_and_finetune_build_no_scipy_matrix(monkeypatch):
    """After a first epoch on the criterion-8 graph, a training epoch and a
    fine-tune run every sparse product on the indexes' own layouts."""
    import scipy.sparse._compressed as compressed

    g = graphs.gen_sbm(100, 2, 0.5, 0.05, feat_dim=16, feat_signal=2.0, seed=0)
    state = trainer.init_state(g, TrainConfig(epochs=2, hidden=128, seed=0, finetune_epochs=2))
    trainer.train_epoch(state)
    built = []
    init = compressed._cs_matrix.__init__
    monkeypatch.setattr(compressed._cs_matrix, "__init__",
                        lambda self, *args, **kw: (built.append(type(self)),
                                                   init(self, *args, **kw))[1])
    trainer.train_epoch(state)
    trainer.finetune_fewshot(state, g, support_set(g, k=1))
    assert built == []


def test_finetune_rejects_labels_of_another_graph(sbm):
    cfg = tiny_cfg(epochs=1)
    state = trainer.train(sbm, cfg)
    other = graphs.gen_sbm(10, 2, 0.6, 0.1, feat_dim=5, seed=2)
    with pytest.raises(ValueError, match="node count"):
        trainer.finetune_fewshot(state, other, np.array([0, 10]), cfg)


def test_finetune_reconstructs_the_features_the_model_trained_on(sbm):
    # under normalize_features the model holds a normalized copy of the
    # graph; the caller's graph only lends its labels, so fine-tuning with it
    # must match fine-tuning with the model's own graph bit for bit
    cfg = tiny_cfg(epochs=1, normalize_features=True)
    tuned = []
    for use_model_graph in (False, True):
        state = trainer.train(sbm, cfg)
        g = state.model.graph if use_model_graph else sbm
        trainer.finetune_fewshot(state, g, support_set(sbm), cfg)
        tuned.append([p.values for p in state.model.head_parameters()
                      + state.model.gating_parameters()])
    for a, b in zip(*tuned):
        assert np.array_equal(a, b)


def test_normalized_features_scale_a_row_whose_norm_overflows():
    """A feature row whose norm overflows still comes out unit-norm, with no
    warning; a row with a finite norm is divided by it."""
    g = graphs.make_graph(2, [[0, 1]], np.array([[1e200, 2e200], [3.0, 4.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trainer.training_graph(g, tiny_cfg(normalize_features=True)).features
    assert np.allclose(got[0], [1 / np.sqrt(5), 2 / np.sqrt(5)], rtol=1e-15, atol=0)
    assert np.array_equal(got[1], [0.6, 0.8])


# ---------------------------------------------------------------------------
# naive baseline

def test_naive_baseline_deterministic_curves(sbm):
    cfg = tiny_cfg(epochs=4)
    a = trainer.naive_moe_baseline(sbm, cfg)
    b = trainer.naive_moe_baseline(sbm, cfg)
    assert a == b
    assert len(a) == 4
    assert all(rec["total"] == rec["l_mae"] for rec in a)


def test_naive_baseline_honours_normalize_features(sbm):
    norms = np.linalg.norm(sbm.features, axis=1, keepdims=True)
    unit = graphs.make_graph(sbm.n_nodes, sbm.edges, sbm.features / norms,
                             labels=sbm.labels)
    want = trainer.naive_moe_baseline(unit, tiny_cfg(epochs=3))
    got = trainer.naive_moe_baseline(sbm, tiny_cfg(epochs=3, normalize_features=True))
    assert got == want
    assert got != trainer.naive_moe_baseline(sbm, tiny_cfg(epochs=3))


def test_naive_baseline_homogeneous_variant(sbm):
    cfg = tiny_cfg(epochs=2)
    hom = trainer.naive_moe_baseline(sbm, cfg, kinds=("gcn-layer",) * 4)
    het = trainer.naive_moe_baseline(sbm, cfg)
    assert len(hom) == 2 and len(het) == 2
    assert hom != het


def test_naive_baseline_refuses_an_empty_expert_list(sbm):
    with pytest.raises(ValueError, match="flat MoE needs at least one expert"):
        trainer.naive_moe_baseline(sbm, tiny_cfg(epochs=2), kinds=())


# ---------------------------------------------------------------------------
# persistence

def test_metrics_jsonl_roundtrip(tmp_path, sbm):
    import json
    cfg = tiny_cfg(epochs=2)
    state = trainer.train(sbm, cfg)
    path = tmp_path / "metrics.jsonl"
    trainer.write_metrics(state.history, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "l_mae", "l_load", "l_div", "l_svg", "total"}


def test_routing_csv(tmp_path, sbm):
    cfg = tiny_cfg(epochs=2)
    state = trainer.train(sbm, cfg)
    path = tmp_path / "routing.csv"
    trainer.write_routing_csv(state.routing_log, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,channel,expert,f_k,P_k"
    assert len(lines) == 1 + 2 * cfg.epochs * cfg.n_exp


def test_checkpoint_roundtrip_restores_embeddings(tmp_path, sbm):
    cfg = tiny_cfg(epochs=3)
    state = trainer.train(sbm, cfg)
    want = trainer.embed(state)
    path = tmp_path / "model.ckpt"
    trainer.save_model(state, str(path))
    fresh = trainer.init_state(sbm, cfg)
    assert not np.array_equal(trainer.embed(fresh), want)
    trainer.load_model(fresh, str(path))
    assert np.array_equal(trainer.embed(fresh), want)


def test_named_parameters_keep_the_checkpoint_names_in_order(sbm):
    """Checkpoint entries are written in this order under these names; a
    model that renames or reorders them writes other checkpoint bytes."""
    cfg = tiny_cfg(residual_kinds=("gcn-layer", "gat-1head"))
    names = list(trainer.init_state(sbm, cfg).model.named_parameters())
    assert names == [
        "gate.0", "gate.1", "gate.2", "gate.3",
        "bank_coh.0", "bank_coh.1", "bank_coh.2", "bank_coh.3",
        "bank_disp.0", "bank_disp.1", "bank_disp.2", "bank_disp.3",
        "decoder.0", "decoder.1", "decoder.2", "decoder.3",
        "pool_coh.0.w", "pool_coh.0.b", "pool_coh.1.w", "pool_coh.1.a_src",
        "pool_coh.1.a_dst", "pool_coh.gamma.0", "pool_coh.gamma.1",
        "pool_disp.0.w", "pool_disp.0.b", "pool_disp.1.w", "pool_disp.1.a_src",
        "pool_disp.1.a_dst", "pool_disp.gamma.0", "pool_disp.gamma.1",
        "mask_token"]


def test_load_model_rejects_a_checkpoint_missing_a_parameter(tmp_path, sbm):
    state = trainer.init_state(sbm, tiny_cfg())
    named = {name: p.values for name, p in state.model.named_parameters().items()
             if name != "decoder.0"}
    path = tmp_path / "model.ckpt"
    engine.save_checkpoint(str(path), named)
    with pytest.raises(ValueError, match="decoder.0"):
        trainer.load_model(trainer.init_state(sbm, tiny_cfg()), str(path))


@pytest.mark.parametrize("case", ["empty-pool", "residual-one-kind", "residual-two-kinds",
                                  "no-svg", "two-svg"])
def test_config_values_the_acceptance_suite_never_trains(sbm, case):
    overrides = {
        "empty-pool": dict(residual_kinds=()),
        "residual-one-kind": dict(diversity_targets="residual"),
        "residual-two-kinds": dict(diversity_targets="residual",
                                   residual_kinds=("gcn-layer", "gin0")),
        "no-svg": dict(svg_steps=0),
        "two-svg": dict(svg_steps=2),
    }[case]
    cfg = tiny_cfg(**overrides)
    state = trainer.init_state(sbm, cfg)
    gate_init = {name: p.values.copy()
                 for name, p in state.model.named_parameters().items()
                 if name.startswith("gate.")}
    for _ in range(cfg.epochs):
        trainer.train_epoch(state)
    l_div = [rec["l_div"] for rec in state.history]
    if case == "empty-pool":
        assert not [name for name in state.model.named_parameters() if name.startswith("pool_")]
        assert np.isfinite(trainer.embed(state)).all()
    elif case == "residual-one-kind":
        assert l_div == [0.0] * cfg.epochs
    elif case == "residual-two-kinds":
        foundational = trainer.train(
            sbm, tiny_cfg(**{**overrides, "diversity_targets": "foundational"}))
        assert l_div != [rec["l_div"] for rec in foundational.history]
    elif case == "no-svg":
        named = state.model.named_parameters()
        assert all(np.array_equal(named[name].values, v) for name, v in gate_init.items())
        assert [rec["l_svg"] for rec in state.history] == [0.0] * cfg.epochs
    else:
        assert state.adam_svg.step == 2 * cfg.epochs
