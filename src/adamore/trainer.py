"""Unsupervised training loop: masked reconstruction with alternating steps.

Each epoch runs two isolated optimization steps. Step 1 updates only the
edge-gating MLP by the cross-filter reconstruction loss; it builds its own
views and detached backbone targets and never runs the full forward.
Step 2 resamples the node mask, substitutes a learnable mask token for
masked feature rows, and updates every main-model parameter (gating
excluded) by the composite masked-reconstruction objective. The
fusion coefficient is recomputed once per epoch from eval-mode edge weights
and the current cohesive embeddings, and is constant on the tape. Every
step freezes the parameter groups it does not update, so its tape and
backward hold only what it differentiates; eval passes record nothing.
Every pass reads its edge weights from one gate path, :func:`_edge_weights`,
and the gate reads a constant array there, never a taped input: the raw
features in step 1 and the eval passes, and in the masked steps (step 2
and fine-tuning) the features with the masked rows zeroed, so it sees
neither the masked features nor the token. With the gate frozen in step 2,
that step's edge weights are constants and nothing of the gate is taped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import engine, experts, filters, fusion, gating, graphs
from .engine import AdamState, Tensor
from .experts import ExpertBank, ResidualPool, RoutingStats
from .filters import FilterSpec
from .graphs import Graph


class TrainingError(RuntimeError):
    """Training aborted; message names the epoch and loss component."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 3e-5
    hidden: int = 128            # d_e; the full-scale setting is 1024
    mask_ratio: float = 0.5
    gamma: float = 2.0
    gamma_svg: float = 1.0
    lambda_load: float = 0.1
    lambda_div: float = 0.1
    lambda_cls: float = 1.0
    tau: float = 0.5
    top_k: int = 2
    n_exp: int = 4
    d_s: int = 8
    edge_hidden: int = 64
    residual_kinds: tuple[str, ...] = ("gat-1head",)
    diversity_targets: str = "foundational"   # foundational | residual | both
    svg_steps: int = 1
    finetune_epochs: int = 30
    normalize_features: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "hidden", "edge_hidden", "d_s"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("svg_steps", "finetune_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in (0, 1)")
        for name in ("lambda_load", "lambda_div", "lambda_cls"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("lr", "gamma", "gamma_svg", "tau"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 1 <= self.top_k <= self.n_exp:
            raise ValueError("top_k must lie in [1, n_exp]")
        if self.diversity_targets not in ("foundational", "residual", "both"):
            raise ValueError(f"unknown diversity_targets {self.diversity_targets!r}")
        for kind in self.residual_kinds:
            if kind not in experts.RESIDUAL_KINDS:
                raise ValueError(f"unknown residual expert kind {kind!r}")


def sample_mask(rng: np.random.Generator, n_nodes: int, mask_ratio: float) -> np.ndarray:
    """Sorted indices of the masked nodes."""
    count = int(round(mask_ratio * n_nodes))
    count = max(1, min(count, n_nodes - 1))
    return np.sort(rng.choice(n_nodes, size=count, replace=False))


def masked_input(x_values: np.ndarray, mask: np.ndarray, token: Tensor) -> Tensor:
    """Replace masked feature rows by the learnable token before taping.

    Masked rows of ``x_values`` never reach the tape: they are zeroed in
    ``x_values`` itself first, so even poisoned (NaN) masked rows yield a
    finite input, and ``x_values`` then holds the input without the token.
    """
    x_values[mask] = 0.0
    indicator = np.zeros((x_values.shape[0], 1))
    indicator[mask] = 1.0
    return engine.add(Tensor(x_values), engine.matmul(Tensor(indicator), token))


class Model:
    """All learnable components bound to one graph; ``fixed_weights``, one
    per edge (the oracle studies), replace the edge gate, which then never trains."""

    def __init__(self, g: Graph, cfg: TrainConfig, fixed_weights: np.ndarray | None = None):
        self.graph = g
        self.cfg = cfg
        self.fixed_weights = fixed_weights
        self.a_tilde = graphs.normalize(g)
        self.s = graphs.structural_embeddings(self.a_tilde, d_s=cfg.d_s)
        rng = np.random.default_rng(cfg.seed)
        f_dim, d_e = g.feat_dim, cfg.hidden
        self.gate: engine.MLP = gating.init_edge_gate(
            f_dim, cfg.d_s, cfg.edge_hidden, rng)
        coh_specs = [FilterSpec("sgc", k) for k in range(1, cfg.n_exp + 1)]
        disp_specs = [FilterSpec("lapsgc", k) for k in range(1, cfg.n_exp + 1)]
        self.bank_coh: ExpertBank = experts.init_expert_bank(
            "coh", coh_specs, cfg.top_k, f_dim, cfg.d_s, d_e, rng)
        self.bank_disp: ExpertBank = experts.init_expert_bank(
            "disp", disp_specs, cfg.top_k, f_dim, cfg.d_s, d_e, rng)
        self.pool_coh: ResidualPool = experts.init_residual_pool(
            cfg.residual_kinds, f_dim, d_e, rng)
        self.pool_disp: ResidualPool = experts.init_residual_pool(
            cfg.residual_kinds, f_dim, d_e, rng)
        self.decoder = engine.init_mlp(rng, 2 * d_e, d_e, f_dim)
        self.mask_token = engine.zeros_param((1, f_dim))
        self.head_w: Tensor | None = None
        self.head_b: Tensor | None = None

    def add_head(self, n_classes: int, rng: np.random.Generator) -> None:
        if self.head_w is None:
            self.head_w = engine.glorot(rng, 2 * self.cfg.hidden, n_classes)
            self.head_b = engine.zeros_param((1, n_classes))

    def named_parameters(self) -> dict[str, Tensor]:
        """Every learnable tensor by its checkpoint name; the parameter
        groups below select from this table by name prefix."""
        named = {}
        for prefix, group in (("gate", self.gate.parameters()),
                              ("bank_coh", self.bank_coh.parameters()),
                              ("bank_disp", self.bank_disp.parameters()),
                              ("decoder", self.decoder.parameters())):
            for i, p in enumerate(group):
                named[f"{prefix}.{i}"] = p
        for channel, pool in (("coh", self.pool_coh), ("disp", self.pool_disp)):
            for k, expert in enumerate(pool.experts):
                for key, p in expert.params.items():
                    named[f"pool_{channel}.{k}.{key}"] = p
            for k, gamma in enumerate(pool.gammas):
                named[f"pool_{channel}.gamma.{k}"] = gamma
        named["mask_token"] = self.mask_token
        if self.head_w is not None:
            named["head.w"] = self.head_w
            named["head.b"] = self.head_b
        return named

    def _group(self, keep) -> list[Tensor]:
        return [p for name, p in self.named_parameters().items() if keep(name.split(".")[0])]

    def gating_parameters(self) -> list[Tensor]:
        return self._group(lambda prefix: prefix == "gate")

    def main_parameters(self) -> list[Tensor]:
        return self._group(lambda prefix: prefix not in ("gate", "head"))

    def head_parameters(self) -> list[Tensor]:
        return self._group(lambda prefix: prefix == "head")

    def all_parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())


@dataclass
class ForwardResult:
    stats_coh: RoutingStats
    stats_disp: RoutingStats
    h_final: Tensor
    alpha: np.ndarray
    diversity_targets: dict[str, list[experts.Output]]


def _edge_weights(model: Model, x: np.ndarray,
                  rng: np.random.Generator | None) -> tuple[Tensor, np.ndarray]:
    """(w, w_eval): the per-edge weights the views carry, and their
    noise-free eval-mode values. The gate reads the constant features ``x``;
    the model's fixed weights replace it. Gumbel noise is drawn from ``rng``
    when one is given (training mode)."""
    if model.fixed_weights is not None:
        w = Tensor(np.asarray(model.fixed_weights).reshape(-1, 1))
        return w, w.values
    logits = gating.edge_logits(model.gate, Tensor(x), model.s, model.graph)
    w = gating.gumbel_sigmoid_weights(logits, model.cfg.tau, rng)
    return w, expit(logits.values / model.cfg.tau)


def full_forward(model: Model, x_input: Tensor, rng: np.random.Generator | None,
                 alpha_override: np.ndarray | None = None,
                 x_gate: np.ndarray | None = None) -> ForwardResult:
    """One pass through gating, both channels, and fusion; training mode
    when given an ``rng``, eval mode (no noise) without.

    The experts read ``x_input``; the edge gate reads the constant ``x_gate``,
    by default the raw features. The masked steps hand in their features
    with the masked rows zeroed, so the gate sees neither the masked
    features nor the token, and no gradient flows back through its input."""
    g, cfg = model.graph, model.cfg
    w, w_eval = _edge_weights(model, g.features if x_gate is None else x_gate, rng)
    views = gating.build_views(g, w)
    h_b_coh, stats_coh, outs_coh = experts.backbone_forward(
        model.bank_coh, x_input, model.s, views.a_coh)
    h_b_disp, stats_disp, outs_disp = experts.backbone_forward(
        model.bank_disp, x_input, model.s, views.a_disp)
    h_r_coh, r_outs_coh = experts.residual_forward(model.pool_coh, x_input, views.a_coh)
    h_r_disp, r_outs_disp = experts.residual_forward(model.pool_disp, x_input, views.a_disp)
    h_enh_coh = engine.add(h_b_coh, h_r_coh)
    h_enh_disp = engine.add(h_b_disp, h_r_disp)

    if alpha_override is not None:
        alpha = np.asarray(alpha_override, dtype=np.float64).ravel()
    else:
        alpha = fusion.compute_fusion(w_eval, h_enh_coh.values, g, model.a_tilde)
    h_final = fusion.fuse(h_enh_coh, h_enh_disp, alpha)

    targets = {
        "foundational": {"coh": outs_coh, "disp": outs_disp},
        "residual": {"coh": r_outs_coh, "disp": r_outs_disp},
    }
    mode = cfg.diversity_targets
    if mode == "both":
        div = {ch: targets["foundational"][ch] + targets["residual"][ch]
               for ch in ("coh", "disp")}
    else:
        div = targets[mode]
    return ForwardResult(stats_coh=stats_coh, stats_disp=stats_disp,
                         h_final=h_final, alpha=alpha, diversity_targets=div)


def mae_loss(h_final: Tensor, decoder: engine.MLP, x_orig: np.ndarray,
             mask: np.ndarray, gamma: float) -> Tensor:
    """Scaled cosine reconstruction error over the masked node set."""
    if mask.size == 0:
        raise ValueError("mask set is empty")
    recon = decoder.forward(engine.gather_rows(h_final, mask))
    return gating.scaled_cosine_error(recon, Tensor(x_orig[mask]), gamma)


def composite_loss(l_mae: Tensor, l_load: Tensor, l_div: Tensor,
                   cfg: TrainConfig) -> Tensor:
    total = l_mae
    if cfg.lambda_load:
        total = engine.add(total, engine.scale(l_load, cfg.lambda_load))
    if cfg.lambda_div:
        total = engine.add(total, engine.scale(l_div, cfg.lambda_div))
    return total


def _channel_mean_diversity(div_targets: dict[str, list[experts.Output]]) -> Tensor:
    terms = [experts.diversity_loss(outs) for outs in div_targets.values()
             if len(outs) >= 2]
    if not terms:
        return Tensor([[0.0]])
    return engine.scale(reduce(engine.add, terms), 1.0 / len(terms))


def _mean_load(fwd: ForwardResult) -> Tensor:
    return engine.scale(engine.add(experts.load_balance_loss(fwd.stats_coh),
                                   experts.load_balance_loss(fwd.stats_disp)), 0.5)


def masked_objective(fwd: ForwardResult, model: Model, mask: np.ndarray,
                     cfg: TrainConfig, epoch: int) -> tuple[Tensor, dict[str, Tensor]]:
    """The composite masked-reconstruction loss and its three parts.

    Reconstruction targets are the model's own (possibly normalized)
    features. A non-finite component raises :class:`TrainingError`.
    """
    l_mae = _guard("l_mae", epoch, lambda: mae_loss(
        fwd.h_final, model.decoder, model.graph.features, mask, cfg.gamma))
    l_load = _guard("l_load", epoch, lambda: _mean_load(fwd))
    l_div = _guard("l_div", epoch, lambda: _channel_mean_diversity(fwd.diversity_targets))
    total = _guard("total", epoch, lambda: composite_loss(l_mae, l_load, l_div, cfg))
    return total, {"l_mae": l_mae, "l_load": l_load, "l_div": l_div}


def _masked_forward(state: TrainState, cfg: TrainConfig) -> tuple[np.ndarray, ForwardResult]:
    """Start a step: fresh tape, resampled node mask, training-mode forward."""
    model = state.model
    engine.reset_tape()
    engine.zero_grads(model.all_parameters())
    mask = sample_mask(state.rng, model.graph.n_nodes, cfg.mask_ratio)
    x_gate = np.array(model.graph.features, dtype=np.float64)
    x_input = masked_input(x_gate, mask, model.mask_token)
    fwd = _guard("reconstruction forward", state.epoch,
                 lambda: full_forward(model, x_input, state.rng, x_gate=x_gate))
    return mask, fwd


@dataclass
class TrainState:
    model: Model
    adam_svg: AdamState
    adam_main: AdamState
    rng: np.random.Generator
    history: list[dict] = field(default_factory=list)
    routing_log: list[tuple] = field(default_factory=list)
    epoch: int = 0
    adam_head: AdamState | None = None


def training_graph(g: Graph, cfg: TrainConfig) -> Graph:
    """The graph a model trains on: ``g``, with unit-norm feature rows when
    ``cfg.normalize_features`` is set."""
    if not cfg.normalize_features:
        return g
    norms = np.linalg.norm(g.features, axis=1, keepdims=True)
    return replace(g, features=g.features / np.maximum(norms, 1e-12))


def init_state(g: Graph, cfg: TrainConfig,
               fixed_weights: np.ndarray | None = None) -> TrainState:
    model = Model(training_graph(g, cfg), cfg, fixed_weights)
    return TrainState(model=model,
                      adam_svg=AdamState(lr=cfg.lr),
                      adam_main=AdamState(lr=cfg.lr),
                      rng=np.random.default_rng(cfg.seed))


def _guard(component: str, epoch: int, fn):
    try:
        return fn()
    except engine.NonFiniteError as err:
        raise TrainingError(f"epoch {epoch}: non-finite {component}: {err}") from err


def _updating(model: Model, params: Sequence[Tensor]):
    """Freeze every model parameter outside ``params`` for one step, so the
    tape holds and backward forms only what the step updates."""
    keep = {id(p) for p in params}
    return engine.frozen([p for p in model.all_parameters() if id(p) not in keep])


def svg_step(state: TrainState) -> float:
    """Step 1: update the view-gating MLP only, by the cross-filter loss.

    The gate is trained adversarially: it ascends the cross-filter
    reconstruction error, assigning edge weights that make the mismatched
    reconstructions maximally difficult. Ascending the error is what gives
    the views their cohesive/dispersive semantics; descending it instead
    rewards views on which the wrong-direction filters succeed, which
    empirically inverts the learned weights.

    The loss holds the backbone outputs constant, so the banks run on views
    of the detached weights, record nothing, and hand over h_b = M W + b as
    its factors (M, W, b), M from :func:`experts.bank_mixture`; h_b is never formed.
    """
    model, cfg = state.model, state.model.cfg
    g, epoch = model.graph, state.epoch
    engine.reset_tape()
    engine.zero_grads(model.all_parameters())
    x_raw = Tensor(g.features)

    def forward():
        w, _ = _edge_weights(model, g.features, state.rng)
        views, held = gating.build_views(g, w), gating.build_views(g, w.detach())
        banks = ((model.bank_coh, held.a_coh), (model.bank_disp, held.a_disp))
        return views, [(experts.bank_mixture(b, x_raw, model.s, v)[0], b.proj_w, b.proj_b)
                       for b, v in banks]

    with _updating(model, model.gating_parameters()):
        views, (coh, disp) = _guard("l_svg forward", epoch, forward)
        l_svg = _guard("l_svg", epoch, lambda: gating.svg_loss(
            views, coh, disp, cfg.gamma_svg))
        engine.backward(engine.scale(l_svg, -1.0))
    engine.adam_step(model.gating_parameters(), state.adam_svg)
    return l_svg.item()


def reconstruction_step(state: TrainState) -> dict:
    """Step 2: resample the mask and update all main-model parameters."""
    model, cfg = state.model, state.model.cfg
    with _updating(model, model.main_parameters()):
        mask, fwd = _masked_forward(state, cfg)
        total, parts = masked_objective(fwd, model, mask, cfg, state.epoch)
        engine.backward(total)
    engine.adam_step(model.main_parameters(), state.adam_main)

    for stats in (fwd.stats_coh, fwd.stats_disp):
        state.routing_log += [(state.epoch, stats.channel, k, float(f), float(p))
                              for k, (f, p) in enumerate(zip(stats.f, stats.p_values()))]
    return {**{name: part.item() for name, part in parts.items()}, "total": total.item()}


def train_epoch(state: TrainState) -> dict:
    """One alternating optimization epoch; appends and returns the record."""
    l_svg_value = 0.0
    if state.model.fixed_weights is None:
        for _ in range(state.model.cfg.svg_steps):
            l_svg_value = svg_step(state)
    losses = reconstruction_step(state)
    record = {"epoch": state.epoch, "l_svg": l_svg_value, **losses}
    state.history.append(record)
    state.epoch += 1
    return record


def train(g: Graph, cfg: TrainConfig,
          fixed_weights: np.ndarray | None = None) -> TrainState:
    state = init_state(g, cfg, fixed_weights=fixed_weights)
    for _ in range(cfg.epochs):
        train_epoch(state)
    return state


def eval_forward(state: TrainState,
                 alpha_override: np.ndarray | None = None) -> ForwardResult:
    """Deterministic eval-mode forward pass (no noise, no masking).

    Every parameter is frozen, so nothing is recorded; the tape of the
    previous step is dropped first.
    """
    model = state.model
    engine.reset_tape()
    with _updating(model, []):
        return full_forward(model, Tensor(model.graph.features), None, alpha_override)


def embed(state: TrainState, alpha_override: np.ndarray | None = None) -> np.ndarray:
    """Deterministic eval-mode embedding (no noise, no masking)."""
    return eval_forward(state, alpha_override).h_final.values.copy()


def eval_edge_weights(state: TrainState) -> np.ndarray:
    """Eval-mode per-edge weights (deterministic; records nothing)."""
    model = state.model
    engine.reset_tape()
    with _updating(model, []):
        _, w_eval = _edge_weights(model, model.graph.features, None)
    return w_eval.ravel().copy()


# ---------------------------------------------------------------------------
# few-shot fine-tuning

def finetune_fewshot(state: TrainState, g: Graph, support: np.ndarray,
                     cfg: TrainConfig | None = None) -> TrainState:
    """Add a linear head and fine-tune gating + head with experts frozen.

    ``g`` supplies the labels; the objective reads the model's own features.
    """
    model = state.model
    cfg = cfg or model.cfg
    support = np.asarray(support)
    if support.size == 0:
        raise ValueError("support set is empty")
    if g.labels is None:
        raise ValueError("few-shot fine-tuning requires labels")
    if g.n_nodes != model.graph.n_nodes:
        raise ValueError("label graph and model graph differ in node count")
    if support.dtype.kind not in "iu" or support.min() < 0 or support.max() >= g.n_nodes:
        raise ValueError(f"support must hold node indices in [0, {g.n_nodes}), got "
                         f"{support.dtype} values from {support.min()} to {support.max()}")
    support = engine.Index(support, g.n_nodes)  # laid out once for every step
    present = np.unique(g.labels[support.idx])
    if present.size != g.n_classes:
        missing = sorted(set(range(g.n_classes)) - set(present.tolist()))
        raise ValueError(f"support set misses classes {missing}")

    model.add_head(g.n_classes, state.rng)
    trainable = model.gating_parameters() + model.head_parameters()
    state.adam_head = AdamState(lr=cfg.lr)
    onehot = np.zeros((len(support), g.n_classes))
    onehot[np.arange(len(support)), g.labels[support.idx]] = 1.0

    for _ in range(cfg.finetune_epochs):
        with _updating(model, trainable):
            mask, fwd = _masked_forward(state, cfg)
            loss, _ = masked_objective(fwd, model, mask, cfg, state.epoch)
            if cfg.lambda_cls:
                logits = engine.add_row(
                    engine.matmul(engine.gather_rows(fwd.h_final, support), model.head_w),
                    model.head_b)
                log_probs = engine.log_softmax_rows(logits)
                l_cls = engine.scale(engine.frobenius(log_probs, Tensor(onehot)),
                                     -1.0 / len(support))
                loss = engine.add(loss, engine.scale(l_cls, cfg.lambda_cls))
            engine.backward(loss)
        engine.adam_step(trainable, state.adam_head)
    engine.reset_tape()
    return state


def classify(state: TrainState, embeddings: np.ndarray) -> np.ndarray:
    """Predicted labels from the fine-tuned head."""
    if state.model.head_w is None:
        raise ValueError("model has no classification head; fine-tune first")
    logits = embeddings @ state.model.head_w.values + state.model.head_b.values
    return logits.argmax(axis=1)


# ---------------------------------------------------------------------------
# naive flat MoE baseline

class NaiveMoE:
    """Flat sparse MoE: one gate routes each node to its top-1 expert among
    heterogeneous ones through the backbone's router (no backbone, no
    residual decomposition, no diversity loss)."""

    def __init__(self, g: Graph, cfg: TrainConfig, kinds: Sequence[str]):
        self.graph = g
        self.s = graphs.structural_embeddings(graphs.normalize(g), d_s=cfg.d_s)
        rng = np.random.default_rng(cfg.seed)
        f_dim, d_e = g.feat_dim, cfg.hidden
        self.gate_w = engine.glorot(rng, f_dim + cfg.d_s, len(kinds))
        self.gate_b = engine.zeros_param((1, len(kinds)))
        self.experts = [experts.init_residual_expert(kind, f_dim, d_e, rng)
                        for kind in kinds]
        self.decoder = engine.init_mlp(rng, d_e, d_e, f_dim)
        self.mask_token = engine.zeros_param((1, f_dim))

    def parameters(self) -> list[Tensor]:
        return [self.gate_w, self.gate_b, self.mask_token,
                *(p for ex in self.experts for p in ex.parameters()), *self.decoder.parameters()]

    def forward(self, x_input: Tensor) -> Tensor:
        view = filters.raw_view(self.graph)
        weights, _, _ = experts.route(self.gate_w, self.gate_b, x_input, self.s, 1)
        return experts.mix([ex.forward(x_input, view) for ex in self.experts], weights)


def naive_moe_baseline(g: Graph, cfg: TrainConfig,
                       kinds: Sequence[str] | None = None) -> list[dict]:
    """Per-epoch loss curve of the flat MoE trained on the same objective."""
    kinds = tuple(kinds) if kinds is not None else experts.RESIDUAL_KINDS
    g = training_graph(g, cfg)
    moe = NaiveMoE(g, cfg, kinds)
    adam = AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        engine.reset_tape()
        engine.zero_grads(moe.parameters())
        mask = sample_mask(rng, g.n_nodes, cfg.mask_ratio)
        x_input = masked_input(np.array(g.features), mask, moe.mask_token)
        h = _guard("naive forward", epoch, lambda: moe.forward(x_input))
        l_mae = _guard("l_mae", epoch, lambda: mae_loss(
            h, moe.decoder, g.features, mask, cfg.gamma))
        engine.backward(l_mae)
        engine.adam_step(moe.parameters(), adam)
        history.append({"epoch": epoch, "l_mae": l_mae.item(), "l_load": 0.0,
                        "l_div": 0.0, "l_svg": 0.0, "total": l_mae.item()})
    engine.reset_tape()
    return history


# ---------------------------------------------------------------------------
# persistence and metrics

def metrics_jsonl(history: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in history)


def write_metrics(history: list[dict], path: str) -> None:
    engine.atomic_write(path, metrics_jsonl(history))


def write_routing_csv(routing_log: list[tuple], path: str) -> None:
    lines = ["step,channel,expert,f_k,P_k"]
    lines += [f"{s},{c},{k},{repr(f)},{repr(p)}" for s, c, k, f, p in routing_log]
    engine.atomic_write(path, "\n".join(lines) + "\n")


def save_model(state: TrainState, path: str) -> None:
    engine.save_checkpoint(path, {name: p.values
                                  for name, p in state.model.named_parameters().items()})


def load_model(state: TrainState, path: str) -> None:
    named = engine.load_checkpoint(path)
    if "head.w" in named and state.model.head_w is None:
        state.model.add_head(named["head.w"].shape[1], state.rng)
    params = state.model.named_parameters()
    missing = sorted(params.keys() - named.keys())
    if missing:
        raise ValueError(f"checkpoint lacks model entries {missing}")
    for name, values in named.items():
        if name not in params:
            raise ValueError(f"checkpoint entry {name!r} does not match the model")
        if params[name].values.shape != values.shape:
            raise ValueError(f"checkpoint entry {name!r} has shape {values.shape}, "
                             f"model expects {params[name].values.shape}")
        params[name].values = values
