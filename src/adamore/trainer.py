"""Unsupervised training loop: masked reconstruction with alternating steps.

Each channel of :data:`CHANNELS` runs a backbone bank of its filter family
and a residual pool on its own view; per-channel lists follow that order.
Each epoch runs two isolated optimization steps. Step 1 updates only the
edge-gating MLP by the cross-filter reconstruction loss; it builds its own
views and detached backbone targets and never runs the full forward.
Step 2 resamples the node mask, substitutes a learnable mask token for
masked feature rows, and updates every main-model parameter (gating
excluded) by the composite masked-reconstruction objective. The
fusion coefficient is recomputed once per epoch from eval-mode edge weights
and the current cohesive embeddings, and is constant on the tape. Every
step, also of fine-tuning and the flat MoE, is one :func:`_optimize` call,
which freezes what it does not update; eval passes record nothing.
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
from functools import partial, reduce
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import engine, evaluation, experts, filters, fusion, gating, graphs
from .engine import AdamState, Tensor
from .experts import ExpertBank, ResidualPool, RoutingStats
from .graphs import Graph


class TrainingError(RuntimeError):
    """Training or an eval pass aborted; the message names the failing part."""


# each channel and the filter family of its backbone bank, in tape order
CHANNELS = (("coh", "sgc"), ("disp", "lapsgc"))


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
        for name in ("svg_steps", "finetune_epochs", "seed"):
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


def masked_input(features: np.ndarray, mask: np.ndarray,
                 token: Tensor) -> tuple[np.ndarray, Tensor]:
    """(x_gate, x_input) of a masked step: a float copy of ``features`` with
    the masked rows zeroed, the gate's constant input, and that copy with
    the learnable token in the masked rows, the experts' taped input.

    Masked rows never reach the tape, so even poisoned (NaN) masked rows
    yield a finite input; ``features`` itself is left unchanged.
    """
    x_gate = np.array(features, dtype=np.float64)
    x_gate[mask] = 0.0
    indicator = np.zeros((x_gate.shape[0], 1))
    indicator[mask] = 1.0
    return x_gate, engine.add(Tensor(x_gate), engine.matmul(Tensor(indicator), token))


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
        # per channel, in CHANNELS order; every bank is drawn before any pool
        self.banks: list[ExpertBank] = [experts.init_expert_bank(
            family, cfg.n_exp, cfg.top_k, f_dim, cfg.d_s, d_e, rng) for _, family in CHANNELS]
        self.pools: list[ResidualPool] = [experts.init_residual_pool(
            cfg.residual_kinds, f_dim, d_e, rng) for _ in CHANNELS]
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
                              *((f"bank_{channel}", bank.parameters())
                                for (channel, _), bank in zip(CHANNELS, self.banks)),
                              ("decoder", self.decoder.parameters())):
            for i, p in enumerate(group):
                named[f"{prefix}.{i}"] = p
        for (channel, _), pool in zip(CHANNELS, self.pools):
            for k, params in enumerate(pool.params):
                for key, p in params.items():
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
    stats: list[RoutingStats]                          # per channel
    h_final: Tensor
    alpha: np.ndarray
    diversity_targets: list[list[experts.Output]]      # per channel


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


def full_forward(model: Model, rng: np.random.Generator | None,
                 mask: np.ndarray | None = None,
                 alpha_override: np.ndarray | None = None) -> ForwardResult:
    """One pass through gating, both channels, and fusion; training mode
    when given an ``rng``, eval mode (no noise) without.

    Without a ``mask`` the gate and the experts read the raw features. With
    one, both inputs come from :func:`masked_input`: the experts read the
    features with the token in the masked rows, the gate the constant
    features with those rows zeroed, so it sees neither the masked features
    nor the token, and no gradient flows back through its input."""
    g, cfg = model.graph, model.cfg
    x_gate, x_input = ((g.features, Tensor(g.features)) if mask is None
                       else masked_input(g.features, mask, model.mask_token))
    w, w_eval = _edge_weights(model, x_gate, rng)
    views = gating.build_views(g, w)
    backbones = [experts.backbone_forward(bank, x_input, model.s, view)
                 for bank, view in zip(model.banks, views)]
    enhanced = [experts.residual_forward(pool, h_b, x_input, view)
                for pool, (h_b, _, _), view in zip(model.pools, backbones, views)]

    h_coh, h_disp = (h for h, _ in enhanced)
    if alpha_override is not None:
        alpha = np.asarray(alpha_override, dtype=np.float64).ravel()
    else:
        alpha = fusion.compute_fusion(w_eval, h_coh.values, g, model.a_tilde)
    h_final = fusion.fuse(h_coh, h_disp, alpha)

    mode = cfg.diversity_targets
    div = [(found if mode != "residual" else []) + (res if mode != "foundational" else [])
           for (_, _, found), (_, res) in zip(backbones, enhanced)]
    return ForwardResult(stats=[stats for _, stats, _ in backbones],
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


def _channel_mean(terms: list[Tensor]) -> Tensor:
    """The mean of per-channel loss terms; 0 without any."""
    if not terms:
        return Tensor([[0.0]])
    return engine.scale(reduce(engine.add, terms), 1.0 / len(terms))


def masked_objective(fwd: ForwardResult, model: Model, mask: np.ndarray,
                     cfg: TrainConfig, epoch: int) -> tuple[Tensor, dict[str, Tensor]]:
    """The composite masked-reconstruction loss and its three parts.

    Reconstruction targets are the model's own (possibly normalized)
    features. A non-finite component raises :class:`TrainingError`.
    """
    l_mae = _guard("l_mae", epoch, lambda: mae_loss(
        fwd.h_final, model.decoder, model.graph.features, mask, cfg.gamma))
    l_load = _guard("l_load", epoch, lambda: _channel_mean(
        [experts.load_balance_loss(stats) for stats in fwd.stats]))
    l_div = _guard("l_div", epoch, lambda: _channel_mean(
        [experts.diversity_loss(outs) for outs in fwd.diversity_targets if len(outs) >= 2]))
    total = _guard("total", epoch, lambda: composite_loss(l_mae, l_load, l_div, cfg))
    return total, {"l_mae": l_mae, "l_load": l_load, "l_div": l_div, "total": total}


def _masked_step(state: TrainState, cfg: TrainConfig):
    """A masked step's objective: a resampled node mask, the training-mode
    forward and :func:`masked_objective`; returns ``(total, (fwd, parts))``."""
    model, epoch = state.model, state.epoch
    mask = sample_mask(state.rng, model.graph.n_nodes, cfg.mask_ratio)
    fwd = _guard("reconstruction forward", epoch, lambda: full_forward(model, state.rng, mask))
    total, parts = masked_objective(fwd, model, mask, cfg, epoch)
    return total, (fwd, parts)


@dataclass
class TrainState:
    model: Model
    adam_svg: AdamState
    adam_main: AdamState
    rng: np.random.Generator
    history: list[dict] = field(default_factory=list)
    routing_log: list[tuple] = field(default_factory=list)
    epoch: int = 0


def training_graph(g: Graph, cfg: TrainConfig) -> Graph:
    """The graph a model trains on: ``g``, with unit-norm feature rows when
    ``cfg.normalize_features`` is set."""
    if not cfg.normalize_features:
        return g
    return replace(g, features=graphs.unit_rows(g.features, 1e-12))


def init_state(g: Graph, cfg: TrainConfig,
               fixed_weights: np.ndarray | None = None) -> TrainState:
    model = Model(training_graph(g, cfg), cfg, fixed_weights)
    return TrainState(model=model,
                      adam_svg=AdamState(lr=cfg.lr),
                      adam_main=AdamState(lr=cfg.lr),
                      rng=np.random.default_rng(cfg.seed))


def _guard(component: str, epoch: int | None, fn):
    """``fn()``, whose non-finite values raise :class:`TrainingError` naming
    ``component`` and, unless None, the ``epoch``, not a numpy warning."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn()
    except engine.NonFiniteError as err:
        where = "" if epoch is None else f"epoch {epoch}: "
        raise TrainingError(f"{where}non-finite {component}: {err}") from err


def _optimize(every: Sequence[Tensor], params: Sequence[Tensor], adam: AdamState, objective):
    """The one optimization step of every training loop: a fresh tape and
    cleared gradients of ``every``; ``loss, result = objective()`` and backward with
    the rest of ``every`` frozen, so the tape holds and backward forms only
    what ``params`` need; one Adam step on ``params``. Returns ``result``."""
    engine.reset_tape()
    engine.zero_grads(every)
    keep = {id(p) for p in params}
    with engine.frozen([p for p in every if id(p) not in keep]):
        loss, result = objective()
        engine.backward(loss)
    engine.adam_step(params, adam)
    return result


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
    x_raw = Tensor(g.features)

    def forward():
        w, _ = _edge_weights(model, g.features, state.rng)
        views, held = gating.build_views(g, w), gating.build_views(g, w.detach())
        return views, [(experts.bank_mixture(b, x_raw, model.s, v)[0], b.proj_w, b.proj_b)
                       for b, v in zip(model.banks, held)]

    def objective():
        views, (coh, disp) = _guard("l_svg forward", epoch, forward)
        l_svg = _guard("l_svg", epoch, lambda: gating.svg_loss(
            views, coh, disp, cfg.gamma_svg))
        return engine.scale(l_svg, -1.0), l_svg.item()

    return _optimize(model.all_parameters(), model.gating_parameters(), state.adam_svg, objective)


def reconstruction_step(state: TrainState) -> dict:
    """Step 2: resample the mask and update all main-model parameters."""
    model = state.model
    fwd, parts = _optimize(model.all_parameters(), model.main_parameters(), state.adam_main,
                           lambda: _masked_step(state, model.cfg))
    for (channel, _), stats in zip(CHANNELS, fwd.stats):
        state.routing_log += [(state.epoch, channel, k, float(f), float(p))
                              for k, (f, p) in enumerate(zip(stats.f, stats.p.values.ravel()))]
    return {name: part.item() for name, part in parts.items()}


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
    previous step is dropped first. Non-finite values raise
    :class:`TrainingError`, as in training.
    """
    model = state.model
    engine.reset_tape()
    with engine.frozen(model.all_parameters()):
        return _guard("eval forward", None,
                      lambda: full_forward(model, None, alpha_override=alpha_override))


def embed(state: TrainState, alpha_override: np.ndarray | None = None) -> np.ndarray:
    """Deterministic eval-mode embedding (no noise, no masking)."""
    return eval_forward(state, alpha_override).h_final.values.copy()


def eval_edge_weights(state: TrainState) -> np.ndarray:
    """Eval-mode per-edge weights (deterministic; records nothing)."""
    model = state.model
    engine.reset_tape()
    with engine.frozen(model.all_parameters()):
        _, w_eval = _guard("eval edge weights", None,
                           lambda: _edge_weights(model, model.graph.features, None))
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
    adam = AdamState(lr=cfg.lr)

    def objective():
        loss, (fwd, _) = _masked_step(state, cfg)
        if cfg.lambda_cls:
            logits = engine.linear(engine.gather_rows(fwd.h_final, support),
                                   model.head_w, model.head_b)
            l_cls = evaluation.softmax_cross_entropy(logits, g.labels[support.idx])
            loss = engine.add(loss, engine.scale(l_cls, cfg.lambda_cls))
        return loss, None

    for _ in range(cfg.finetune_epochs):
        _optimize(model.all_parameters(), trainable, adam, objective)
    engine.reset_tape()
    return state


def classify(state: TrainState, embeddings: np.ndarray) -> np.ndarray:
    """Predicted labels from the fine-tuned head."""
    if state.model.head_w is None:
        raise ValueError("model has no classification head; fine-tune first")
    return evaluation.predict(embeddings, state.model.head_w.values, state.model.head_b.values)


# ---------------------------------------------------------------------------
# naive flat MoE baseline

def naive_moe_baseline(g: Graph, cfg: TrainConfig,
                       kinds: Sequence[str] | None = None) -> list[dict]:
    """Per-epoch loss curve of a flat sparse MoE trained on the same
    objective: one gate routes each node to its top-1 expert among
    heterogeneous ones through the backbone's router (no backbone, no
    residual decomposition, no diversity loss)."""
    kinds = tuple(kinds) if kinds is not None else tuple(experts.RESIDUAL_KINDS)
    if not kinds:
        raise ValueError("the flat MoE needs at least one expert kind")
    g = training_graph(g, cfg)
    s = graphs.structural_embeddings(graphs.normalize(g), d_s=cfg.d_s)
    view = filters.raw_view(g)
    init = np.random.default_rng(cfg.seed)
    f_dim, d_e = g.feat_dim, cfg.hidden
    gate_w = engine.glorot(init, f_dim + cfg.d_s, len(kinds))
    gate_b = engine.zeros_param((1, len(kinds)))
    pool = experts.init_residual_pool(kinds, f_dim, d_e, init)
    decoder = engine.init_mlp(init, d_e, d_e, f_dim)
    token = engine.zeros_param((1, f_dim))
    params = [gate_w, gate_b, token, *(p for table in pool.params for p in table.values()),
              *decoder.parameters()]
    adam = AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    def objective(epoch):
        mask = sample_mask(rng, g.n_nodes, cfg.mask_ratio)
        _, x_input = masked_input(g.features, mask, token)

        def forward():
            weights, _, _ = experts.route(gate_w, gate_b, x_input, s, 1)
            return engine.mixture(experts.residual_outputs(pool, x_input, view), weights)

        h = _guard("naive forward", epoch, forward)
        l_mae = _guard("l_mae", epoch, lambda: mae_loss(h, decoder, g.features, mask, cfg.gamma))
        return l_mae, {"epoch": epoch, "l_mae": l_mae.item(), "l_load": 0.0, "l_div": 0.0,
                       "l_svg": 0.0, "total": l_mae.item()}

    history = [_optimize(params, params, adam, partial(objective, epoch))
               for epoch in range(cfg.epochs)]
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
