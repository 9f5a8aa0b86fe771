"""Sparse MoE backbone and the heterogeneous residual expert pool.

Each channel owns a bank of same-architecture filter experts: hops 1..N of
one filter family, N the width of the bank's gate. A per-node gate,
:func:`route`, which the flat-MoE baseline shares, picks the top-K by logit
(ties to the lowest expert index) and renormalizes the selected logits with
a softmax. All filter outputs are computed densely at desk scale; sparsity
lives in the mixture weights only. The selected weights of a row sum to 1,
so the bank mixes its F-wide filter outputs first and projects the mixture
once to d_e. The residual pool is dense-activated message-passing experts
summed with learnable scaling factors: its kinds, one parameter table per
expert and one scale each. :data:`RESIDUAL_KINDS` is the one definition of a
kind, its layer and its initializer; every layer, GAT included, aggregates
its input features before projecting them. Outputs are
regularized toward pairwise dissimilarity through linear-kernel CKA. A
foundational output reaches the regularizer as its factors (filter output Y,
projection W): centering drops the bias, so each HSIC comes from F x F
blocks of centered filter outputs and S = W W^T, never from the n x d_e
projection, unless F >= d_e, where projecting first is the cheaper basis.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import engine
from .engine import Tensor
from .filters import (AdjacencyView, filter_bank_outputs, neighbor_mean, neighbor_sum,
                      sym_propagate)

# ---------------------------------------------------------------------------
# sparse backbone

@dataclass
class ExpertBank:
    """Hops 1..N of one filter family with a top-K gate and shared projection."""

    family: str                     # "sgc" or "lapsgc"
    top_k: int
    gate_w: Tensor                  # (F + d_s, N_exp)
    gate_b: Tensor                  # (1, N_exp)
    proj_w: Tensor                  # (F, d_e)
    proj_b: Tensor                  # (1, d_e)

    def __post_init__(self):
        if not 1 <= self.top_k <= self.n_exp:
            raise ValueError(f"top_k={self.top_k} out of range for {self.n_exp} experts")

    @property
    def n_exp(self) -> int:
        return self.gate_w.shape[1]

    def parameters(self) -> list[Tensor]:
        return [self.gate_w, self.gate_b, self.proj_w, self.proj_b]


def init_expert_bank(family: str, n_exp: int, top_k: int, feat_dim: int,
                     d_s: int, d_e: int, rng: np.random.Generator) -> ExpertBank:
    return ExpertBank(family=family, top_k=top_k,
                      gate_w=engine.glorot(rng, feat_dim + d_s, n_exp),
                      gate_b=engine.zeros_param((1, n_exp)),
                      proj_w=engine.glorot(rng, feat_dim, d_e),
                      proj_b=engine.zeros_param((1, d_e)))


@dataclass
class RoutingStats:
    """Per-step routing summary; f is constant, p stays differentiable."""

    n_exp: int
    top_k: int
    f: np.ndarray            # fraction of nodes whose top-K contains expert k
    p: Tensor                # (1, N_exp) mean softmax probability over all logits


def topk_softmax(logits: Tensor, k: int) -> tuple[Tensor, np.ndarray]:
    """Per-row softmax over the k largest logits; the others get weight 0.

    Selection is a constant decision given the logit values; a stable sort
    breaks ties toward the lowest index. Returns (weights, selected), with
    ``selected`` the boolean top-k mask.
    """
    order = np.argsort(-logits.values, axis=1, kind="stable")
    selected = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(selected, order[:, :k], True, axis=1)
    mask = np.where(selected, 0.0, engine._NEG_INF)
    return engine.softmax_rows(engine.add(logits, Tensor(mask))), selected


def route(gate_w: Tensor, gate_b: Tensor, x: Tensor, s: np.ndarray,
          k: int) -> tuple[Tensor, np.ndarray, Tensor]:
    """Per-node top-``k`` gate over [x, s]: (weights, selected, logits)."""
    logits = engine.linear(engine.concat_cols(x, Tensor(s)), gate_w, gate_b)
    return (*topk_softmax(logits, k), logits)


def bank_mixture(bank: ExpertBank, x: Tensor, s: np.ndarray, view: AdjacencyView):
    """(M, outs, selected, logits): the top-K mixture M = sum_k g_k Y_k (n x F)
    of the filter outputs Y_k, and the gate's selection and logits."""
    weights, selected, logits = route(bank.gate_w, bank.gate_b, x, s, bank.top_k)
    outs = filter_bank_outputs(bank.family, bank.n_exp, x, view)
    return engine.mixture(outs, weights), outs, selected, logits


def backbone_forward(bank: ExpertBank, x: Tensor, s: np.ndarray, view: AdjacencyView):
    """Top-K mixture of projected filter outputs per node.

    The selected gate weights of a row sum to 1, so the mixture of the
    projections Y_k W + b is the projection of the mixture: the filter
    outputs are mixed first (:func:`bank_mixture`) and projected once,
    h_b = M W + b.

    Returns (h_b, stats, factored_outputs), one (filter output,
    ``bank.proj_w``) pair per expert, the diversity regularizer's form.
    """
    n = x.shape[0]
    mixed, outs, selected, logits = bank_mixture(bank, x, s, view)
    h_b = engine.linear(mixed, bank.proj_w, bank.proj_b)

    full_probs = engine.softmax_rows(logits)
    mean_p = engine.matmul(Tensor(np.full((1, n), 1.0 / n)), full_probs)
    stats = RoutingStats(bank.n_exp, bank.top_k, f=selected.mean(axis=0), p=mean_p)
    return h_b, stats, [(out, bank.proj_w) for out in outs]


def load_balance_loss(stats: RoutingStats) -> Tensor:
    """Switch-style fraction-times-probability load balance penalty.

    L = N_exp * sum_k (f_k / K) * P_k; uniform routing gives exactly 1 for
    K = 1, total collapse gives N_exp. Differentiable through P only.
    """
    coef = Tensor((stats.n_exp * stats.f / stats.top_k).reshape(1, -1))
    return engine.frobenius(coef, stats.p)


# ---------------------------------------------------------------------------
# residual experts

def _gcn_layer(p: dict[str, Tensor], x: Tensor, view: AdjacencyView) -> Tensor:
    return engine.relu(engine.linear(sym_propagate(view, x), p["w"], p["b"]))


def _sage_mean(p: dict[str, Tensor], x: Tensor, view: AdjacencyView) -> Tensor:
    mean_nb = neighbor_mean(view, x)    # before both products: it fixes the record order
    out = engine.add(engine.matmul(x, p["w_self"]), engine.matmul(mean_nb, p["w_nb"]))
    return engine.relu(engine.add_row(out, p["b"]))


def _gin0(p: dict[str, Tensor], x: Tensor, view: AdjacencyView) -> Tensor:
    h = engine.relu(engine.linear(engine.add(x, neighbor_sum(view, x)), p["w1"], p["b1"]))
    return engine.relu(engine.linear(h, p["w2"], p["b2"]))


def _gat_1head(p: dict[str, Tensor], x: Tensor, view: AdjacencyView) -> Tensor:
    """Single-head attention over view-weighted neighbors plus self.

    Scores are x (W a) and the message sum_j alpha_ij x_j is projected by W
    after the sum, so every per-edge product is F wide, not d_e wide.
    """
    n = view.graph.n_nodes
    src_all, dst_all, pair_rows = view.graph.looped_pairs
    w = p["w"]
    s_src = engine.matmul(x, engine.matmul(w, p["a_src"]))
    s_dst = engine.matmul(x, engine.matmul(w, p["a_dst"]))
    scores = engine.leaky_relu(engine.add(engine.gather_rows(s_src, src_all),
                                          engine.gather_rows(s_dst, dst_all)))
    # constant shift keeps exp bounded; softmax ratios are shift-invariant
    shift = float(scores.values.max())
    e = engine.exp(engine.add_scalar(scores, -shift))
    # the view weights, then a unit weight per self-loop
    m2 = len(pair_rows)
    w_all = engine.add(engine.scatter_rows(view.weights, pair_rows, m2 + n),
                       Tensor(np.repeat([[0.0], [1.0]], (m2, n), axis=0)))
    z = engine.mul(e, w_all)
    denom = engine.add_scalar(engine.scatter_rows(z, dst_all, n), engine.EPS)
    alpha = engine.mul(z, engine.power(engine.gather_rows(denom, dst_all), -1.0))
    # the message step sum_j alpha_ij x_j is one sparse product
    return engine.matmul(engine.edge_sum(x, alpha, src_all, dst_all, n), w)


# kind -> (layer (params, x, view) -> n x d_e, initializer (F, d_e, rng) -> params);
# each initializer draws its parameters in the order it lists them
RESIDUAL_KINDS = {
    "gcn-layer": (_gcn_layer, lambda f, d, rng: {
        "w": engine.glorot(rng, f, d), "b": engine.zeros_param((1, d))}),
    "sage-mean": (_sage_mean, lambda f, d, rng: {
        "w_self": engine.glorot(rng, f, d), "w_nb": engine.glorot(rng, f, d),
        "b": engine.zeros_param((1, d))}),
    "gin0": (_gin0, lambda f, d, rng: {
        "w1": engine.glorot(rng, f, d), "b1": engine.zeros_param((1, d)),
        "w2": engine.glorot(rng, d, d), "b2": engine.zeros_param((1, d))}),
    "gat-1head": (_gat_1head, lambda f, d, rng: {
        "w": engine.glorot(rng, f, d), "a_src": engine.glorot(rng, d, 1),
        "a_dst": engine.glorot(rng, d, 1)}),
}


def _residual_kind(kind: str):
    """(layer, initializer) of ``kind`` from :data:`RESIDUAL_KINDS`."""
    if kind not in RESIDUAL_KINDS:
        raise ValueError(f"unknown residual expert kind {kind!r}")
    return RESIDUAL_KINDS[kind]


@dataclass
class ResidualPool:
    """Dense-activated heterogeneous experts with learnable scaling factors."""

    kinds: tuple[str, ...]
    params: list[dict[str, Tensor]]     # one parameter table per expert
    gammas: list[Tensor]                # one 1x1 scalar per expert


def init_residual_pool(kinds, feat_dim: int, d_e: int,
                       rng: np.random.Generator) -> ResidualPool:
    inits = [_residual_kind(kind)[1] for kind in kinds]     # every kind known before a draw
    return ResidualPool(kinds=tuple(kinds), params=[init(feat_dim, d_e, rng) for init in inits],
                        gammas=[Tensor([[0.1]], requires_grad=True) for _ in inits])


def residual_outputs(pool: ResidualPool, x: Tensor, view: AdjacencyView) -> list[Tensor]:
    """The output r_k of every expert of ``pool``, in pool order."""
    return [_residual_kind(kind)[0](p, x, view) for kind, p in zip(pool.kinds, pool.params)]


def residual_forward(pool: ResidualPool, h_b: Tensor, x: Tensor,
                     view: AdjacencyView) -> tuple[Tensor, list[Tensor]]:
    """(h_b + sum_k gamma_k r_k, [r_k]): the backbone output plus the scaled
    outputs r_k of all residual experts, one :func:`engine.residual_sum`
    record; ``h_b`` itself for an empty pool."""
    if not pool.kinds:
        return h_b, []
    outs = residual_outputs(pool, x, view)
    return engine.residual_sum(h_b, outs, pool.gammas), outs


# ---------------------------------------------------------------------------
# representation similarity

Output = Tensor | tuple[Tensor, Tensor]   # plain, or factored as (Y, W)


def cka(e_i: Tensor, e_j: Tensor) -> Tensor:
    """Linear-kernel centered kernel alignment in [0, 1].

    Computed in feature space: with column-centered matrices Xc and Yc,
    HSIC(X, Y) = ||Xc^T Yc||_F^2, identical to tr(Kc_i Kc_j) for the linear
    kernel but O(n d^2) instead of O(n^2 d). Returns a constant 0 when
    either self-HSIC falls below ``engine.EPS``.
    """
    if e_i.shape[0] != e_j.shape[0]:
        raise engine.ShapeError(f"cka row mismatch: {e_i.shape} vs {e_j.shape}")
    if e_i.shape[0] < 2:
        raise ValueError("cka needs at least 2 rows")
    return _centered_cka(_centered(e_i, {}), _centered(e_j, {}))


def _centered(e: Output, grams: dict) -> tuple[Tensor, Tensor, Tensor | None, Tensor]:
    """(Xc^T, Xc, S, HSIC(X, X)) of one output, Xc its column-centered copy.

    A factored output (Y, W) centers Y alone, since centering drops the
    bias: the centered output is Yc W, and an HSIC block Wa^T C Wb has the
    norm <S_a C, C S_b> with S = W W^T, formed once per W in ``grams``.
    When W is not wider than Y (F >= d_e), W is multiplied in first and
    S is None, the identity, as for a plain output.
    """
    s = None
    if isinstance(e, tuple):
        y, w = e
        if y.shape[1] >= w.shape[1]:
            e = engine.matmul(y, w)
        else:
            if w not in grams:
                grams[w] = engine.matmul(w, engine.transpose(w))
            e, s = y, grams[w]
    n = e.shape[0]
    col_means = engine.matmul(Tensor(np.full((1, n), 1.0 / n)), e)
    c = engine.add_row(e, engine.scale(col_means, -1.0))
    ct = engine.transpose(c)
    return ct, c, s, _hsic(engine.matmul(ct, c), s, s)


def _hsic(cross: Tensor, s_a: Tensor | None, s_b: Tensor | None) -> Tensor:
    """<S_a C, C S_b> for the cross Gram C of two centered factors."""
    left = cross if s_a is None else engine.matmul(s_a, cross)
    right = cross if s_b is None else engine.matmul(cross, s_b)
    return engine.frobenius(left, right)


def _centered_cka(a: tuple, b: tuple) -> Tensor:
    """CKA of two outputs given their :func:`_centered` quadruples."""
    (a_t, _, s_a, hsic_aa), (_, b_c, s_b, hsic_bb) = a, b
    if hsic_aa.item() < engine.EPS or hsic_bb.item() < engine.EPS:
        return Tensor([[0.0]])
    hsic_ab = _hsic(engine.matmul(a_t, b_c), s_a, s_b)
    denom = engine.power(engine.add_scalar(engine.mul(hsic_aa, hsic_bb), engine.EPS), -0.5)
    return engine.mul(hsic_ab, denom)


def diversity_loss(outputs: list[Output]) -> Tensor:
    """Mean pairwise CKA over all unordered output pairs.

    Each output is centered, and its self-HSIC computed, once for all the
    pairs it is in; each projection's S = W W^T is formed once.
    """
    if len(outputs) < 2:
        warnings.warn("diversity_loss needs at least 2 outputs; returning 0",
                      stacklevel=2)
        return Tensor([[0.0]])
    grams = {}
    centered = [_centered(out, grams) for out in outputs]
    total = reduce(engine.add, itertools.starmap(_centered_cka,
                                                 itertools.combinations(centered, 2)))
    return engine.scale(total, 1.0 / math.comb(len(outputs), 2))
