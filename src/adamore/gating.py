"""Structurally-aware edge gating and the dual structural views.

An edge MLP (:class:`engine.MLP`) scores each undirected edge from the
concatenated features and structural embeddings of its endpoints,
symmetrized over both orderings. Its first layer is linear in the two
endpoint blocks,
[u_i, u_j] W1 = u_i W1[:F + d_s] + u_j W1[F + d_s:] with u = [x, s], so it
runs on the n node rows and only the hidden ReLU and the output layer run
per directed edge.
Gumbel-Sigmoid turns logits into soft weights in (0, 1); the views come as
the pair (cohesive, dispersive), the cohesive view carrying w per edge and
the dispersive view 1 - w, so the two sum to the original adjacency
entrywise. The cross-filter loss trains only this module: a parameter-free
low-pass filter must reproduce the dispersive backbone output on the
dispersive view (and the high-pass mirror on the cohesive view), with
backbone outputs held constant. Propagation commutes with the constant
projection, P(M W + 1 b^T) = P([M, 1]) [W; b^T], so each backbone output
comes as its factors (M, W, b): the F + 1 wide [M, 1] is propagated and
scored under the Gram of [W; b^T], never d_e wide.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor
from .filters import AdjacencyView, sym_propagate
from .graphs import Graph


def init_edge_gate(feat_dim: int, d_s: int, hidden: int,
                   rng: np.random.Generator) -> engine.MLP:
    """The edge MLP on the 2(F + d_s) joint edge representation."""
    return engine.init_mlp(rng, 2 * (feat_dim + d_s), hidden, 1)


def edge_logits(params: engine.MLP, x: Tensor, s: np.ndarray, g: Graph) -> Tensor:
    """Symmetric per-edge logits: the MLP averaged over both orderings.

    The MLP reads [x_i, s_i, x_j, s_j]. Its first layer is formed per node,
    top = u W1[:half] + b1 and bot = u W1[half:] with u = [x, s] and
    half = F + d_s, so the directed pair (i, j) has the hidden layer
    relu(top_i + bot_j). Both orderings of every edge run as the 2m
    directed pairs through one :func:`engine.pair_mlp`, which forms the
    hidden layer one row block at a time, and the two logits of an edge
    are averaged.
    """
    half = x.shape[1] + s.shape[1]
    if params.w1.shape[0] != 2 * half:
        raise engine.ShapeError(
            f"edge gate expects input width {params.w1.shape[0]}, "
            f"got 2*({x.shape[1]}+{s.shape[1]})")
    u = engine.concat_cols(x, Tensor(s))
    w_top = engine.gather_rows(params.w1, np.arange(half))
    w_bot = engine.gather_rows(params.w1, np.arange(half, 2 * half))
    top = engine.linear(u, w_top, params.b1)
    bot = engine.matmul(u, w_bot)
    out = engine.add_row(engine.pair_mlp(top, bot, params.w2, *g.pairs), params.b2)
    return engine.scale(engine.scatter_rows(out, g.pair_edge, g.n_edges), 0.5)


def gumbel_sigmoid_weights(logits: Tensor, tau: float,
                           rng: np.random.Generator | None) -> Tensor:
    """Soft edge weights sigma((l + g1 - g2)/tau) with Gumbel noise drawn
    from ``rng``; without an rng (eval mode) the noise-free sigma(l/tau)."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if rng is not None:
        g1, g2 = engine.gumbel_pair(rng, logits.shape)
        logits = engine.add(logits, Tensor(g1 - g2))
    return engine.sigmoid(engine.scale(logits, 1.0 / tau))


def build_views(g: Graph, w: Tensor) -> tuple[AdjacencyView, AdjacencyView]:
    """(a_coh, a_disp): the cohesive view carries w both ways, the dispersive 1 - w."""
    m = g.n_edges
    if w.shape != (m, 1):
        raise engine.ShapeError(f"expected one weight per edge ({m}, 1), got {w.shape}")
    vals = w.values
    if (vals < 0.0).any() or (vals > 1.0).any():
        raise ValueError("edge weights must lie in [0, 1]")
    w_dir = engine.gather_rows(w, g.pair_edge)
    disp_dir = engine.sub(Tensor(np.ones((2 * m, 1))), w_dir)
    return AdjacencyView(graph=g, weights=w_dir), AdjacencyView(graph=g, weights=disp_dir)


def scaled_cosine_error(recon: Tensor, target: Tensor, gamma: float,
                        gram: np.ndarray | None = None) -> Tensor:
    """Mean over rows of 1 - cos(recon_i, target_i)^gamma, the cosines under
    the inner product ``gram`` when one is given."""
    cos = engine.cosine_rows(recon, target, gram)
    return engine.mean_all(
        engine.sub(Tensor(np.ones(cos.shape)), engine.power(cos, gamma)))


Factors = tuple[Tensor, Tensor, Tensor]   # (M, W, b) of h = M W + 1 b^T


def _filter_basis(factors: Factors) -> tuple[Tensor, np.ndarray]:
    """The constant [M, 1] and the Gram [W; b^T][W; b^T]^T of its inner product."""
    mix, w, b = factors
    proj = np.vstack([w.values, b.values])
    return Tensor(np.hstack([mix.values, np.ones((mix.shape[0], 1))])), proj @ proj.T


def svg_loss(views: tuple[AdjacencyView, AdjacencyView], coh: Factors, disp: Factors,
             gamma_svg: float = 1.0) -> Tensor:
    """Cross-filter reconstruction loss; trains the edge gate only.

    Each backbone output h = [M, 1] [W; b^T] arrives as its constant factors
    (M, W, b), so the only gradient path runs through the views' weights into
    the gating MLP. P h = P([M, 1]) [W; b^T], and each row dot and norm of
    the cosines is a quadratic form in G = [W; b^T][W; b^T]^T: the loss
    scores P([M, 1]) and [M, 1] - P([M, 1]) against [M, 1] under G.
    ``views`` is the (a_coh, a_disp) pair of :func:`build_views`.
    """
    a_coh, a_disp = views
    disp_basis, disp_gram = _filter_basis(disp)
    lpf_recon = sym_propagate(a_disp, disp_basis)
    coh_basis, coh_gram = _filter_basis(coh)
    hpf_recon = engine.sub(coh_basis, sym_propagate(a_coh, coh_basis))
    return engine.add(scaled_cosine_error(lpf_recon, disp_basis, gamma_svg, disp_gram),
                      scaled_cosine_error(hpf_recon, coh_basis, gamma_svg, coh_gram))


def export_weights_tsv(g: Graph, w_values: np.ndarray, path: str) -> None:
    """Eval-mode edge weights as 'u v w' lines."""
    engine.atomic_write(path, "".join(f"{u} {v} {repr(float(we))}\n"
                                      for (u, v), we in zip(g.edges, w_values.ravel())))
