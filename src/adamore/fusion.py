"""Adaptive per-node fusion of the cohesive and dispersive channels.

The blend coefficient alpha averages a structural cue (mean learned weight
on incident edges) with a semantic cue (mean cosine between a node's
cohesive embedding and its neighbors'), then gets smoothed by one step of
normalized propagation and clamped to [0, 1]. Alpha is a constant with
respect to the tape: gradients flow into the channel embeddings only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from . import engine, graphs
from .engine import Tensor
from .graphs import Graph

ISOLATED_BLEND = 0.5


def semantic_score(h_coh: np.ndarray, g: Graph) -> np.ndarray:
    """Mean cosine between each node's embedding and its neighbors'.

    Uses original (non-self-looped) neighborhoods; isolated nodes get the
    neutral blend 0.5; raw cosine is clamped to [0, 1]. The per-edge dots
    run in row blocks (:func:`engine.gathered_pairs`), each row summed as
    ``(a * b).sum(axis=1)``, over the rows of :func:`graphs.unit_rows`.
    """
    unit = graphs.unit_rows(h_coh, engine.EPS)
    # the cosine is symmetric: one per undirected edge, counted at both ends
    per_edge = np.empty(g.n_edges)
    for lo, hi, a, b in engine.gathered_pairs(unit, unit, g.edges[:, 0], g.edges[:, 1]):
        np.multiply(a, b, out=a)
        a.sum(axis=1, out=per_edge[lo:hi])
    acc = np.bincount(g.pairs[1].idx, weights=per_edge[g.pair_edge.idx], minlength=g.n_nodes)
    return _incident_mean(acc, g)


def structural_score(w: np.ndarray, g: Graph) -> np.ndarray:
    """Mean of the per-edge weights ``w`` over each node's incident edges.

    Isolated nodes get the neutral blend 0.5.
    """
    w = np.asarray(w).ravel()
    return _incident_mean(np.bincount(g.pairs[0].idx, weights=w[g.pair_edge.idx],
                                      minlength=g.n_nodes), g)


def _incident_mean(total: np.ndarray, g: Graph) -> np.ndarray:
    """Per-node ``total`` over the degree, clamped to [0, 1]; isolated nodes
    get the neutral blend 0.5."""
    deg = g.degrees().astype(np.float64)
    score = np.full(g.n_nodes, ISOLATED_BLEND)
    mask = deg > 0
    score[mask] = total[mask] / deg[mask]
    return np.clip(score, 0.0, 1.0)


def propagate_alpha(init: np.ndarray, a_tilde: sps.csr_matrix) -> np.ndarray:
    """One normalized propagation step (self-loop included), then clamp."""
    return np.clip(a_tilde @ init, 0.0, 1.0)


def compute_fusion(w: np.ndarray, h_coh: np.ndarray, g: Graph,
                   a_tilde: sps.csr_matrix) -> np.ndarray:
    """Per-node alpha in [0, 1] from the eval-mode edge weights ``w``, one per edge."""
    cue = 0.5 * (structural_score(w, g) + semantic_score(h_coh, g))
    return propagate_alpha(cue, a_tilde)


def fuse(h_coh: Tensor, h_disp: Tensor, alpha: np.ndarray) -> Tensor:
    """Concatenate alpha-scaled cohesive and (1-alpha)-scaled dispersive
    halves, one :func:`engine.blend` record."""
    return engine.blend(h_coh, h_disp, np.asarray(alpha, dtype=np.float64).reshape(-1, 1))


def export_alpha_tsv(alpha: np.ndarray, path: str) -> None:
    engine.atomic_write(path, "".join(f"{i} {repr(float(a))}\n"
                                      for i, a in enumerate(np.asarray(alpha).ravel())))
