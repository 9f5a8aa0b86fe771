"""Graph filter operators over weighted adjacency views.

All filters are pure propagation (no nonlinearity). A filter bank is hops
1..N of one family: SGC applies the symmetrically renormalized view A~ k
times, LapSGC applies (I - A~) k times, and each hop is computed once from
the one before. The spline pair is the complementary low/high split whose
sum is the identity. A view records its weighted degree once, when it is
built; every hop on the view reads that record, so weight gradients stay
exact through the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import Tensor
from .graphs import Graph


@dataclass
class AdjacencyView:
    """Self-looped adjacency whose off-diagonal entries carry learned weights.

    ``weights`` has one entry per directed pair of ``graph`` (both
    orientations of an undirected edge share the same weight) and
    participates in the tape. The weighted degree is recorded once, on the
    tape current when the view is built, so build a view after the tape
    reset of the step that uses it.
    """

    graph: Graph
    weights: Tensor  # (2m, 1)
    weight_sum: Tensor = field(init=False)    # sum of incident weights, (n, 1)
    inv_deg: Tensor = field(init=False)       # (1 + weight_sum)^-1
    inv_sqrt_deg: Tensor = field(init=False)  # (1 + weight_sum)^-1/2

    def __post_init__(self):
        if self.weights.shape != (2 * self.graph.n_edges, 1):
            raise engine.ShapeError(
                f"view weights shape {self.weights.shape} does not match "
                f"{2 * self.graph.n_edges} directed edges")
        self.weight_sum = engine.scatter_rows(self.weights, self.graph.pairs[1],
                                              self.graph.n_nodes)
        deg = engine.add_scalar(self.weight_sum, 1.0)
        self.inv_deg = engine.power(deg, -1.0)
        self.inv_sqrt_deg = engine.power(deg, -0.5)


def raw_view(g: Graph) -> AdjacencyView:
    """The unweighted graph as a view (all edge weights one, constant)."""
    return AdjacencyView(graph=g, weights=Tensor(np.ones((2 * g.n_edges, 1))))


def neighbor_sum(view: AdjacencyView, h: Tensor) -> Tensor:
    """Weighted neighbor sum W h (no self-loop), one :func:`engine.edge_sum`.

    The filters and the SAGE / GIN experts all propagate through here; no
    per-edge message matrix is formed or kept on the tape.
    """
    src, dst = view.graph.pairs
    return engine.edge_sum(h, view.weights, src, dst, view.graph.n_nodes)


def neighbor_mean(view: AdjacencyView, h: Tensor) -> Tensor:
    """Weighted neighbor average D_edge^-1 W h (no self-loop)."""
    total = neighbor_sum(view, h)
    # the degree terms are recorded after the sum: backward accumulates the
    # weight gradients in reverse record order, so this order fixes the bits
    inv = engine.power(engine.add_scalar(view.weight_sum, engine.EPS), -1.0)
    return engine.mul_col(total, inv)


def sym_propagate(view: AdjacencyView, h: Tensor) -> Tensor:
    """One hop of D^-1/2 (W + I) D^-1/2 on the view, an :func:`engine.hop`."""
    return engine.hop(h, view.weights, view.inv_sqrt_deg, view.inv_deg, *view.graph.pairs)


def spline_pair(view: AdjacencyView, h: Tensor) -> tuple[Tensor, Tensor]:
    """(lp, hp) = ((h + M h) / 2, (h - M h) / 2), M the neighbor mean."""
    mean = neighbor_mean(view, h)
    return engine.scale(engine.add(h, mean), 0.5), engine.scale(engine.sub(h, mean), 0.5)


def filter_bank_outputs(family: str, n_hops: int, h: Tensor,
                        view: AdjacencyView) -> list[Tensor]:
    """Hops 1..``n_hops`` of ``family``: A~^k h for ``"sgc"``, (I - A~)^k h
    for ``"lapsgc"``, each from the one before."""
    if family not in ("sgc", "lapsgc"):
        raise ValueError(f"unknown filter family {family!r}")
    outputs = []
    for _ in range(n_hops):
        step = sym_propagate(view, h)
        h = step if family == "sgc" else engine.sub(h, step)
        outputs.append(h)
    return outputs
