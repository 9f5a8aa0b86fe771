"""Graph filter operators over weighted adjacency views.

All filters are pure propagation (no nonlinearity): SGC applies the
symmetrically renormalized view k times, LapSGC applies (I - A~) k times,
and the spline pair provides the complementary low/high split whose sum is
the identity. A view records its weighted degree once, when it is built;
every hop on the view reads that record, so weight gradients stay exact
through the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import Tensor
from .graphs import Graph

FILTER_KINDS = ("sgc", "lapsgc", "spline_lp", "spline_hp")


@dataclass(frozen=True)
class FilterSpec:
    """One configured filter: a kind and its hop count."""

    kind: str
    k_hops: int = 1

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.k_hops < 0:
            raise ValueError("k_hops must be >= 0")


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


def filter_bank_outputs(specs: list[FilterSpec], h: Tensor,
                        view: AdjacencyView) -> list[Tensor]:
    """Apply every spec, reusing hop-k outputs for hop-(k+1) within a family."""
    if not specs:
        raise ValueError("filter bank needs at least one spec")
    hops: dict[tuple[str, int], Tensor] = {("sgc", 0): h, ("lapsgc", 0): h}

    def hop(kind: str, k: int) -> Tensor:
        if (kind, k) not in hops:
            prev = hop(kind, k - 1)
            step = sym_propagate(view, prev)
            hops[kind, k] = step if kind == "sgc" else engine.sub(prev, step)
        return hops[kind, k]

    outputs = []
    for spec in specs:
        if spec.kind in ("sgc", "lapsgc"):
            outputs.append(hop(spec.kind, spec.k_hops))
        elif spec.kind == "spline_lp":
            outputs.append(engine.scale(engine.add(h, neighbor_mean(view, h)), 0.5))
        else:  # spline_hp
            outputs.append(engine.scale(engine.sub(h, neighbor_mean(view, h)), 0.5))
    return outputs
