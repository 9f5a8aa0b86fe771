"""Graph filter operators over weighted adjacency views.

All filters are pure propagation (no nonlinearity): SGC applies the
symmetrically renormalized view k times, LapSGC applies (I - alpha * A~) k
times, the parameter-free single-hop pair backs the cross-filter loss, and
the spline pair provides the complementary low/high split whose sum is the
identity. Degrees are recomputed from the current per-edge weights on every
forward pass, so weight gradients are exact through the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor
from .graphs import Graph

FILTER_KINDS = ("sgc", "lapsgc", "free_lpf", "free_hpf", "spline_lp", "spline_hp")


@dataclass(frozen=True)
class FilterSpec:
    """One configured filter; alpha is meaningful for lapsgc only."""

    kind: str
    k_hops: int = 1
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.k_hops < 0:
            raise ValueError("k_hops must be >= 0")
        if self.kind == "lapsgc":
            alpha = 1.0 if self.alpha is None else self.alpha
            if not (0.0 < alpha <= 1.0):
                raise ValueError("lapsgc alpha must lie in (0, 1]")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"alpha is only valid for lapsgc, got kind {self.kind!r}")

    def token(self) -> str:
        if self.kind == "lapsgc":
            return f"{self.kind}:{self.k_hops}:{self.alpha}"
        return f"{self.kind}:{self.k_hops}"


@dataclass
class AdjacencyView:
    """Self-looped adjacency whose off-diagonal entries carry learned weights.

    ``weights`` has one entry per directed edge (both orientations of an
    undirected edge share the same weight) and participates in the tape.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: Tensor  # (2m, 1)

    def __post_init__(self):
        if self.weights.shape != (self.src.shape[0], 1):
            raise engine.ShapeError(
                f"view weights shape {self.weights.shape} does not match "
                f"{self.src.shape[0]} directed edges")


def raw_view(g: Graph) -> AdjacencyView:
    """The unweighted graph as a view (all edge weights one, constant)."""
    src, dst = g.directed_pairs()
    return AdjacencyView(n_nodes=g.n_nodes, src=src, dst=dst,
                         weights=Tensor(np.ones((src.shape[0], 1))))


def weighted_degrees(view: AdjacencyView) -> Tensor:
    """Self-looped weighted degree per node: 1 + sum of incident weights."""
    if view.src.shape[0] == 0:
        return Tensor(np.ones((view.n_nodes, 1)))
    return engine.add_scalar(engine.scatter_rows(view.weights, view.dst, view.n_nodes), 1.0)


def neighbor_sum(view: AdjacencyView, h: Tensor) -> Tensor:
    """Weighted neighbor sum W h (no self-loop): gather, weight, scatter.

    The filters and the SAGE / GIN experts all propagate through here.
    """
    if view.src.shape[0] == 0:
        return engine.scale(h, 0.0)
    msg = engine.mul_col(engine.gather_rows(h, view.src), view.weights)
    return engine.scatter_rows(msg, view.dst, view.n_nodes)


def neighbor_mean(view: AdjacencyView, h: Tensor) -> Tensor:
    """Weighted neighbor average D_edge^-1 W h (no self-loop)."""
    total = neighbor_sum(view, h)
    if view.src.shape[0] == 0:
        return total
    # the degree is recorded after the sum: backward accumulates the
    # weight gradients in reverse record order, so this order fixes the bits
    deg = engine.add_scalar(engine.scatter_rows(view.weights, view.dst, view.n_nodes), engine.EPS)
    return engine.mul_col(total, engine.power(deg, -1.0))


def sym_propagate(view: AdjacencyView, h: Tensor) -> Tensor:
    """One hop of D^-1/2 (W + I) D^-1/2 with weighted degrees."""
    deg = weighted_degrees(view)
    self_term = engine.mul_col(h, engine.power(deg, -1.0))
    if view.src.shape[0] == 0:
        return self_term
    dinv_sqrt = engine.power(deg, -0.5)
    agg = neighbor_sum(view, engine.mul_col(h, dinv_sqrt))
    return engine.add(engine.mul_col(agg, dinv_sqrt), self_term)


def apply_filter(spec: FilterSpec, h: Tensor, view: AdjacencyView) -> Tensor:
    """One filter: the single-spec case of :func:`filter_bank_outputs`."""
    return filter_bank_outputs([spec], h, view)[0]


def filter_bank_outputs(specs: list[FilterSpec], h: Tensor,
                        view: AdjacencyView) -> list[Tensor]:
    """Apply every spec, reusing hop-k outputs for hop-(k+1) within a family."""
    if not specs:
        raise ValueError("filter bank needs at least one spec")
    sgc_cache: dict[int, Tensor] = {0: h}
    lap_cache: dict[tuple[float, int], Tensor] = {}

    def sgc_hop(k: int) -> Tensor:
        if k not in sgc_cache:
            sgc_cache[k] = sym_propagate(view, sgc_hop(k - 1))
        return sgc_cache[k]

    def lap_hop(alpha: float, k: int) -> Tensor:
        if k == 0:
            return h
        key = (alpha, k)
        if key not in lap_cache:
            prev = lap_hop(alpha, k - 1)
            lap_cache[key] = engine.sub(prev, engine.scale(sym_propagate(view, prev), alpha))
        return lap_cache[key]

    outputs = []
    for spec in specs:
        if spec.kind == "sgc":
            outputs.append(sgc_hop(spec.k_hops))
        elif spec.kind == "lapsgc":
            outputs.append(lap_hop(spec.alpha, spec.k_hops))
        elif spec.kind == "free_lpf":
            outputs.append(sgc_hop(1))
        elif spec.kind == "free_hpf":
            outputs.append(engine.sub(h, sgc_hop(1)))
        elif spec.kind == "spline_lp":
            outputs.append(engine.scale(engine.add(h, neighbor_mean(view, h)), 0.5))
        else:  # spline_hp
            outputs.append(engine.scale(engine.sub(h, neighbor_mean(view, h)), 0.5))
    return outputs
