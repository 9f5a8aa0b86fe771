"""Unsupervised graph mixture-of-residual-experts library.

Submodules:
  engine      reverse-mode autodiff over dense matrices, Adam, checkpoints
  graphs      graph loading, normalization, structural embeddings, SBM
  filters     SGC / LapSGC / spline graph filters over weighted views
  gating      edge gating, Gumbel-Sigmoid views, cross-filter loss
  experts     sparse MoE backbone, residual pool, CKA diversity
  fusion      adaptive per-node channel fusion
  trainer     alternating unsupervised training, few-shot, naive baseline
  evaluation  linear probe, k-means clustering metrics, prototype few-shot
  experiments probe studies (oracle weights, noise, sensitivity), stability, motivation
  cli         command-line entry point
"""

from . import (engine, evaluation, experiments, experts, filters, fusion,
               gating, graphs, trainer)
from .engine import Tensor
from .graphs import Graph, gen_sbm, load_graph
from .trainer import TrainConfig, TrainState, embed, train

__all__ = [
    "engine", "evaluation", "experiments", "experts", "filters", "fusion",
    "gating", "graphs", "trainer",
    "Tensor", "Graph", "gen_sbm", "load_graph",
    "TrainConfig", "TrainState", "embed", "train",
]
