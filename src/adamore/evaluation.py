"""Downstream evaluation of frozen embeddings.

Linear probing trains a multinomial logistic regression by full-batch
gradient descent in its own engine session; clustering runs seeded Lloyd
k-means with a k-means++ start and scores ACC (optimal assignment), NMI
(arithmetic normalization) and ARI; the prototype protocol classifies
queries by the nearest class mean of k labeled support embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import engine, graphs
from .engine import Tensor
from .graphs import Graph, SplitSpec


@dataclass(frozen=True)
class AccuracyResult:
    """Accuracies over repeated splits or tasks, with their mean and std."""

    mean: float
    std: float
    accuracies: tuple[float, ...]

    @classmethod
    def from_accuracies(cls, accuracies) -> "AccuracyResult":
        accs = np.array(accuracies)
        return cls(mean=float(accs.mean()), std=float(accs.std()),
                   accuracies=tuple(accs.tolist()))


@dataclass(frozen=True)
class ClusterResult:
    acc: float
    nmi: float
    ari: float


# ---------------------------------------------------------------------------
# linear probe

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of the row softmax of ``logits`` against ``labels``."""
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    return engine.scale(engine.frobenius(engine.log_softmax_rows(logits), Tensor(onehot)),
                        -1.0 / len(labels))


def predict(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Labels of the linear classifier (w, b): the row argmax of x w + b."""
    return (x @ w + b).argmax(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _fit_logreg(x: np.ndarray, y: np.ndarray, n_classes: int,
                steps: int = 500, lr: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent on softmax cross-entropy; a non-finite value
    raises :class:`engine.NonFiniteError` naming the op, with no numpy warning."""
    engine.reset_tape()
    w = engine.zeros_param((x.shape[1], n_classes))
    b = engine.zeros_param((1, n_classes))
    x_const = Tensor(x)
    for _ in range(steps):
        engine.reset_tape()
        engine.zero_grads([w, b])
        engine.backward(softmax_cross_entropy(engine.linear(x_const, w, b), y))
        w.values = w.values - lr * w.grad
        b.values = b.values - lr * b.grad
    engine.reset_tape()
    return w.values, b.values


def probe_once(embeddings: np.ndarray, labels: np.ndarray, split: SplitSpec) -> float:
    """Test accuracy of :func:`_fit_logreg`, at its defaults, on the train split."""
    train_y = labels[split.train]
    if np.unique(train_y).size < 2:
        raise ValueError("probe train split contains a single class")
    n_classes = int(labels.max()) + 1
    w, b = _fit_logreg(embeddings[split.train], train_y, n_classes)
    return float((predict(embeddings[split.test], w, b) == labels[split.test]).mean())


def linear_probe(embeddings: np.ndarray, labels: np.ndarray, g: Graph,
                 repeats: int = 5, seed: int = 0) -> AccuracyResult:
    """Probe accuracy over ``repeats`` seeded 10/10/80 train/val/test splits."""
    accs = []
    for r in range(repeats):
        split = graphs.make_splits(g, (0.1, 0.1, 0.8), seed=seed + r)
        accs.append(probe_once(embeddings, labels, split))
    return AccuracyResult.from_accuracies(accs)


# ---------------------------------------------------------------------------
# k-means clustering with standard external metrics

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[rng.integers(x.shape[0])]]
    for _ in range(1, k):
        d2 = np.min([((x - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0.0:
            centers.append(x[rng.integers(x.shape[0])])
            continue
        probs = d2 / total
        centers.append(x[rng.choice(x.shape[0], p=probs)])
    return np.array(centers)


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of every row of ``x`` to every center, (n, k).

    Row blocks keep the k-wide broadcast cache-sized; each entry is the
    same ``((x_i - c) ** 2).sum()`` as the all-rows broadcast.
    """
    d2 = np.empty((x.shape[0], centers.shape[0]))
    step = engine.block_rows(8 * centers.size)
    for lo in range(0, x.shape[0], step):
        d2[lo:lo + step] = ((x[lo:lo + step, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """At most 100 Lloyd iterations from a k-means++ start."""
    centers = _kmeans_pp_init(x, k, rng)
    assign = np.full(x.shape[0], -1, dtype=np.int64)
    for _ in range(100):
        new_assign = _sq_dists(x, centers).argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = x[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
    inertia = float(((x - centers[assign]) ** 2).sum())
    return assign, inertia


def contingency_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    table = np.zeros((int(a.max()) + 1, int(b.max()) + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def clustering_accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    """Best cluster-to-class matching accuracy via optimal assignment."""
    table = contingency_table(pred, labels)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / labels.shape[0])


def nmi_score(a: np.ndarray, b: np.ndarray) -> float:
    """Mutual information normalized by the arithmetic mean of entropies."""
    n = a.shape[0]
    table = contingency_table(a, b).astype(np.float64) / n
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    mask = table > 0
    outer = pa[:, None] * pb[None, :]
    mi = float((table[mask] * np.log(table[mask] / outer[mask])).sum())
    ha = float(-(pa[pa > 0] * np.log(pa[pa > 0])).sum())
    hb = float(-(pb[pb > 0] * np.log(pb[pb > 0])).sum())
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / (0.5 * (ha + hb))


def ari_score(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index from the pair-counting contingency formula."""
    table = contingency_table(a, b)
    n = a.shape[0]
    sum_comb = float((table * (table - 1) // 2).sum())
    comb_a = float((table.sum(axis=1) * (table.sum(axis=1) - 1) // 2).sum())
    comb_b = float((table.sum(axis=0) * (table.sum(axis=0) - 1) // 2).sum())
    total = n * (n - 1) / 2
    expected = comb_a * comb_b / total if total else 0.0
    max_index = 0.5 * (comb_a + comb_b)
    if max_index == expected:
        return 0.0
    return (sum_comb - expected) / (max_index - expected)


def kmeans_eval(embeddings: np.ndarray, labels: np.ndarray, k: int,
                seeds: tuple[int, ...] = (0, 1, 2, 3, 4)) -> ClusterResult:
    """Best-of-seeds Lloyd k-means scored against the labels."""
    if k > np.unique(embeddings, axis=0).shape[0]:
        raise ValueError(f"k={k} exceeds the number of distinct points")
    best = None
    for seed in seeds:
        assign, inertia = _lloyd(embeddings, k, np.random.default_rng(seed))
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    assign = best[0]
    return ClusterResult(acc=clustering_accuracy(assign, labels),
                         nmi=nmi_score(assign, labels),
                         ari=ari_score(assign, labels))


# ---------------------------------------------------------------------------
# prototype few-shot protocol

def prototype_classify(embeddings: np.ndarray, support: np.ndarray,
                       support_labels: np.ndarray, queries: np.ndarray,
                       n_classes: int) -> np.ndarray:
    """Assign each query the label of its nearest class prototype.

    Distance ties resolve to the lowest class id.
    """
    protos = np.zeros((n_classes, embeddings.shape[1]))
    for c in range(n_classes):
        members = support[support_labels == c]
        if members.size == 0:
            raise ValueError(f"class {c} has no support examples")
        protos[c] = embeddings[members].mean(axis=0)
    return _sq_dists(embeddings[queries], protos).argmin(axis=1)


def prototype_fewshot(embeddings: np.ndarray, labels: np.ndarray, k: int,
                      n_tasks: int = 100, seed: int = 0) -> AccuracyResult:
    """Accuracy over sampled k-shot tasks; queries are the remaining nodes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_classes = int(labels.max()) + 1
    rng = np.random.default_rng(seed)
    labeled = np.flatnonzero(labels >= 0)
    accs = []
    for _ in range(n_tasks):
        support = []
        for c in range(n_classes):
            members = np.flatnonzero(labels == c)
            if members.size < k + 1:
                raise ValueError(f"class {c} too small for {k}-shot tasks")
            support.extend(rng.choice(members, size=k, replace=False).tolist())
        support = np.array(sorted(support))
        queries = np.setdiff1d(labeled, support)
        pred = prototype_classify(embeddings, support, labels[support],
                                  queries, n_classes)
        accs.append(float((pred == labels[queries]).mean()))
    return AccuracyResult.from_accuracies(accs)
