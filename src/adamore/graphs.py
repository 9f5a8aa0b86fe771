"""Graph representation, normalized adjacency, structural statistics, and I/O.

A graph directory holds edges.tsv ("u v" per line, 0-indexed), features.tsv
(one row of floats per node) and optionally labels.tsv (one integer per
line, the first column read). :func:`load_graph` parses each file in one
``np.loadtxt`` pass and checks the arrays; an error names file and line.
Edges are deduplicated and checked on one int64 key per undirected pair,
``lo * n + hi``, whose order is the lexicographic order of the pairs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sps

from . import engine


class GraphFormatError(ValueError):
    """Malformed graph directory contents; message carries file and line."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with node features and optional labels.

    Edges are stored once per undirected pair with u < v, lexicographically
    sorted, no self-loops and no duplicates. The indexes every step reuses
    are built on first use and kept, with their layouts.
    """

    n_nodes: int
    edges: np.ndarray          # (m, 2) int64
    features: np.ndarray       # (n_nodes, F) float64
    labels: np.ndarray | None = None
    n_classes: int | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.n_nodes:
            raise GraphFormatError(
                f"feature matrix must have {self.n_nodes} rows, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise GraphFormatError("feature matrix contains non-finite entries")
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n_nodes:
                raise GraphFormatError("edge endpoint out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise GraphFormatError("self-loop in canonical edge list")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            key = lo * self.n_nodes + hi
            if not (np.diff(key) > 0).all():
                order = np.argsort(key, kind="stable")
                if (np.diff(key[order]) == 0).any():
                    raise GraphFormatError("duplicate edge in canonical edge list")
                lo, hi = lo[order], hi[order]
            edges = np.stack([lo, hi], axis=1)
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (self.n_nodes,):
                raise GraphFormatError(
                    f"labels must have length {self.n_nodes}, got shape {labels.shape}")
            n_classes = self.n_classes if self.n_classes is not None else int(labels.max()) + 1
            if labels.min() < 0 or labels.max() >= n_classes:
                raise GraphFormatError("label outside [0, n_classes)")
            object.__setattr__(self, "n_classes", n_classes)
            labels.setflags(write=False)
        feats.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def pairs(self) -> tuple[engine.Index, engine.Index]:
        """Both orientations of every undirected edge: (src, dst), length 2m,
        pair e and pair m + e the two orientations of edge e."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        return (engine.Index(np.concatenate([u, v]), self.n_nodes),
                engine.Index(np.concatenate([v, u]), self.n_nodes))

    @cached_property
    def pair_edge(self) -> engine.Index:
        """The undirected edge of each directed pair, into the m edges."""
        m = self.n_edges
        return engine.Index(np.concatenate([np.arange(m), np.arange(m)]), m)

    @cached_property
    def looped_pairs(self) -> tuple[engine.Index, engine.Index]:
        """The directed pairs, then a self-loop per node: (src, dst), length 2m + n."""
        src, dst = self.pairs
        loops = np.arange(self.n_nodes)
        return (engine.Index(np.concatenate([src.idx, loops]), self.n_nodes),
                engine.Index(np.concatenate([dst.idx, loops]), self.n_nodes))

    def degrees(self) -> np.ndarray:
        """Raw degrees without self-loops."""
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)


@dataclass(frozen=True)
class SplitSpec:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        sets = [set(self.train.tolist()), set(self.val.tolist()), set(self.test.tolist())]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise ValueError("split index sets overlap")


# ---------------------------------------------------------------------------
# construction and normalization

def make_graph(n_nodes: int, edge_pairs, features, labels=None, n_classes=None) -> Graph:
    """Build a validated Graph, symmetrizing/deduplicating raw edge pairs."""
    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # out-of-range pairs reach Graph unchanged, which rejects them
    if pairs.size and pairs.min() >= 0 and pairs.max() < n_nodes:
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        key = np.unique(lo * n_nodes + hi)
        pairs = np.stack([key // n_nodes, key % n_nodes], axis=1)
    return Graph(n_nodes=n_nodes, edges=pairs, features=features,
                 labels=labels, n_classes=n_classes)


def normalize(g: Graph) -> sps.csr_matrix:
    """A~ = D^-1/2 (A+I) D^-1/2, D the self-looped degrees."""
    n = g.n_nodes
    src, dst = (p.idx for p in g.pairs)
    rows = np.concatenate([src, np.arange(n)])
    cols = np.concatenate([dst, np.arange(n)])
    dinv_sqrt = 1.0 / np.sqrt(g.degrees() + 1.0)
    return sps.csr_matrix((dinv_sqrt[rows] * dinv_sqrt[cols], (rows, cols)), shape=(n, n))


def unit_rows(x: np.ndarray, floor: float) -> np.ndarray:
    """``x`` with each row divided by its norm, or by ``floor`` when the
    norm is smaller. A row whose norm overflows is divided by its max
    |value| before its norm is taken, so it too comes out unit-norm."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / np.maximum(norms, floor)
    big = ~np.isfinite(norms[:, 0])
    if big.any():
        rows = x[big] / np.abs(x[big]).max(axis=1, keepdims=True)
        unit[big] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return unit


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def structural_embeddings(a_tilde: sps.csr_matrix, d_s: int = 8,
                          block: int = 256) -> np.ndarray:
    """Per-node return probabilities of 1..d_s step self-looped random
    walks, (n, d_s) in [0, 1]: the diagonals of T, T^2, ..., T^d_s via
    blocked indicator probes.

    T = D^-1 (A+I) = D^-1/2 A~ D^1/2 shares its power diagonals with the
    symmetric A~, so with the probe columns e_i the half-power identity
    diag(T^p)_i = <A~^floor(p/2) e_i, A~^ceil(p/2) e_i> (for even p the
    squared norm of A~^(p/2) e_i) needs only ceil(d_s / 2) products with A~
    per block of ``block`` probes.

    Blocks run on one thread per usable CPU (at most one per block). The
    sparse product and the column dots release the GIL, and each block
    writes only its own rows of ``s``, so the values equal a serial loop's
    bit for bit. The default block size is the fastest of a sweep at
    n = 2 000, and small blocks keep peak memory low.
    """
    if d_s < 1:
        raise ValueError("d_s must be >= 1")
    n = a_tilde.shape[0]
    s = np.zeros((n, d_s))

    def probe(start: int) -> None:
        stop = min(start + block, n)
        cur = np.zeros((n, stop - start))
        cur[np.arange(start, stop), np.arange(stop - start)] = 1.0
        for p in range(1, d_s + 1):
            # lo = A~^floor(p/2) e_i, cur = A~^ceil(p/2) e_i
            if p % 2:
                lo, cur = cur, a_tilde @ cur
            else:
                lo = cur
            s[start:stop, p - 1] = np.einsum("ij,ij->j", lo, cur)

    starts = range(0, n, block)
    workers = min(_usable_cpus(), len(starts))
    if workers <= 1:
        for start in starts:
            probe(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(probe, starts))  # re-raises a failed block
    return s


# ---------------------------------------------------------------------------
# topological statistics

def local_homophily(g: Graph) -> np.ndarray:
    """Fraction of same-label neighbors per node; isolated nodes get -1."""
    if g.labels is None:
        raise ValueError("local_homophily requires labels")
    src, dst = (p.idx for p in g.pairs)
    same = np.bincount(src, weights=(g.labels[src] == g.labels[dst]).astype(np.float64),
                       minlength=g.n_nodes)
    deg = g.degrees().astype(np.float64)
    h = np.full(g.n_nodes, -1.0)
    mask = deg > 0
    h[mask] = same[mask] / deg[mask]
    return h


def mean_edge_homophily(g: Graph) -> float:
    """Fraction of edges joining same-label endpoints."""
    if g.labels is None:
        raise ValueError("mean_edge_homophily requires labels")
    if not g.n_edges:
        return 0.0
    u, v = g.edges[:, 0], g.edges[:, 1]
    return float((g.labels[u] == g.labels[v]).mean())


def clustering_coefficient(g: Graph) -> np.ndarray:
    """Local clustering coefficient; nodes with degree < 2 get 0.

    Twice a node's triangle count is its row sum of (A @ A) * A, a sum of
    integers, so the coefficients are exact.
    """
    n = g.n_nodes
    src, dst = (p.idx for p in g.pairs)
    a = sps.csr_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n))
    tri2 = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    deg = g.degrees()
    c = np.zeros(n)
    mask = deg >= 2
    c[mask] = tri2[mask] / (deg[mask] * (deg[mask] - 1.0))
    return c


# ---------------------------------------------------------------------------
# synthetic graphs and splits

_PAIR_BLOCK = 1 << 18  # candidate pairs gen_sbm draws per block of rows

def gen_sbm(n_per_block: int, k_blocks: int, p_in: float, p_out: float,
            feat_dim: int = 16, feat_signal: float = 2.0, seed: int = 0) -> Graph:
    """Stochastic block model with orthogonal block-mean features.

    Labels are block ids; each feature row is its block mean (norm
    ``feat_signal``) plus unit Gaussian noise. Deterministic under ``seed``.
    """
    if n_per_block < 1 or k_blocks < 1:
        raise ValueError("block sizes must be positive")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if feat_dim < k_blocks:
        raise ValueError(f"feat_dim {feat_dim} too small for {k_blocks} orthogonal block means")
    rng = np.random.default_rng(seed)
    n = n_per_block * k_blocks
    labels = np.repeat(np.arange(k_blocks), n_per_block)
    # One uniform per upper-triangle pair, in triu order, drawn a block of
    # rows at a time: the same stream as one draw over all n(n-1)/2 pairs,
    # without holding them.
    cols = np.arange(n)
    rows_per_block = max(1, _PAIR_BLOCK // n)
    kept = []
    for r0 in range(0, n, rows_per_block):
        rows = cols[r0:r0 + rows_per_block]
        upper = cols > rows[:, None]
        u = np.ones(upper.shape)
        u[upper] = rng.random(np.count_nonzero(upper))
        p = np.where(labels[rows][:, None] == labels, p_in, p_out)
        bi, ju = np.nonzero(u < p)
        kept.append(np.stack([rows[bi], ju], axis=1))
    edges = np.concatenate(kept)
    means = np.zeros((k_blocks, feat_dim))
    means[np.arange(k_blocks), np.arange(k_blocks)] = feat_signal
    features = means[labels] + rng.standard_normal((n, feat_dim))
    return Graph(n_nodes=n, edges=edges, features=features,
                 labels=labels, n_classes=k_blocks)


def _allocate(count: int, fractions: Sequence[float]) -> list[int]:
    sizes = [int(round(f * count)) for f in fractions]
    overflow = sum(sizes) - count
    i = len(sizes) - 1
    while overflow > 0 and i >= 0:
        take = min(overflow, sizes[i])
        sizes[i] -= take
        overflow -= take
        i -= 1
    return sizes


def make_splits(g: Graph, fractions: tuple[float, float, float], seed: int) -> SplitSpec:
    """Disjoint train/val/test splits, stratified by label when present."""
    if any(f <= 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
        raise ValueError("fractions must be positive and sum to at most 1")
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[], [], []]
    # an unlabeled graph is one group of all nodes
    groups = ([np.flatnonzero(g.labels == c) for c in range(g.n_classes)]
              if g.labels is not None else [np.arange(g.n_nodes)])
    for c, idx in enumerate(groups):
        rng.shuffle(idx)
        sizes = _allocate(idx.shape[0], fractions)
        if g.labels is not None and sizes[0] < 1:
            raise ValueError(f"class {c} has too few members for one train example")
        for bucket, part in zip(buckets, np.split(idx, np.cumsum(sizes))):
            bucket.append(part)
    parts = [np.sort(np.concatenate(b)) if b else np.array([], dtype=np.int64)
             for b in buckets]
    return SplitSpec(train=parts[0], val=parts[1], test=parts[2], seed=seed)


# ---------------------------------------------------------------------------
# directory I/O

def _error_at(path: str, row: int, what: str) -> GraphFormatError:
    """The error naming the line of data row ``row`` (from 0; blank lines,
    which np.loadtxt skips, are not counted)."""
    with open(path) as fh:
        lines = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
        lineno = next(itertools.islice(lines, row, None), "?")
    return GraphFormatError(f"{path}:{lineno}: {what}")


def _table(path: str, dtype, bad_value: str, bad_width: str = "ragged row",
           **kw) -> np.ndarray:
    """The whole file as one 2-d array from one ``np.loadtxt`` pass, which
    converts floats with the C routine behind float() and skips blank lines.
    A file it refuses raises GraphFormatError at the row numpy names."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows
            return np.loadtxt(path, dtype=dtype, ndmin=2, comments=None, **kw)
    except ValueError as err:
        # numpy counts rows from 0 for a value it cannot convert ("at row r,
        # column c") and from 1 for a row of another width
        found = re.match(r"(.*) at row (\d+)(, column)?", str(err))
        if found is None:
            raise GraphFormatError(f"{path}: {err}") from None
        row, what = (int(found[2]), bad_value) if found[3] else (int(found[2]) - 1, bad_width)
        raise _error_at(path, row, f"{what} ({found[1]})") from None


def load_graph(dir_path: str) -> Graph:
    """Load and validate a graph directory (edges/features/labels tsv).

    Each file is parsed by :func:`_table` and checked with array operations;
    a failed check names the file and line of the first offending row.
    """
    feat_path = os.path.join(dir_path, "features.tsv")
    edge_path = os.path.join(dir_path, "edges.tsv")
    label_path = os.path.join(dir_path, "labels.tsv")
    for required in (feat_path, edge_path):
        if not os.path.exists(required):
            raise GraphFormatError(f"missing file: {required}")

    features = _table(feat_path, np.float64, "non-numeric feature value")
    if not features.size:
        raise GraphFormatError(f"{feat_path}: no feature rows")
    finite = np.isfinite(features)
    if not finite.all():
        raise _error_at(feat_path, np.argmin(finite.all(axis=1)), "non-finite feature value")
    n = features.shape[0]

    pairs = _table(edge_path, np.int64, "non-integer node index", "expected 'u v'")
    if pairs.size and pairs.shape[1] != 2:
        raise _error_at(edge_path, 0, f"expected 'u v', got {pairs.shape[1]} values")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        inside = ((pairs >= 0) & (pairs < n)).all(axis=1)
        raise _error_at(edge_path, np.argmin(inside), f"node index out of range for {n} nodes")

    labels = None
    if os.path.exists(label_path):
        labels = _table(label_path, np.int64, "non-integer label", usecols=0).ravel()
        if labels.shape != (n,):
            raise GraphFormatError(f"{label_path}: {labels.size} labels for {n} nodes")
        if labels.min() < 0:
            raise GraphFormatError(f"{label_path}: negative label")

    return make_graph(n, pairs, features, labels=labels)


def fingerprint(g: Graph) -> str:
    """sha256 hex digest of the edge list and feature matrix (shapes included)."""
    digest = hashlib.sha256()
    for arr in (np.ascontiguousarray(g.edges, dtype=np.int64),
                np.ascontiguousarray(g.features, dtype=np.float64)):
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def save_graph(g: Graph, dir_path: str) -> None:
    files = {"edges.tsv": "".join(f"{u} {v}\n" for u, v in g.edges),
             "features.tsv": "".join(" ".join(repr(float(x)) for x in row) + "\n"
                                     for row in g.features)}
    if g.labels is not None:
        files["labels.tsv"] = "".join(f"{y}\n" for y in g.labels)
    for name, text in files.items():
        engine.atomic_write(os.path.join(dir_path, name), text)
