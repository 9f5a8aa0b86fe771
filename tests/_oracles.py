"""Independent oracles shared by the test suite.

These stay deliberately naive (dense matrices, explicit loops, central
finite differences) so they never share code paths with the library.
"""

import numpy as np

from adamore import engine


def fd_grad(loss_fn, param: engine.Tensor, h: float = 1e-5,
            entries=None, rng=None, n_entries: int = 6) -> np.ndarray:
    """Central finite differences of a scalar loss wrt selected entries.

    ``loss_fn`` must be a deterministic closure that rebuilds the whole
    computation from current parameter values and returns a float.
    Returns an array of FD derivatives aligned with ``entries``.
    """
    if entries is None:
        rng = rng or np.random.default_rng(0)
        flat = rng.choice(param.values.size, size=min(n_entries, param.values.size),
                          replace=False)
        entries = [np.unravel_index(int(i), param.values.shape) for i in flat]
    out = np.zeros(len(entries))
    base = param.values.copy()
    for k, (i, j) in enumerate(entries):
        param.values = base.copy()
        param.values[i, j] = base[i, j] + h
        up = loss_fn()
        param.values = base.copy()
        param.values[i, j] = base[i, j] - h
        down = loss_fn()
        out[k] = (up - down) / (2.0 * h)
    param.values = base
    return out


def check_grad(loss_fn, params, rtol: float = 1e-4, h: float = 1e-5,
               seed: int = 0, n_entries: int = 6) -> float:
    """Analytic-vs-FD relative error over sampled entries of each parameter.

    Runs the loss once with autodiff, then perturbs entries. Returns the
    max relative error observed (and asserts nothing itself).
    """
    rng = np.random.default_rng(seed)
    engine.reset_tape()
    engine.zero_grads(params)
    loss = loss_fn()
    engine.backward(loss)
    analytic = {id(p): (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
                for p in params}
    worst = 0.0
    for p in params:
        flat = rng.choice(p.values.size, size=min(n_entries, p.values.size), replace=False)
        entries = [np.unravel_index(int(i), p.values.shape) for i in flat]

        def scalar_loss():
            engine.reset_tape()
            return loss_fn().item()

        fd = fd_grad(scalar_loss, p, h=h, entries=entries)
        an = np.array([analytic[id(p)][i, j] for i, j in entries])
        denom = np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(np.max(np.abs(an - fd) / denom)))
    engine.reset_tape()
    return worst


def dense_sym_norm(adj: np.ndarray) -> np.ndarray:
    """Dense D^-1/2 (A+I) D^-1/2 for small-graph oracles."""
    a_hat = adj + np.eye(adj.shape[0])
    d = a_hat.sum(axis=1)
    dinv = 1.0 / np.sqrt(d)
    return dinv[:, None] * a_hat * dinv[None, :]


def dense_walk_norm(adj: np.ndarray) -> np.ndarray:
    """Dense D^-1 (A+I) for small-graph oracles."""
    a_hat = adj + np.eye(adj.shape[0])
    return a_hat / a_hat.sum(axis=1, keepdims=True)


def self_looped(g) -> tuple[np.ndarray, np.ndarray]:
    """Dense A + I of a Graph and its row sums, the self-looped degrees."""
    a_hat = np.eye(g.n_nodes)
    u, v = g.edges[:, 0], g.edges[:, 1]
    a_hat[u, v] = a_hat[v, u] = 1.0
    return a_hat, a_hat.sum(axis=1)


def random_adjacency(rng: np.random.Generator, n: int, p: float = 0.4) -> np.ndarray:
    """Random symmetric 0/1 adjacency without self-loops."""
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def sbm_all_pairs(n_per_block: int, k_blocks: int, p_in: float, p_out: float,
                  feat_dim: int = 16, feat_signal: float = 2.0, seed: int = 0):
    """The SBM draw over all n(n-1)/2 pairs at once: (edges, features, labels).

    One uniform per upper-triangle pair in ``np.triu_indices`` order, then
    the feature noise, from one PCG64 stream.
    """
    rng = np.random.default_rng(seed)
    n = n_per_block * k_blocks
    labels = np.repeat(np.arange(k_blocks), n_per_block)
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.shape[0]) < p
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    means = np.zeros((k_blocks, feat_dim))
    means[np.arange(k_blocks), np.arange(k_blocks)] = feat_signal
    features = means[labels] + rng.standard_normal((n, feat_dim))
    return edges, features, labels


def clustering_by_set_intersections(g) -> np.ndarray:
    """Local clustering coefficient from per-edge neighbour-set
    intersections; nodes with degree < 2 get 0."""
    deg = g.degrees()
    nbrs = [set() for _ in range(g.n_nodes)]
    for u, v in g.edges:
        nbrs[u].add(int(v))
        nbrs[v].add(int(u))
    tri2 = np.zeros(g.n_nodes)  # per-node triangle count times 2
    for u, v in g.edges:
        common = len(nbrs[u] & nbrs[v])
        tri2[u] += common
        tri2[v] += common
    c = np.zeros(g.n_nodes)
    mask = deg >= 2
    tri = tri2 / 2.0
    c[mask] = 2.0 * tri[mask] / (deg[mask] * (deg[mask] - 1.0))
    return c


def sq_dists_broadcast(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of all rows to all centers by one n x k x d broadcast."""
    return ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
