from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamore import engine, filters, gating, graphs
from adamore.engine import Tensor

from _oracles import check_grad, dense_sym_norm, random_adjacency


def path2():
    return graphs.make_graph(2, [(0, 1)], np.eye(2))


def view_with_weights(g, w):
    """Weighted view straight from a per-undirected-edge weight vector."""
    wt = Tensor(np.concatenate([w, w]).reshape(-1, 1))
    return filters.AdjacencyView(graph=g, weights=wt)


def dense_weighted_sym(g, w):
    """Dense oracle for the weighted symmetric normalization."""
    n = g.n_nodes
    a = np.zeros((n, n))
    for (u, v), we in zip(g.edges, w):
        a[u, v] = we
        a[v, u] = we
    a += np.eye(n)
    d = a.sum(axis=1)
    return a / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]


# every filter: the two bank families and the two halves of the spline pair
FILTERS = ("sgc", "lapsgc", "spline_lp", "spline_hp")


def apply_filter(name, h, view, k=1):
    """Hop k of a bank family, or one half of the spline pair."""
    if name.startswith("spline"):
        return filters.spline_pair(view, h)[name == "spline_hp"]
    return filters.filter_bank_outputs(name, k, h, view)[-1]


def test_unknown_filter_family_raises():
    g = path2()
    for family in ("spline_lp", "nope"):
        with pytest.raises(ValueError, match="unknown filter family"):
            filters.filter_bank_outputs(family, 1, Tensor(np.eye(2)), filters.raw_view(g))


def test_sgc_one_hop_two_node_path():
    g = path2()
    out = filters.filter_bank_outputs("sgc", 1, Tensor(np.eye(2)), filters.raw_view(g))[0]
    assert np.allclose(out.values, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_lapsgc_one_hop_two_node_path():
    g = path2()
    out = filters.filter_bank_outputs("lapsgc", 1, Tensor(np.eye(2)), filters.raw_view(g))[0]
    assert np.allclose(out.values, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_sgc_matches_dense_oracle_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        adj = random_adjacency(rng, n)
        iu, ju = np.nonzero(np.triu(adj, 1))
        g = graphs.make_graph(n, np.stack([iu, ju], axis=1), np.eye(n))
        h = Tensor(rng.normal(size=(n, 3)))
        outs = filters.filter_bank_outputs("sgc", 3, h, filters.raw_view(g))
        for k, out in enumerate(outs, 1):
            expect = np.linalg.matrix_power(dense_sym_norm(adj), k) @ h.values
            assert np.allclose(out.values, expect, atol=1e-10)


def test_weighted_view_matches_dense_oracle():
    rng = np.random.default_rng(3)
    g = graphs.gen_sbm(5, 2, 0.7, 0.3, feat_dim=4, seed=1)
    w = rng.uniform(0.1, 0.9, size=g.n_edges)
    h = Tensor(rng.normal(size=(g.n_nodes, 3)))
    out = filters.filter_bank_outputs("sgc", 2, h, view_with_weights(g, w))[1]
    dense = dense_weighted_sym(g, w)
    assert np.allclose(out.values, dense @ dense @ h.values, atol=1e-10)


def test_all_ones_weights_equal_raw_graph():
    rng = np.random.default_rng(4)
    g = graphs.gen_sbm(6, 2, 0.6, 0.2, feat_dim=4, seed=2)
    h = Tensor(rng.normal(size=(g.n_nodes, 3)))
    raw = filters.filter_bank_outputs("sgc", 2, h, filters.raw_view(g))[1]
    ones = filters.filter_bank_outputs("sgc", 2, h, view_with_weights(g, np.ones(g.n_edges)))[1]
    assert np.allclose(raw.values, ones.values, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(5)
    g = graphs.gen_sbm(5, 2, 0.5, 0.2, feat_dim=3, seed=3)
    view = view_with_weights(g, rng.uniform(0.2, 0.8, size=g.n_edges))
    h1 = rng.normal(size=(g.n_nodes, 3))
    h2 = rng.normal(size=(g.n_nodes, 3))
    a, b = 0.7, -1.3
    for name in FILTERS:
        mixed = apply_filter(name, Tensor(a * h1 + b * h2), view, 2)
        f1 = apply_filter(name, Tensor(h1), view, 2)
        f2 = apply_filter(name, Tensor(h2), view, 2)
        assert np.allclose(mixed.values, a * f1.values + b * f2.values, atol=1e-10)


def test_spline_perfect_reconstruction_regular_graphs():
    rng = np.random.default_rng(6)
    for n, d in ((8, 3), (10, 4), (12, 5)):
        # circulant d-regular graph
        edges = []
        for i in range(n):
            for step in range(1, d // 2 + 1):
                edges.append((i, (i + step) % n))
        if d % 2 == 1:
            edges += [(i, (i + n // 2) % n) for i in range(n // 2)]
        g = graphs.make_graph(n, edges, np.eye(n))
        assert set(g.degrees()) == {d}
        h = Tensor(rng.normal(size=(n, 4)))
        view = filters.raw_view(g)
        lp, hp = filters.spline_pair(view, h)
        assert np.allclose(lp.values + hp.values, h.values, atol=1e-10)
        # on a d-regular graph the low half is exactly (I + A/d)/2
        adj = np.zeros((n, n))
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = 1.0
        assert np.allclose(lp.values, 0.5 * (h.values + adj @ h.values / d), atol=1e-12)


def test_filter_bank_consistency_and_order():
    rng = np.random.default_rng(8)
    g = graphs.gen_sbm(5, 2, 0.6, 0.2, feat_dim=3, seed=5)
    view = filters.raw_view(g)
    h = Tensor(rng.normal(size=(g.n_nodes, 3)))
    outs = filters.filter_bank_outputs("sgc", 3, h, view)
    assert len(outs) == 3
    direct = reduce(lambda x, _: filters.sym_propagate(view, x), range(3), h)
    assert np.array_equal(outs[2].values, direct.values)
    shorter = filters.filter_bank_outputs("sgc", 2, h, view)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(outs, shorter))


def test_filter_bank_computes_each_hop_once_per_family():
    """n hops tape n ``hop`` records (sgc), or n ``hop`` + ``sub`` pairs in
    order (lapsgc), each hop reading the output of the one before."""
    rng = np.random.default_rng(8)
    g = graphs.gen_sbm(5, 2, 0.6, 0.2, feat_dim=3, seed=5)
    view = filters.raw_view(g)
    h = Tensor(rng.normal(size=(g.n_nodes, 3)), requires_grad=True)
    for family, per_hop in (("sgc", ["hop"]), ("lapsgc", ["hop", "sub"])):
        for n in (1, 2, 4):
            engine.reset_tape()
            outs = filters.filter_bank_outputs(family, n, h, view)
            records = engine.current_tape().records
            assert [rec[0] for rec in records] == n * per_hop
            # a hop record's third input is the h it propagates
            assert [rec[2][2] for rec in records[::len(per_hop)]] == [h, *outs[:-1]]
    engine.reset_tape()


def test_filter_bank_zero_features():
    g = graphs.gen_sbm(4, 2, 0.6, 0.2, feat_dim=3, seed=6)
    zeros, view = Tensor(np.zeros((g.n_nodes, 3))), filters.raw_view(g)
    outs = [*filters.filter_bank_outputs("sgc", 1, zeros, view),
            *filters.filter_bank_outputs("lapsgc", 2, zeros, view)]
    for out in outs:
        assert not out.values.any()


def test_gradients_flow_through_h_and_weights():
    rng = np.random.default_rng(9)
    g = graphs.gen_sbm(4, 2, 0.7, 0.3, feat_dim=3, seed=7)
    m = g.n_edges
    h = Tensor(rng.normal(size=(g.n_nodes, 3)), requires_grad=True)
    w_und = Tensor(rng.uniform(0.2, 0.8, size=(m, 1)), requires_grad=True)
    target = Tensor(rng.normal(size=(g.n_nodes, 3)))

    def loss_fn():
        w_dir = engine.gather_rows(w_und, np.concatenate([np.arange(m), np.arange(m)]))
        view = filters.AdjacencyView(graph=g, weights=w_dir)
        out = filters.filter_bank_outputs("lapsgc", 2, h, view)[1]
        return engine.frobenius(out, target)

    assert check_grad(loss_fn, [h, w_und], seed=1) <= 1e-4


def test_view_records_its_degree_once():
    rng = np.random.default_rng(10)
    g = graphs.gen_sbm(5, 2, 0.6, 0.2, feat_dim=3, seed=8)
    engine.reset_tape()
    w = Tensor(rng.uniform(0.2, 0.8, size=(g.n_edges, 1)), requires_grad=True)
    view = gating.build_views(g, w)[0]
    for family in ("sgc", "lapsgc"):
        filters.filter_bank_outputs(family, 4, Tensor(g.features), view)
    reads = [rec for rec in engine.current_tape().records
             if rec[0] == "scatter_rows" and rec[2][0] is view.weights]
    assert len(reads) == 1


def test_edgeless_graph_gives_closed_forms():
    rng = np.random.default_rng(11)
    g = graphs.make_graph(4, np.zeros((0, 2)), np.eye(4))
    h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    target = Tensor(rng.normal(size=(4, 3)))
    gain = {"sgc": 1.0, "lapsgc": 0.0, "spline_lp": 0.5, "spline_hp": 0.5}
    for name in FILTERS:
        for k in (1, 2):
            def loss_fn():
                view = gating.build_views(g, Tensor(np.zeros((0, 1))))[0]
                return engine.frobenius(apply_filter(name, h, view, k), target)

            view = gating.build_views(g, Tensor(np.zeros((0, 1))))[0]
            out = apply_filter(name, h, view, k)
            assert np.allclose(out.values, gain[name] * h.values, atol=1e-12), (name, k)
            assert check_grad(loss_fn, [h], seed=3) <= 1e-4, (name, k)


# ---------------------------------------------------------------------------
# properties on random graphs: an isolated node, and the empty edge set

@st.composite
def _random_graphs(draw):
    """(graph, seed): random pairs over n nodes plus an isolated node n."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=20))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    g = graphs.make_graph(n + 1, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                          rng.normal(size=(n + 1, 3)))
    return g, seed


def _gate_weights(g, rng):
    """Eval-mode weights of a randomly initialized edge gate, one per edge."""
    emb = graphs.structural_embeddings(graphs.normalize(g), d_s=2)
    params = gating.init_edge_gate(g.feat_dim, 2, 4, rng)
    params.b2.values = rng.normal(size=params.b2.shape)
    logits = gating.edge_logits(params, Tensor(g.features), emb, g)
    return gating.gumbel_sigmoid_weights(logits, 0.5, None)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_random_graphs())
@example((graphs.make_graph(3, np.zeros((0, 2)), np.eye(3)), 0))
def test_views_sum_to_the_raw_graph(case):
    """W_coh h + W_disp h = A h: the two views split each edge's weight."""
    g, seed = case
    rng = np.random.default_rng(seed)
    a_coh, a_disp = gating.build_views(g, _gate_weights(g, rng))
    h = rng.normal(size=(g.n_nodes, 3))
    total = (filters.neighbor_sum(a_coh, Tensor(h)).values
             + filters.neighbor_sum(a_disp, Tensor(h)).values)
    raw = filters.neighbor_sum(filters.raw_view(g), Tensor(h)).values
    scale = filters.neighbor_sum(filters.raw_view(g), Tensor(np.abs(h))).values
    assert np.abs(total - raw).max(initial=0.0) <= 1e-12 * scale.max(initial=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_random_graphs(), st.integers(1, 3))
@example((graphs.make_graph(3, np.zeros((0, 2)), np.eye(3)), 0), 2)
def test_every_filter_is_linear_on_gate_weighted_views(case, k):
    g, seed = case
    rng = np.random.default_rng(seed)
    a_coh, a_disp = gating.build_views(g, _gate_weights(g, rng))
    h1, h2 = rng.normal(size=(2, g.n_nodes, 3))
    a, b = rng.normal(size=2)
    for view in (a_coh, a_disp):
        for name in FILTERS:
            mixed = apply_filter(name, Tensor(a * h1 + b * h2), view, k).values
            f1 = apply_filter(name, Tensor(h1), view, k).values
            f2 = apply_filter(name, Tensor(h2), view, k).values
            scale = abs(a) * np.abs(f1).max() + abs(b) * np.abs(f2).max() + 1.0
            assert np.abs(mixed - (a * f1 + b * f2)).max() <= 1e-12 * scale, name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_random_graphs(), st.sampled_from(FILTERS), st.integers(1, 3))
@example((graphs.make_graph(3, np.zeros((0, 2)), np.eye(3)), 0), "lapsgc", 2)
def test_filter_gradients_wrt_h_and_view_weights(case, name, k):
    g, seed = case
    rng = np.random.default_rng(seed)
    m = g.n_edges
    h = Tensor(rng.normal(size=(g.n_nodes, 3)), requires_grad=True)
    w = Tensor(rng.uniform(0.2, 0.8, size=(m, 1)), requires_grad=True)
    target = Tensor(rng.normal(size=(g.n_nodes, 3)))

    def loss_fn():
        view = gating.build_views(g, w)[0]
        return engine.frobenius(apply_filter(name, h, view, k), target)

    params = [h, w] if m else [h]      # no weight entries to check without edges
    assert check_grad(loss_fn, params, seed=seed % 1000) <= 1e-4
