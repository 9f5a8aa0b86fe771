import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamore import engine, experts, filters, gating, graphs
from adamore.engine import Tensor

from _oracles import check_grad


def setup_graph(seed=0, n_per_block=4, feat_dim=3, d_s=2):
    g = graphs.gen_sbm(n_per_block, 2, 0.8, 0.3, feat_dim=feat_dim, seed=seed)
    emb = graphs.structural_embeddings(graphs.normalize(g), d_s=d_s)
    return g, emb


def dense_view_matrix(g, w_und, self_loop=True):
    n = g.n_nodes
    a = np.zeros((n, n))
    for (u, v), we in zip(g.edges, np.asarray(w_und).ravel()):
        a[u, v] = a[v, u] = we
    if self_loop:
        a += np.eye(n)
    return a


def residual_expert(kind, feat_dim, d_e, rng):
    """(layer, params) of one residual expert of ``kind``."""
    layer, init = experts.RESIDUAL_KINDS[kind]
    return layer, init(feat_dim, d_e, rng)


def sgc_bank(g, emb, rng, n_exp=4, top_k=2, d_e=5):
    return experts.init_expert_bank("sgc", n_exp, top_k, g.feat_dim, emb.shape[1], d_e, rng)


# ---------------------------------------------------------------------------
# backbone

def test_backbone_dense_mixture_when_k_equals_n_exp():
    rng = np.random.default_rng(0)
    g, emb = setup_graph(seed=1, n_per_block=5)
    bank = sgc_bank(g, emb, rng, n_exp=3, top_k=3)
    view = filters.raw_view(g)
    x = Tensor(g.features)
    h_b, stats, _ = experts.backbone_forward(bank, x, emb, view)

    # brute-force dense oracle
    gate_in = np.hstack([g.features, emb])
    logits = gate_in @ bank.gate_w.values + bank.gate_b.values
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    at = dense_view_matrix(g, np.ones(g.n_edges))
    d = at.sum(axis=1)
    at = at / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    expect = np.zeros((g.n_nodes, 5))
    cur = g.features
    for k in range(3):
        cur = at @ cur
        proj = cur @ bank.proj_w.values + bank.proj_b.values
        expect += probs[:, k:k + 1] * proj
    assert np.allclose(h_b.values, expect, atol=1e-10)
    assert np.allclose(stats.f, 1.0)


def test_backbone_topk_closed_form_weights():
    rng = np.random.default_rng(1)
    g, emb = setup_graph(seed=2)
    bank = sgc_bank(g, emb, rng, n_exp=4, top_k=2)
    bank.gate_w.values = np.zeros_like(bank.gate_w.values)
    bank.gate_b.values = np.array([[2.0, 1.0, 0.0, -1.0]])
    view = filters.raw_view(g)
    h_b, stats, _ = experts.backbone_forward(bank, Tensor(g.features), emb, view)
    assert np.allclose(stats.f, [1.0, 1.0, 0.0, 0.0])
    assert abs(stats.f.sum() - bank.top_k) < 1e-12
    w0 = np.exp(2.0) / (np.exp(2.0) + np.exp(1.0))
    outs = filters.filter_bank_outputs(bank.family, bank.n_exp, Tensor(g.features), view)
    proj = [o.values @ bank.proj_w.values + bank.proj_b.values for o in outs]
    expect = w0 * proj[0] + (1.0 - w0) * proj[1]
    assert np.allclose(h_b.values, expect, atol=1e-10)
    assert np.allclose([w0, 1 - w0], [0.7311, 0.2689], atol=1e-4)


def test_backbone_single_expert_is_projection():
    rng = np.random.default_rng(2)
    g, emb = setup_graph(seed=3)
    bank = experts.init_expert_bank("sgc", 1, 1, g.feat_dim, emb.shape[1], 4, rng)
    view = filters.raw_view(g)
    h_b, _, _ = experts.backbone_forward(bank, Tensor(g.features), emb, view)
    out = filters.filter_bank_outputs("sgc", 1, Tensor(g.features), view)[0]
    expect = out.values @ bank.proj_w.values + bank.proj_b.values
    assert np.allclose(h_b.values, expect, atol=1e-12)


def test_backbone_selected_weights_sum_to_one():
    rng = np.random.default_rng(3)
    g, emb = setup_graph(seed=4, n_per_block=6)
    bank = sgc_bank(g, emb, rng, n_exp=4, top_k=2)
    gate_in = np.hstack([g.features, emb])
    logits = gate_in @ bank.gate_w.values + bank.gate_b.values
    order = np.argsort(-logits, axis=1, kind="stable")[:, :2]
    sel = np.take_along_axis(logits, order, axis=1)
    e = np.exp(sel - sel.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-10)
    # stable argsort breaks ties toward the lowest expert index
    tied = np.argsort(-np.array([[1.0, 1.0, 0.5, 1.0]]), axis=1, kind="stable")
    assert list(tied[0][:3]) == [0, 1, 3]


def test_backbone_rejects_k_above_n_exp():
    rng = np.random.default_rng(4)
    g, emb = setup_graph()
    with pytest.raises(ValueError, match="top_k=2 out of range for 1 experts"):
        experts.init_expert_bank("sgc", 1, 2, g.feat_dim, emb.shape[1], 4, rng)


def test_backbone_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    g, emb = setup_graph(seed=5)
    bank = sgc_bank(g, emb, rng, n_exp=3, top_k=2, d_e=4)
    target = Tensor(rng.normal(size=(g.n_nodes, 4)))
    w_und = Tensor(rng.uniform(0.3, 0.7, size=(g.n_edges, 1)), requires_grad=True)

    def loss_fn():
        a_coh, _ = gating.build_views(g, w_und)
        h_b, stats, _ = experts.backbone_forward(bank, Tensor(g.features), emb, a_coh)
        return engine.add(engine.frobenius(h_b, target),
                          experts.load_balance_loss(stats))

    params = bank.parameters() + [w_und]
    assert check_grad(loss_fn, params, seed=5, n_entries=4) <= 1e-4


# ---------------------------------------------------------------------------
# load balance loss

def test_load_balance_closed_forms():
    uniform = experts.RoutingStats(4, 1, np.full(4, 0.25),
                                   Tensor(np.full((1, 4), 0.25)))
    assert abs(experts.load_balance_loss(uniform).item() - 1.0) < 1e-12
    collapse = experts.RoutingStats(4, 1, np.array([1.0, 0, 0, 0]),
                                    Tensor(np.array([[1.0, 0, 0, 0]])))
    assert abs(experts.load_balance_loss(collapse).item() - 4.0) < 1e-12


def test_load_balance_at_least_one_for_k1():
    """Cauchy-Schwarz: N * sum(p_k^2) >= 1 for any routing profile, equality
    iff uniform. Random hard routings realize f = P = the expert histogram."""
    rng = np.random.default_rng(6)
    for _ in range(200):
        n_exp = int(rng.integers(2, 6))
        assignment = rng.integers(0, n_exp, size=40)
        profile = np.bincount(assignment, minlength=n_exp) / 40.0
        stats = experts.RoutingStats(n_exp, 1, profile, Tensor(profile[None, :]))
        assert experts.load_balance_loss(stats).item() >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# residual experts

def test_residual_zero_gammas_disable_pool():
    rng = np.random.default_rng(7)
    g, _ = setup_graph(seed=6)
    pool = experts.init_residual_pool(["gcn-layer", "gin0"], g.feat_dim, 4, rng)
    for gamma in pool.gammas:
        gamma.values = np.zeros((1, 1))
    h_b = Tensor(rng.normal(size=(g.n_nodes, 4)))
    h_enh, outs = experts.residual_forward(pool, h_b, Tensor(g.features), filters.raw_view(g))
    assert len(outs) == 2
    assert np.array_equal(h_enh.values, h_b.values)


def test_residual_single_expert_gamma_one():
    rng = np.random.default_rng(8)
    g, _ = setup_graph(seed=7)
    pool = experts.init_residual_pool(["sage-mean"], g.feat_dim, 4, rng)
    pool.gammas[0].values = np.ones((1, 1))
    view = filters.raw_view(g)
    h_r, outs = experts.residual_forward(pool, Tensor(np.zeros((g.n_nodes, 4))),
                                         Tensor(g.features), view)
    assert np.allclose(h_r.values, outs[0].values, atol=1e-15)


def test_residual_two_identical_experts_average():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    g, _ = setup_graph(seed=8)
    _, p1 = residual_expert("gcn-layer", g.feat_dim, 4, rng_a)
    _, p2 = residual_expert("gcn-layer", g.feat_dim, 4, rng_b)
    pool = experts.ResidualPool(kinds=("gcn-layer", "gcn-layer"), params=[p1, p2],
                                gammas=[Tensor([[0.5]], requires_grad=True),
                                        Tensor([[0.5]], requires_grad=True)])
    h_r, outs = experts.residual_forward(pool, Tensor(np.zeros((g.n_nodes, 4))),
                                         Tensor(g.features), filters.raw_view(g))
    assert np.allclose(h_r.values, outs[0].values, atol=1e-12)


def test_residual_empty_pool():
    g, _ = setup_graph(seed=9)
    pool = experts.ResidualPool(kinds=(), params=[], gammas=[])
    h_b = Tensor(np.ones((g.n_nodes, 6)), requires_grad=True)
    h_enh, outs = experts.residual_forward(pool, h_b, Tensor(g.features), filters.raw_view(g))
    assert h_enh is h_b and outs == []


def test_residual_unknown_kind_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="'mystery'"):
        experts.init_residual_pool(["gcn-layer", "mystery"], 3, 4, rng)
    # refused before any parameter was drawn
    assert rng.random() == np.random.default_rng(0).random()
    bad = experts.ResidualPool(kinds=("mystery",), params=[{}],
                               gammas=[Tensor([[0.1]], requires_grad=True)])
    with pytest.raises(ValueError, match="'mystery'"):
        experts.residual_forward(bad, Tensor(np.ones((2, 4))), Tensor(np.ones((2, 3))),
                                 filters.raw_view(graphs.make_graph(2, [(0, 1)], np.eye(3)[:2])))


@pytest.mark.parametrize("feat_dim,d_e", [(5, 3), (4, 1)])
def test_every_kind_draws_its_parameter_table_in_order(feat_dim, d_e):
    """Each kind's parameters, name by name and bit for bit, are the glorot /
    zeros_param draws below in this order from one generator; the 0.1
    gammas draw nothing, and at d_e = 1 GAT's attention vectors are drawn."""
    f, d = feat_dim, d_e
    rng = np.random.default_rng(21)
    glorot, zeros = (lambda rows, cols: engine.glorot(rng, rows, cols)), engine.zeros_param
    expect = {
        "gcn-layer": {"w": glorot(f, d), "b": zeros((1, d))},
        "sage-mean": {"w_self": glorot(f, d), "w_nb": glorot(f, d), "b": zeros((1, d))},
        "gin0": {"w1": glorot(f, d), "b1": zeros((1, d)), "w2": glorot(d, d),
                 "b2": zeros((1, d))},
        "gat-1head": {"w": glorot(f, d), "a_src": glorot(d, 1), "a_dst": glorot(d, 1)},
    }
    shapes = {"gcn-layer": [(f, d), (1, d)], "sage-mean": [(f, d), (f, d), (1, d)],
              "gin0": [(f, d), (1, d), (d, d), (1, d)],
              "gat-1head": [(f, d), (d, 1), (d, 1)]}
    pool_rng = np.random.default_rng(21)
    pool = experts.init_residual_pool(tuple(experts.RESIDUAL_KINDS), f, d, pool_rng)
    assert pool.kinds == tuple(expect)
    for kind, table in zip(pool.kinds, pool.params):
        assert list(table) == list(expect[kind])
        assert [p.shape for p in table.values()] == shapes[kind]
        for name, p in table.items():
            assert p.requires_grad and np.array_equal(p.values, expect[kind][name].values)
    assert [gamma.values.tolist() for gamma in pool.gammas] == [[[0.1]]] * 4
    assert pool_rng.random() == rng.random()


def test_gcn_and_sage_match_dense_oracles():
    rng = np.random.default_rng(10)
    g, _ = setup_graph(seed=10)
    w_und = rng.uniform(0.2, 0.9, size=g.n_edges)
    a_coh, _ = gating.build_views(g, Tensor(w_und.reshape(-1, 1)))
    x = Tensor(g.features)

    gcn, p = residual_expert("gcn-layer", g.feat_dim, 4, rng)
    out = gcn(p, x, a_coh)
    aw = dense_view_matrix(g, w_und)
    d = aw.sum(axis=1)
    at = aw / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    expect = np.maximum(at @ g.features @ p["w"].values + p["b"].values, 0.0)
    assert np.allclose(out.values, expect, atol=1e-12)

    sage, p = residual_expert("sage-mean", g.feat_dim, 4, rng)
    out = sage(p, x, a_coh)
    a_edge = dense_view_matrix(g, w_und, self_loop=False)
    mean_nb = (a_edge @ g.features) / (a_edge.sum(axis=1, keepdims=True) + engine.EPS)
    expect = np.maximum(
        g.features @ p["w_self"].values + mean_nb @ p["w_nb"].values + p["b"].values, 0.0)
    assert np.allclose(out.values, expect, atol=1e-12)


def test_gin_matches_dense_oracle():
    rng = np.random.default_rng(11)
    g, _ = setup_graph(seed=11)
    w_und = rng.uniform(0.2, 0.9, size=g.n_edges)
    a_coh, _ = gating.build_views(g, Tensor(w_und.reshape(-1, 1)))
    gin, p = residual_expert("gin0", g.feat_dim, 4, rng)
    out = gin(p, Tensor(g.features), a_coh)
    a_edge = dense_view_matrix(g, w_und, self_loop=False)
    agg = g.features + a_edge @ g.features
    h = np.maximum(agg @ p["w1"].values + p["b1"].values, 0.0)
    expect = np.maximum(h @ p["w2"].values + p["b2"].values, 0.0)
    assert np.allclose(out.values, expect, atol=1e-12)


@pytest.mark.parametrize("feat_dim,d_e", [(3, 4), (4, 4), (6, 2)])
def test_gat_matches_dense_oracle(feat_dim, d_e):
    rng = np.random.default_rng(12)
    g, _ = setup_graph(seed=12, feat_dim=feat_dim)
    w_und = rng.uniform(0.2, 0.9, size=g.n_edges)
    a_coh, _ = gating.build_views(g, Tensor(w_und.reshape(-1, 1)))
    gat, p = residual_expert("gat-1head", g.feat_dim, d_e, rng)
    out = gat(p, Tensor(g.features), a_coh)

    xe = g.features @ p["w"].values
    s_src = (xe @ p["a_src"].values).ravel()
    s_dst = (xe @ p["a_dst"].values).ravel()
    aw = dense_view_matrix(g, w_und, self_loop=False) + np.eye(g.n_nodes)
    expect = np.zeros_like(xe)
    for i in range(g.n_nodes):
        nbrs = np.nonzero(aw[i])[0]
        scores = s_src[nbrs] + s_dst[i]
        scores = np.where(scores > 0, scores, 0.2 * scores)
        z = aw[i, nbrs] * np.exp(scores - scores.max())
        alpha = z / z.sum()  # epsilon guard perturbs far below the tolerance
        expect[i] = alpha @ xe[nbrs]
    assert np.allclose(out.values, expect, atol=1e-6)


@pytest.mark.parametrize("feat_dim,d_e", [(3, 3), (2, 5), (6, 2)])
def test_residual_experts_gradients_match_finite_differences(feat_dim, d_e):
    rng = np.random.default_rng(13)
    g, _ = setup_graph(seed=13, feat_dim=feat_dim)
    target = Tensor(rng.normal(size=(g.n_nodes, d_e)))
    for kind in experts.RESIDUAL_KINDS:
        layer, params = residual_expert(kind, g.feat_dim, d_e, rng)
        for p in params.values():
            # keep pre-activations away from exact relu kinks under FD
            p.values = p.values + rng.uniform(0.05, 0.15, size=p.values.shape)
        w_und = Tensor(rng.uniform(0.3, 0.8, size=(g.n_edges, 1)), requires_grad=True)

        def loss_fn():
            a_coh, _ = gating.build_views(g, w_und)
            out = layer(params, Tensor(g.features), a_coh)
            return engine.frobenius(out, target)

        err = check_grad(loss_fn, [*params.values(), w_und], seed=13, n_entries=3)
        assert err <= 1e-4, f"{kind}: {err}"


# ---------------------------------------------------------------------------
# CKA and diversity

# (F, d_e) of factored outputs: the F x F basis, the tie, and F > d_e, where
# the projection is multiplied in first
FACTOR_SHAPES = [(3, 6), (4, 4), (7, 3)]


def factored(rng, n, f, d_e, w=None):
    """A factored output (Y, W) and its materialized Y W + b, b random."""
    y = Tensor(rng.normal(size=(n, f)), requires_grad=True)
    if w is None:
        w = Tensor(rng.normal(size=(f, d_e)), requires_grad=True)
    b = rng.normal(size=(1, w.shape[1]))
    return (y, w), Tensor(y.values @ w.values + b)


def test_cka_self_similarity_is_one():
    rng = np.random.default_rng(14)
    e = Tensor(rng.normal(size=(10, 4)))
    assert abs(experts.cka(e, e).item() - 1.0) < 1e-9
    for f, d_e in FACTOR_SHAPES:
        fac, _ = factored(rng, 10, f, d_e)
        assert abs(experts.diversity_loss([fac, fac]).item() - 1.0) < 1e-9


def test_cka_invariances():
    rng = np.random.default_rng(15)
    e = Tensor(rng.normal(size=(12, 5)))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rotated = Tensor(3.7 * e.values @ q)
    assert abs(experts.cka(e, rotated).item() - 1.0) < 1e-6


def test_cka_hand_zero_pair():
    e_i = Tensor(np.array([[1.0], [-1.0], [0.0]]))
    e_j = Tensor(np.array([[0.0], [0.0], [1.0]]))
    assert experts.cka(e_i, e_j).item() <= 1e-9


def test_cka_symmetry_and_range():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = Tensor(rng.normal(size=(8, 3)))
        b = Tensor(rng.normal(size=(8, 5)))
        ab = experts.cka(a, b).item()
        ba = experts.cka(b, a).item()
        assert abs(ab - ba) < 1e-12
        assert -1e-12 <= ab <= 1.0 + 1e-9


def test_cka_matches_kernel_space_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.normal(size=(9, 4))
        b = rng.normal(size=(9, 6))
        got = experts.cka(Tensor(a), Tensor(b)).item()
        # dense kernel-space oracle: K^c = H K H, HSIC = tr(K_i^c K_j^c)
        n = a.shape[0]
        h = np.eye(n) - np.full((n, n), 1.0 / n)
        ka = h @ (a @ a.T) @ h
        kb = h @ (b @ b.T) @ h
        hsic_ab = np.trace(ka @ kb)
        hsic_aa = np.trace(ka @ ka)
        hsic_bb = np.trace(kb @ kb)
        expect = hsic_ab / np.sqrt(hsic_aa * hsic_bb + engine.EPS)
        assert abs(got - expect) < 1e-9
    # a factored pair's diversity equals the CKA of the materialized pair
    for f, d_e in FACTOR_SHAPES:
        fac_a, mat_a = factored(rng, 9, f, d_e)
        fac_b, mat_b = factored(rng, 9, f, d_e)
        plain = Tensor(rng.normal(size=(9, 5)))
        for x, y, expect in ((fac_a, fac_b, experts.cka(mat_a, mat_b)),
                             (fac_a, plain, experts.cka(mat_a, plain)),
                             (plain, fac_b, experts.cka(plain, mat_b))):
            assert abs(experts.diversity_loss([x, y]).item() - expect.item()) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 12), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def factored_matches_materialized(n, f_a, f_b, d_e, seed):
        rng = np.random.default_rng(seed)
        fac_a, mat_a = factored(rng, n, f_a, d_e)
        fac_b, mat_b = factored(rng, n, f_b, d_e)
        expect = experts.cka(mat_a, mat_b).item()
        assert abs(experts.diversity_loss([fac_a, fac_b]).item() - expect) < 1e-12
        assert abs(experts.diversity_loss([fac_a, mat_b]).item() - expect) < 1e-12

    factored_matches_materialized()


def test_cka_constant_input_returns_zero():
    e = Tensor(np.ones((5, 3)))
    other = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    assert experts.cka(e, other).item() == 0.0
    w = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    assert experts.diversity_loss([(e, w), other]).item() == 0.0


def test_cka_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        experts.cka(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))))
    with pytest.raises(engine.ShapeError):
        experts.cka(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))


def test_diversity_loss_values():
    rng = np.random.default_rng(18)
    e = Tensor(rng.normal(size=(6, 3)))
    twin = Tensor(e.values.copy())
    assert abs(experts.diversity_loss([e, twin]).item() - 1.0) < 1e-9
    zero_a = Tensor(np.array([[1.0], [-1.0], [0.0]]))
    zero_b = Tensor(np.array([[0.0], [0.0], [1.0]]))
    assert experts.diversity_loss([zero_a, zero_b]).item() <= 1e-9
    # pairwise CKAs {1, 0, 0} -> mean 1/3
    third = experts.diversity_loss([zero_a, Tensor(zero_a.values.copy()), zero_b]).item()
    assert abs(third - 1.0 / 3.0) < 1e-9

    # the "both" mode: one bank's factored outputs sharing W, residual
    # outputs, and a constant filter output below the eps guard
    for f, d_e in FACTOR_SHAPES:
        fac_1, mat_1 = factored(rng, 8, f, d_e)
        fac_2, mat_2 = factored(rng, 8, f, d_e, w=fac_1[1])
        flat_y = Tensor(np.tile(rng.normal(size=(1, f)), (8, 1)))
        flat = (flat_y, fac_1[1])
        residual = [Tensor(rng.normal(size=(8, d_e))) for _ in range(2)]
        mats = [mat_1, mat_2, Tensor(flat_y.values @ fac_1[1].values)] + residual
        pairs = [experts.cka(mats[i], mats[j]).item()
                 for i in range(len(mats)) for j in range(i + 1, len(mats))]
        got = experts.diversity_loss([fac_1, fac_2, flat] + residual).item()
        assert abs(got - np.mean(pairs)) < 1e-12


def test_diversity_loss_warns_below_two():
    with pytest.warns(UserWarning):
        out = experts.diversity_loss([Tensor(np.ones((3, 2)))])
    assert out.item() == 0.0


def test_diversity_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def loss_fn():
        return experts.diversity_loss([a, b])

    assert check_grad(loss_fn, [a, b], seed=19, n_entries=5) <= 1e-4

    # factored outputs: gradients reach both Y and the shared W
    for f, d_e in FACTOR_SHAPES:
        fac_1, _ = factored(rng, 6, f, d_e)
        fac_2, _ = factored(rng, 6, f, d_e, w=fac_1[1])
        plain = Tensor(rng.normal(size=(6, d_e)), requires_grad=True)
        params = [fac_1[0], fac_2[0], fac_1[1], plain]
        err = check_grad(lambda: experts.diversity_loss([fac_1, fac_2, plain]), params,
                         seed=19, n_entries=5)
        assert err <= 1e-4, (f, d_e, err)
