import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamore import engine, gating, graphs
from adamore.engine import Tensor

from _oracles import check_grad


class StubRng:
    """Returns preset uniforms so Gumbel draws are exactly controlled."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def random(self, size=None):
        return np.broadcast_to(self.values, size).copy()


def small_graph(seed=0, n_per_block=4):
    g = graphs.gen_sbm(n_per_block, 2, 0.8, 0.3, feat_dim=3, seed=seed)
    emb = graphs.structural_embeddings(graphs.normalize(g), d_s=2)
    return g, emb


def test_edge_logits_zero_mlp_gives_zero():
    g, emb = small_graph()
    rng = np.random.default_rng(0)
    params = gating.init_edge_gate(g.feat_dim, emb.shape[1], hidden=8, rng=rng)
    for p in params.parameters():
        p.values = np.zeros_like(p.values)
    logits = gating.edge_logits(params, Tensor(g.features), emb, g)
    assert not logits.values.any()
    assert logits.shape == (g.n_edges, 1)


def test_edge_logits_match_dense_oracle():
    g, emb = small_graph(seed=1)
    rng = np.random.default_rng(1)
    params = gating.init_edge_gate(g.feat_dim, emb.shape[1], hidden=5, rng=rng)
    logits = gating.edge_logits(params, Tensor(g.features), emb, g)

    def mlp(z):
        h = np.maximum(z @ params.w1.values + params.b1.values, 0.0)
        return h @ params.w2.values + params.b2.values

    for e, (i, j) in enumerate(g.edges):
        zi = np.concatenate([g.features[i], emb[i], g.features[j], emb[j]])
        zj = np.concatenate([g.features[j], emb[j], g.features[i], emb[i]])
        expect = 0.5 * (mlp(zi[None, :]) + mlp(zj[None, :]))
        assert abs(logits.values[e, 0] - expect[0, 0]) < 1e-12
        # symmetric by construction: swapping endpoint order changes nothing
        swapped = 0.5 * (mlp(zj[None, :]) + mlp(zi[None, :]))
        assert expect[0, 0] == swapped[0, 0]


def _concatenation_oracle(params, x, s, edges):
    """The gate MLP on [x_i, s_i, x_j, s_j], averaged over both orderings."""
    w1, b1, w2, b2 = (p.values for p in params.parameters())
    u = np.hstack([x, s])
    i, j = edges[:, 0], edges[:, 1]

    def mlp(z):
        return np.maximum(z @ w1 + b1, 0.0) @ w2 + b2

    return 0.5 * (mlp(np.hstack([u[i], u[j]])) + mlp(np.hstack([u[j], u[i]])))


def _with_swapped_endpoints(g):
    """The same graph with every edge stored as (v, u)."""
    swapped = copy.copy(g)
    object.__setattr__(swapped, "edges", np.ascontiguousarray(g.edges[:, ::-1]))
    return swapped


@st.composite
def _gate_cases(draw):
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=25))
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    return n, pairs, dims, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_gate_cases())
@example((3, [], (2, 2, 4), 1))
def test_edge_logits_match_concatenation_oracle(case):
    """Per-node first layer vs the per-edge concatenation form, on random
    graphs with an isolated node (the last one) and the empty edge set."""
    n, pairs, (feat_dim, d_s, hidden), seed = case
    rng = np.random.default_rng(seed)
    g = graphs.make_graph(n + 1, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                          rng.normal(size=(n + 1, feat_dim)))
    emb = graphs.structural_embeddings(graphs.normalize(g), d_s=d_s)
    params = gating.init_edge_gate(feat_dim, d_s, hidden, rng)
    params.b1.values = rng.normal(size=params.b1.shape)
    params.b2.values = rng.normal(size=params.b2.shape)
    logits = gating.edge_logits(params, Tensor(g.features), emb, g)
    expect = _concatenation_oracle(params, g.features, emb, g.edges)
    assert logits.shape == expect.shape == (g.n_edges, 1)
    assert np.abs(logits.values - expect).max(initial=0.0) <= \
        1e-12 * np.abs(expect).max(initial=0.0)
    swapped = gating.edge_logits(params, Tensor(g.features), emb, _with_swapped_endpoints(g))
    assert np.array_equal(swapped.values, logits.values)


def test_edge_logits_dimension_mismatch():
    g, emb = small_graph()
    params = gating.init_edge_gate(g.feat_dim + 2, emb.shape[1], hidden=4,
                                   rng=np.random.default_rng(0))
    with pytest.raises(engine.ShapeError):
        gating.edge_logits(params, Tensor(g.features), emb, g)


def test_gumbel_sigmoid_eval_closed_forms():
    w = gating.gumbel_sigmoid_weights(Tensor([[0.0]]), tau=0.5, rng=None)
    assert w.item() == 0.5
    w = gating.gumbel_sigmoid_weights(Tensor([[10.0]]), tau=0.5, rng=None)
    assert w.item() > 0.999


def test_gumbel_sigmoid_noise_oracle():
    # uniforms chosen so g1 = 0.3 and g2 = 0.1 exactly
    u1 = np.exp(-np.exp(-0.3))
    u2 = np.exp(-np.exp(-0.1))
    rng = StubRng(np.array([[[u1]], [[u2]]]))
    w = gating.gumbel_sigmoid_weights(Tensor([[1.0]]), tau=0.5, rng=rng)
    expect = 1.0 / (1.0 + np.exp(-(1.0 + 0.3 - 0.1) / 0.5))
    assert abs(w.item() - expect) < 1e-12
    assert abs(w.item() - 0.9168) < 1e-4


def test_gumbel_sigmoid_rejects_bad_tau():
    with pytest.raises(ValueError):
        gating.gumbel_sigmoid_weights(Tensor([[0.0]]), tau=0.0,
                                      rng=np.random.default_rng(0))


def test_eval_mode_determinism():
    g, emb = small_graph(seed=2)
    params = gating.init_edge_gate(g.feat_dim, emb.shape[1], hidden=6,
                                   rng=np.random.default_rng(3))
    out = []
    for _ in range(2):
        logits = gating.edge_logits(params, Tensor(g.features), emb, g)
        out.append(gating.gumbel_sigmoid_weights(
            logits, 0.5, None).values)
    assert np.array_equal(out[0], out[1])


def test_temperature_sharpening():
    logit = Tensor([[0.8]])
    gaps = []
    for tau in (1.0, 0.5, 0.1):
        w = gating.gumbel_sigmoid_weights(logit, tau, None).item()
        gaps.append(abs(w - round(w)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_build_views_extremes():
    g, _ = small_graph(seed=3)
    m = g.n_edges
    a_coh, a_disp = gating.build_views(g, Tensor(np.ones((m, 1))))
    assert np.allclose(a_coh.weights.values, 1.0)
    assert np.allclose(a_disp.weights.values, 0.0)
    a_coh, a_disp = gating.build_views(g, Tensor(np.full((m, 1), 0.5)))
    assert np.array_equal(a_coh.weights.values, a_disp.weights.values)


def test_build_views_complementarity_exact():
    g, _ = small_graph(seed=4)
    m = g.n_edges
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.random((m, 1))
        a_coh, a_disp = gating.build_views(g, Tensor(w))
        total = a_coh.weights.values + a_disp.weights.values
        assert (total == 1.0).all()


def test_build_views_single_edge():
    g = graphs.make_graph(2, [(0, 1)], np.eye(2))
    a_coh, a_disp = gating.build_views(g, Tensor([[0.7]]))
    assert a_coh.weights.values[0, 0] == 0.7
    assert abs(a_disp.weights.values[0, 0] - 0.3) < 1e-15
    assert a_coh.weights.values[0, 0] + a_disp.weights.values[0, 0] == 1.0


def test_build_views_rejects_out_of_range():
    g = graphs.make_graph(2, [(0, 1)], np.eye(2))
    with pytest.raises(ValueError):
        gating.build_views(g, Tensor([[1.4]]))


def test_scaled_cosine_error_trivial_cases():
    rng = np.random.default_rng(12)
    target = Tensor(rng.normal(size=(5, 3)))
    # reconstruction equals the target -> error ~0 (within the epsilon guard)
    same = gating.scaled_cosine_error(Tensor(target.values.copy()), target, gamma=1.0)
    assert same.item() < 1e-6
    # every reconstructed row orthogonal to its target, gamma 1 -> error 1
    a = Tensor(np.tile([[1.0, 0.0]], (4, 1)))
    b = Tensor(np.tile([[0.0, 1.0]], (4, 1)))
    assert abs(gating.scaled_cosine_error(a, b, gamma=1.0).item() - 1.0) < 1e-12


def test_scaled_cosine_error_half_cosine_gamma_two():
    # rows at 60 degrees: cosine 0.5, gamma 2 -> per-node term 0.75
    a = Tensor(np.tile([[1.0, 0.0]], (3, 1)))
    b = Tensor(np.tile([[0.5, np.sqrt(3.0) / 2.0]], (3, 1)))
    err = gating.scaled_cosine_error(a, b, gamma=2.0)
    assert abs(err.item() - 0.75) < 1e-7


def _plain(h):
    """An output h handed over as its factors (h, I, 0)."""
    return h, Tensor(np.eye(h.shape[1])), Tensor(np.zeros((1, h.shape[1])))


def test_svg_loss_perfect_low_pass_term_vanishes():
    """Isolated node: both single-hop filters act trivially, loss = 0 + 1."""
    g = graphs.make_graph(1, np.zeros((0, 2)), np.ones((1, 1)))
    pair = gating.build_views(g, Tensor(np.zeros((0, 1))))
    h = _plain(Tensor(np.array([[1.0, 2.0]])))
    # the low-pass hop returns h itself (term ~0), its complement zeros (term 1)
    loss = gating.svg_loss(pair, h, h, gamma_svg=1.0)
    assert abs(loss.item() - 1.0) < 1e-6


def test_svg_loss_trains_only_the_gate():
    g, emb = small_graph(seed=6)
    rng = np.random.default_rng(7)
    params = gating.init_edge_gate(g.feat_dim, emb.shape[1], hidden=6, rng=rng)
    fake_backbone_param = Tensor(rng.normal(size=(g.n_nodes, 4)), requires_grad=True)

    engine.reset_tape()
    logits = gating.edge_logits(params, Tensor(g.features), emb, g)
    w = gating.gumbel_sigmoid_weights(logits, 0.5, None)
    pair = gating.build_views(g, w)
    h_b = _plain(engine.relu(fake_backbone_param))
    loss = gating.svg_loss(pair, h_b, h_b, gamma_svg=1.0)
    engine.backward(loss)
    assert fake_backbone_param.grad is None
    assert any(p.grad is not None and np.abs(p.grad).max() > 0
               for p in params.parameters())


def test_svg_loss_gradient_matches_finite_differences():
    g, emb = small_graph(seed=8)
    rng = np.random.default_rng(9)
    params = gating.init_edge_gate(g.feat_dim, emb.shape[1], hidden=4, rng=rng)
    h_coh = _plain(Tensor(rng.normal(size=(g.n_nodes, 3))))
    h_disp = _plain(Tensor(rng.normal(size=(g.n_nodes, 3))))
    g1, g2 = engine.gumbel_pair(np.random.default_rng(11), (g.n_edges, 1))
    noise = Tensor(g1 - g2)

    def loss_fn():
        logits = gating.edge_logits(params, Tensor(g.features), emb, g)
        w = engine.sigmoid(engine.scale(engine.add(logits, noise), 2.0))
        pair = gating.build_views(g, w)
        return gating.svg_loss(pair, h_coh, h_disp, gamma_svg=2.0)

    assert check_grad(loss_fn, params.parameters(), seed=2, n_entries=4) <= 1e-4


def _factored_targets(rng, n, feat_dim, d_e):
    """Two (M, W, b) targets, one per channel."""
    return [tuple(Tensor(rng.normal(size=shape))
                  for shape in ((n, feat_dim), (feat_dim, d_e), (1, d_e)))
            for _ in range(2)]


# F + 1 < d_e, F + 1 = d_e and F + 1 > d_e (a rank-deficient Gram)
@pytest.mark.parametrize("feat_dim,d_e", [(3, 6), (4, 5), (6, 3)])
def test_svg_loss_on_factors_equals_projected_targets(feat_dim, d_e):
    g, _ = small_graph(seed=12)
    rng = np.random.default_rng(13)
    pair = gating.build_views(g, Tensor(rng.uniform(0.1, 0.9, size=(g.n_edges, 1))))
    coh, disp = _factored_targets(rng, g.n_nodes, feat_dim, d_e)
    factored = gating.svg_loss(pair, coh, disp, gamma_svg=2.0).item()
    projected = [_plain(engine.add_row(engine.matmul(mix, w), b)) for mix, w, b in (coh, disp)]
    plain = gating.svg_loss(pair, *projected, gamma_svg=2.0).item()
    assert abs(factored - plain) <= 1e-12 * abs(plain)


@pytest.mark.parametrize("feat_dim,d_e", [(3, 6), (4, 5), (6, 3)])
def test_svg_loss_on_factors_gradient_matches_finite_differences(feat_dim, d_e):
    g, emb = small_graph(seed=14)
    rng = np.random.default_rng(15)
    params = gating.init_edge_gate(g.feat_dim, emb.shape[1], hidden=4, rng=rng)
    coh, disp = _factored_targets(rng, g.n_nodes, feat_dim, d_e)

    def loss_fn():
        logits = gating.edge_logits(params, Tensor(g.features), emb, g)
        pair = gating.build_views(g, engine.sigmoid(logits))
        return gating.svg_loss(pair, coh, disp, gamma_svg=2.0)

    assert check_grad(loss_fn, params.parameters(), seed=3, n_entries=4) <= 1e-4


def test_export_weights_tsv(tmp_path):
    g, _ = small_graph(seed=10)
    w = np.linspace(0.1, 0.9, g.n_edges)
    path = tmp_path / "weights.tsv"
    gating.export_weights_tsv(g, w, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == g.n_edges
    u, v, wv = lines[0].split()
    assert int(u) == g.edges[0, 0] and int(v) == g.edges[0, 1]
    assert abs(float(wv) - w[0]) < 1e-12
