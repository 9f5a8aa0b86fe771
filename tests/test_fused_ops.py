"""Each fused model op against the op chain it replaces, written out here:
equal output and gradient bytes (so also equal signs of zero), and a
non-finite result named after the fused op."""

from functools import reduce

import numpy as np
import pytest

from adamore import engine, experts, filters, fusion, graphs
from adamore.engine import Tensor


def _slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    """Columns j0:j1 of ``a`` as their own record, as the engine once had."""
    def back(g):
        buf = np.zeros_like(a.values)
        buf[:, j0:j1] = g
        return (buf,)

    return engine._record("slice_cols", Tensor(a.values[:, j0:j1].copy()), (a,), back)


def _scale_by(a: Tensor, s: Tensor) -> Tensor:
    """``a`` times a 1x1 tensor as its own record, as the engine once had."""
    av, sv = a.values, s.values[0, 0]
    need_a, need_s = a.requires_grad, s.requires_grad
    return engine._record("scale_by", Tensor(av * sv), (a, s),
                          lambda g: (g * sv if need_a else None,
                                     np.array([[np.sum(g * av)]]) if need_s else None))


def _chain_hop(view: filters.AdjacencyView, h: Tensor) -> Tensor:
    self_term = engine.mul_col(h, view.inv_deg)
    agg = engine.edge_sum(engine.mul_col(h, view.inv_sqrt_deg), view.weights,
                          *view.graph.pairs, view.graph.n_nodes)
    return engine.add(engine.mul_col(agg, view.inv_sqrt_deg), self_term)


def _run(build, leaves: list[Tensor]) -> list:
    """Bytes of the output and of every leaf's gradient under the linear
    loss <out, C>. Row 0 of C is negative, so a zero there gives -0.0."""
    engine.reset_tape()
    engine.zero_grads(leaves)
    out = build()
    c = np.random.default_rng(0).normal(size=out.shape)
    c[0] = -np.abs(c[0])
    engine.backward(engine.frobenius(out, Tensor(c)))
    engine.reset_tape()
    return [None if x is None else (x.shape, x.tobytes())
            for x in (out.values, *(t.grad for t in leaves))]


def _assert_same(fused, chain, leaves: list[Tensor]) -> None:
    got, want = _run(fused, leaves), _run(chain, leaves)
    assert got == want
    assert [g is not None for g in got[1:]] == [t.requires_grad for t in leaves]


def _leaf(rng, shape, need=True, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=need)


@pytest.mark.parametrize("widths", [(6, 3), (3, 6)], ids=["hidden_lt_F", "hidden_gt_F"])
@pytest.mark.parametrize("needs", [(True, True, True), (False, True, True),
                                   (True, False, False)], ids=["all", "a_frozen", "wb_frozen"])
def test_linear_equals_matmul_then_add_row(widths, needs):
    rng = np.random.default_rng(1)
    f, hidden = widths
    a, w, b = (_leaf(rng, shape, need) for shape, need in
               zip(((7, f), (f, hidden), (1, hidden)), needs))
    _assert_same(lambda: engine.linear(a, w, b),
                 lambda: engine.add_row(engine.matmul(a, w), b), [a, w, b])


@pytest.mark.parametrize("needs", [(True, True), (False, True), (True, False)],
                         ids=["all", "h_frozen", "w_frozen"])
def test_four_hops_on_one_view_equal_the_five_record_chain(monkeypatch, needs):
    """sgc and lapsgc, four hops each, on one view whose weights need a
    gradient: every hop adds into the same degree terms and weights."""
    g = graphs.gen_sbm(8, 3, 0.5, 0.2, feat_dim=5, seed=2)
    rng = np.random.default_rng(2)
    h = _leaf(rng, (g.n_nodes, 5), needs[0])
    w = _leaf(rng, (2 * g.n_edges, 1), needs[1], low=0.0)

    def bank():
        view = filters.AdjacencyView(graph=g, weights=w)
        outs = [filters.filter_bank_outputs(family, 4, h, view) for family in ("sgc", "lapsgc")]
        return reduce(engine.concat_cols, outs[0] + outs[1])

    fused = _run(bank, [h, w])
    monkeypatch.setattr(filters, "sym_propagate", _chain_hop)
    assert fused == _run(bank, [h, w])
    assert [x is not None for x in fused[1:]] == list(needs)


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "one_output_twice"])
@pytest.mark.parametrize("n_out", [1, 3])
def test_mixture_equals_sliced_weight_products_summed(n_out, repeat):
    rng = np.random.default_rng(3)
    outs = [_leaf(rng, (6, 4)) for _ in range(n_out)]
    if repeat:
        outs.append(outs[0])         # a repeated tensor gets both gradient terms
    weights = _leaf(rng, (6, len(outs)))
    weights.values[0] = 0.0          # so the outputs' gradient rows 0 are -0.0
    # outs[0] also enters after the mixture, so its gradient sums three or
    # more terms, whose order shows in the bits
    _assert_same(lambda: engine.add(engine.mixture(outs, weights), outs[0]),
                 lambda: engine.add(reduce(engine.add, (
                     engine.mul_col(o, _slice_cols(weights, k, k + 1))
                     for k, o in enumerate(outs))), outs[0]),
                 [*outs[:n_out], weights])


@pytest.mark.parametrize("kinds", [("gcn-layer",), tuple(experts.RESIDUAL_KINDS)],
                         ids=["one_kind", "four_kinds"])
def test_residual_forward_equals_scaled_sum_added_to_the_backbone(kinds):
    g = graphs.gen_sbm(8, 3, 0.5, 0.2, feat_dim=5, seed=4)
    rng = np.random.default_rng(4)
    pool = experts.init_residual_pool(kinds, g.feat_dim, 3, rng)
    h_b, x = _leaf(rng, (g.n_nodes, 3)), _leaf(rng, (g.n_nodes, g.feat_dim))
    w = _leaf(rng, (2 * g.n_edges, 1), low=0.0)
    params = [p for table in pool.params for p in table.values()] + pool.gammas

    def fused():
        view = filters.AdjacencyView(graph=g, weights=w)
        return experts.residual_forward(pool, h_b, x, view)[0]

    def chain():
        view = filters.AdjacencyView(graph=g, weights=w)
        outs = experts.residual_outputs(pool, x, view)
        return engine.add(h_b, reduce(engine.add, map(_scale_by, outs, pool.gammas)))

    _assert_same(fused, chain, [h_b, x, w, *params])


def test_fuse_equals_concatenated_column_products():
    rng = np.random.default_rng(5)
    h_coh, h_disp = _leaf(rng, (6, 3)), _leaf(rng, (6, 3))
    alpha = np.array([0.0, 1.0, 0.25, 0.5, 0.9, 0.1])
    a = Tensor(alpha[:, None])
    _assert_same(lambda: fusion.fuse(h_coh, h_disp, alpha),
                 lambda: engine.concat_cols(engine.mul_col(h_coh, a),
                                            engine.mul_col(h_disp, Tensor(1.0 - a.values))),
                 [h_coh, h_disp])


def _segment_sum(values: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Rows of ``values`` summed into ``index``, each row in ascending entry order."""
    out = np.zeros((n_rows, 1))
    for e, i in enumerate(index):
        out[i] += values[e]
    return out


def _attention_chain(s_src, s_dst, w, src, dst, g):
    """Output and (s_src, s_dst, w) gradients, for the output gradient g, of the
    GAT chain the engine once recorded op by op: gathers, add, leaky ReLU,
    shift by the largest score, exp, times the weights padded with a 1 per
    self-loop, segment sum + EPS, gather and times its reciprocal."""
    n, n_pairs, m = s_src.shape[0], len(src), w.shape[0]
    pre = s_src[src] + s_dst[dst]
    scores = np.where(pre > 0.0, pre, 0.2 * pre)
    e = np.exp(scores + -float(scores.max()))
    w_all = (_segment_sum(w, np.arange(m), n_pairs)       # scattered to 2m + n rows
             + np.repeat([[0.0], [1.0]], (m, n_pairs - m), axis=0))
    z = e * w_all
    gathered = (_segment_sum(z, dst, n) + engine.EPS)[dst]
    inv = np.power(gathered, -1.0)
    g_z = g * inv + _segment_sum(g * z * -1.0 * np.power(gathered, -2.0), dst, n)[dst]
    g_pre = g_z * w_all * e * np.where(pre > 0.0, 1.0, 0.2)
    return z * inv, _segment_sum(g_pre, src, n), _segment_sum(g_pre, dst, n), (g_z * e)[:m]


@pytest.mark.parametrize("needs", [(True, True, True), (False, True, True), (True, False, True),
                                   (True, True, False)],
                         ids=["all", "src_frozen", "dst_frozen", "weights_frozen"])
def test_attention_equals_the_numpy_chain_bitwise(needs):
    """Node 5 has no edge, so only its self-loop reaches it; weights hold 0,
    -0.0 and 1, so a pair can be dropped and a zero's sign must not show."""
    g = graphs.make_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)],
                          np.zeros((6, 1)))
    src, dst = g.looped_pairs
    rng = np.random.default_rng(6)
    s_src, s_dst = (_leaf(rng, (6, 1), need, low=-2.0, high=2.0) for need in needs[:2])
    w = _leaf(rng, (2 * g.n_edges, 1), needs[2], low=0.0)
    w.values[[0, 3, 7], 0] = [0.0, 1.0, -0.0]
    got = _run(lambda: engine.attention(s_src, s_dst, w, src, dst), [s_src, s_dst, w])
    c = np.random.default_rng(0).normal(size=(len(src), 1))   # the output gradient _run uses
    c[0] = -np.abs(c[0])
    want = _attention_chain(s_src.values, s_dst.values, w.values, src.idx, dst.idx, c)
    assert got == [(x.shape, x.tobytes()) if need else None
                   for x, need in zip(want, (True, *needs))]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["to_inf", "to_minus_inf"])
def test_attention_names_itself_on_overflowing_scores(sign):
    """s_src + s_dst overflows on the first pair; the -inf case would leave
    the coefficients finite (exp(-inf) = 0), so the scores are screened."""
    big = Tensor([[sign * 1e308], [0.0]], requires_grad=True)
    loops = np.array([0, 1])
    with pytest.raises(engine.NonFiniteError, match="'attention'"):
        engine.attention(big, big, Tensor([[1.0]]), loops, loops)


def test_fused_ops_name_themselves_on_a_non_finite_input():
    nan = Tensor([[1.0, np.nan], [0.5, 2.0]])
    ones = Tensor(np.ones((2, 2)))
    col = Tensor(np.ones((2, 1)))
    pair = np.array([0, 1])
    cases = {
        "linear": lambda: engine.linear(nan, ones, Tensor(np.ones((1, 2)))),
        "hop": lambda: engine.hop(nan, col, col, col, pair, pair[::-1]),
        "mixture": lambda: engine.mixture([ones, nan], ones),
        "residual_sum": lambda: engine.residual_sum(ones, [nan], [Tensor([[2.0]])]),
        "blend": lambda: engine.blend(ones, nan, np.full((2, 1), 0.5)),
        "attention": lambda: engine.attention(Tensor(nan.values[:, 1:]), col, Tensor([[1.0]]),
                                              pair, pair[::-1]),
    }
    for op, run in cases.items():
        with pytest.raises(engine.NonFiniteError, match=f"'{op}'"):
            run()
