import os
import re
import warnings
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamore import engine, fusion, gating, graphs
from adamore.engine import Tensor

from _oracles import check_grad


def _safe_values(rng, shape, low=0.15, high=1.2):
    """Random values bounded away from zero (keeps relu/log/cosine smooth)."""
    mags = rng.uniform(low, high, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mags * signs


def _param(rng, shape, positive=False):
    vals = rng.uniform(0.3, 1.5, size=shape) if positive else _safe_values(rng, shape)
    return Tensor(vals, requires_grad=True)


# ---------------------------------------------------------------------------
# forward-value checks

def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = engine.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.values, a.values)


def test_softmax_closed_form():
    out = engine.softmax_rows(Tensor([[2.0, 1.0]]))
    expected = np.exp(2.0) / (np.exp(2.0) + np.exp(1.0))
    assert abs(out.values[0, 0] - expected) < 1e-12
    assert np.allclose(out.values, [[0.7311, 0.2689]], atol=1e-4)


def test_cosine_identical_rows_is_one():
    a = Tensor([[1.0, 2.0, 3.0], [0.5, -0.5, 2.0]])
    cos = engine.cosine_rows(a, Tensor(a.values.copy()))
    assert np.allclose(cos.values, 1.0, atol=1e-7)


def test_cosine_zero_row_is_zero():
    a = Tensor([[0.0, 0.0]])
    b = Tensor([[1.0, 1.0]])
    assert engine.cosine_rows(a, b).item() == 0.0


def test_scalar_and_shape_errors():
    with pytest.raises(engine.ShapeError):
        engine.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(engine.ShapeError) as err:
        engine.add(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))
    assert "(2, 2)" in str(err.value) and "(3, 2)" in str(err.value)
    with pytest.raises(engine.ShapeError):
        engine.backward(Tensor(np.ones((2, 2))))


def test_non_finite_aborts_with_op_name():
    with pytest.raises(engine.NonFiniteError) as err:
        engine.power(Tensor([[0.0]]), -1.0)
    assert "power" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_inputs_that_overflow_abort_with_op_name():
    with pytest.raises(engine.NonFiniteError, match="'matmul'"):
        engine.matmul(Tensor([[1e200]]), Tensor([[1e200]]))


def test_opposite_infinities_abort_without_a_warning():
    # the output holds +inf and -inf, whose sum would be NaN with an "invalid
    # value" warning; the screen tests each element and does no arithmetic
    # (the two infinities sit in different entries, as inf + -inf in one
    # entry would make the add itself warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(engine.NonFiniteError, match="'add'"):
            engine.add(Tensor([[np.inf, 1.0]]), Tensor([[1.0, -np.inf]]))


def test_nan_constant_is_reported_by_the_sparse_op_it_enters():
    nan_rows = Tensor([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]])
    idx = np.array([2, 1, 1])
    cases = {"edge_sum": lambda: engine.edge_sum(nan_rows, Tensor(np.ones((3, 1))), idx,
                                                 np.array([0, 0, 2]), 3),
             "gather_rows": lambda: engine.gather_rows(nan_rows, idx),
             "scatter_rows": lambda: engine.scatter_rows(nan_rows, idx, 3)}
    for op, run in cases.items():
        with pytest.raises(engine.NonFiniteError, match=f"'{op}'"):
            run()


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=(4, 3)))
    before_a, before_b = a.values.copy(), b.values.copy()
    engine.mul(a, b)
    engine.relu(a)
    engine.softmax_rows(a)
    engine.cosine_rows(a, b)
    assert np.array_equal(a.values, before_a)
    assert np.array_equal(b.values, before_b)


# ---------------------------------------------------------------------------
# backward: closed-form cases

def test_backward_linear_map():
    engine.reset_tape()
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 2)))
    loss = engine.frobenius(engine.matmul(w, x), Tensor(np.ones((3, 2))))
    engine.backward(loss)
    expected = np.ones((3, 2)) @ x.values.T
    assert np.allclose(w.grad, expected, atol=1e-12)


def test_backward_half_squared_frobenius():
    engine.reset_tape()
    w = Tensor(np.random.default_rng(1).normal(size=(5, 3)), requires_grad=True)
    loss = engine.scale(engine.frobenius(w, w), 0.5)
    engine.backward(loss)
    assert np.allclose(w.grad, w.values, atol=1e-12)


def test_backward_leaves_non_ancestors_untouched():
    engine.reset_tape()
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    other = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = engine.frobenius(engine.mul(w, w), Tensor(np.ones((2, 2))))
    engine.backward(loss)
    assert other.grad is None


def test_second_backward_on_one_tape_raises_and_leaves_gradients():
    """A second backward would add every record's gradient again (w1 would
    get 4 and w2 3 times the first call's, not twice); it must refuse."""
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 3)))
    w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)

    def loss():
        engine.reset_tape()
        engine.zero_grads([w1, w2])
        return engine.mean_all(engine.matmul(engine.matmul(x, w1), w2))

    first = loss()
    engine.backward(first)
    grads = w1.grad.copy(), w2.grad.copy()
    with pytest.raises(RuntimeError, match="reset_tape"):
        engine.backward(first)
    assert np.array_equal(w1.grad, grads[0]) and np.array_equal(w2.grad, grads[1])
    engine.backward(loss())        # a fresh tape differentiates again
    assert np.array_equal(w1.grad, grads[0]) and np.array_equal(w2.grad, grads[1])
    engine.reset_tape()


# ---------------------------------------------------------------------------
# backward: finite differences for every op

OP_CASES = {}


def op_case(name):
    def deco(fn):
        OP_CASES[name] = fn
        return fn
    return deco


@op_case("add")
def _(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: engine.mean_all(engine.add(a, b))


@op_case("sub")
def _(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: engine.mean_all(engine.sub(a, b))


@op_case("mul")
def _(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: engine.mean_all(engine.mul(a, b))


@op_case("scale")
def _(rng):
    a = _param(rng, (3, 4))
    return [a], lambda: engine.mean_all(engine.scale(a, -1.7))


@op_case("add_scalar")
def _(rng):
    a = _param(rng, (3, 4))
    return [a], lambda: engine.mean_all(engine.add_scalar(a, 2.5))


@op_case("matmul")
def _(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (4, 2))
    return [a, b], lambda: engine.mean_all(engine.matmul(a, b))


@op_case("transpose")
def _(rng):
    a, c = _param(rng, (3, 4)), Tensor(rng.normal(size=(4, 3)))
    return [a], lambda: engine.frobenius(engine.transpose(a), c)


@op_case("frobenius")
def _(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: engine.frobenius(a, b)


@op_case("linear")
def _(rng):
    a, w, b = _param(rng, (5, 4)), _param(rng, (4, 3)), _param(rng, (1, 3))
    c = Tensor(rng.normal(size=(5, 3)))
    return [a, w, b], lambda: engine.frobenius(engine.linear(a, w, b), c)


@op_case("add_row")
def _(rng):
    a, r = _param(rng, (5, 3)), _param(rng, (1, 3))
    return [a, r], lambda: engine.mean_all(engine.add_row(a, r))


@op_case("mul_col")
def _(rng):
    a, v = _param(rng, (5, 3)), _param(rng, (5, 1))
    return [a, v], lambda: engine.mean_all(engine.mul_col(a, v))


@op_case("gather_rows")
def _(rng):
    a = _param(rng, (4, 3))
    idx = np.array([0, 2, 2, 3, 1])
    c = Tensor(rng.normal(size=(5, 3)))
    return [a], lambda: engine.frobenius(engine.gather_rows(a, idx), c)


@op_case("scatter_rows")
def _(rng):
    a = _param(rng, (6, 3))
    idx = np.array([0, 0, 1, 3, 3, 3])
    c = Tensor(rng.normal(size=(4, 3)))
    return [a], lambda: engine.frobenius(engine.scatter_rows(a, idx, 4), c)


@op_case("concat_cols")
def _(rng):
    a, b = _param(rng, (4, 2)), _param(rng, (4, 3))
    c = Tensor(rng.normal(size=(4, 5)))
    return [a, b], lambda: engine.frobenius(engine.concat_cols(a, b), c)


@op_case("relu")
def _(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: engine.mean_all(engine.relu(a))


@op_case("sigmoid")
def _(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: engine.mean_all(engine.sigmoid(a))


@op_case("power")
def _(rng):
    a = _param(rng, (4, 4), positive=True)
    return [a], lambda: engine.mean_all(engine.power(a, -0.5))


@op_case("mean_all")
def _(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: engine.mean_all(engine.mul(a, a))


@op_case("softmax_rows")
def _(rng):
    a = _param(rng, (4, 5))
    c = Tensor(rng.normal(size=(4, 5)))
    return [a], lambda: engine.frobenius(engine.softmax_rows(a), c)


@op_case("log_softmax_rows")
def _(rng):
    a = _param(rng, (4, 5))
    c = Tensor(rng.normal(size=(4, 5)))
    return [a], lambda: engine.frobenius(engine.log_softmax_rows(a), c)


@op_case("cosine_rows")
def _(rng):
    a, b = _param(rng, (5, 4)), _param(rng, (5, 4))
    c = Tensor(rng.normal(size=(5, 1)))
    return [a, b], lambda: engine.frobenius(engine.cosine_rows(a, b), c)


@op_case("cosine_rows_gram")
def _(rng):
    a, b = _param(rng, (5, 4)), _param(rng, (5, 4))
    basis = rng.normal(size=(4, 6))
    c = Tensor(rng.normal(size=(5, 1)))
    return [a, b], lambda: engine.frobenius(engine.cosine_rows(a, b, basis @ basis.T), c)


def _edge_sum_case(rng, h_grad: bool, w_grad: bool):
    # node 4 has no edges; nodes 0-3 receive one or two edges each
    src = np.array([0, 1, 1, 3, 2, 0, 3])
    dst = np.array([1, 0, 3, 1, 0, 2, 2])
    h = Tensor(_safe_values(rng, (5, 3)), requires_grad=h_grad)
    w = Tensor(rng.uniform(0.2, 1.0, size=(7, 1)), requires_grad=w_grad)
    c = Tensor(rng.normal(size=(5, 3)))
    params = [t for t in (h, w) if t.requires_grad]
    return params, lambda: engine.frobenius(engine.edge_sum(h, w, src, dst, 5), c)


@op_case("edge_sum_h")
def _(rng):
    return _edge_sum_case(rng, h_grad=True, w_grad=False)


@op_case("edge_sum_w")
def _(rng):
    return _edge_sum_case(rng, h_grad=False, w_grad=True)


@op_case("edge_sum")
def _(rng):
    return _edge_sum_case(rng, h_grad=True, w_grad=True)


def _pair_mlp_case(rng, a_grad: bool, b_grad: bool, v_grad: bool):
    # node 3 of a and node 0 of b appear in no pair; pairs repeat rows
    src = np.array([0, 1, 2, 2, 0, 4, 1])
    dst = np.array([1, 3, 1, 2, 4, 4, 3])
    a = Tensor(_safe_values(rng, (5, 3)), requires_grad=a_grad)
    b = Tensor(_safe_values(rng, (5, 3), low=0.4, high=0.9), requires_grad=b_grad)
    v = Tensor(_safe_values(rng, (3, 1)), requires_grad=v_grad)
    c = Tensor(rng.normal(size=(7, 1)))
    params = [t for t in (a, b, v) if t.requires_grad]
    return params, lambda: engine.frobenius(engine.pair_mlp(a, b, v, src, dst), c)


@op_case("pair_mlp_a_frozen")
def _(rng):
    return _pair_mlp_case(rng, a_grad=False, b_grad=True, v_grad=True)


@op_case("pair_mlp_b_frozen")
def _(rng):
    return _pair_mlp_case(rng, a_grad=True, b_grad=False, v_grad=True)


@op_case("pair_mlp_v_frozen")
def _(rng):
    return _pair_mlp_case(rng, a_grad=True, b_grad=True, v_grad=False)


@op_case("pair_mlp")
def _(rng):
    return _pair_mlp_case(rng, a_grad=True, b_grad=True, v_grad=True)


def _attention_case(rng, src_grad: bool, dst_grad: bool, w_grad: bool):
    # the edge_sum case's pairs, then a self-loop per node; node 4 has no
    # edges. Every score sits at least 0.4 from leaky ReLU's kink, on both sides
    src = np.array([0, 1, 1, 3, 2, 0, 3, 0, 1, 2, 3, 4])
    dst = np.array([1, 0, 3, 1, 0, 2, 2, 0, 1, 2, 3, 4])
    s_src = Tensor(rng.uniform(0.6, 1.0, size=(5, 1)), requires_grad=src_grad)
    s_dst = Tensor(np.where(rng.random((5, 1)) < 0.5, rng.uniform(-2.0, -1.4, size=(5, 1)),
                            rng.uniform(0.2, 0.5, size=(5, 1))), requires_grad=dst_grad)
    w = Tensor(rng.uniform(0.2, 1.0, size=(7, 1)), requires_grad=w_grad)
    c = Tensor(rng.normal(size=(12, 1)))
    params = [t for t in (s_src, s_dst, w) if t.requires_grad]
    return params, lambda: engine.frobenius(engine.attention(s_src, s_dst, w, src, dst), c)


@op_case("attention_src_frozen")
def _(rng):
    return _attention_case(rng, src_grad=False, dst_grad=True, w_grad=True)


@op_case("attention_dst_frozen")
def _(rng):
    return _attention_case(rng, src_grad=True, dst_grad=False, w_grad=True)


@op_case("attention_weights_frozen")
def _(rng):
    return _attention_case(rng, src_grad=True, dst_grad=True, w_grad=False)


@op_case("attention")
def _(rng):
    return _attention_case(rng, src_grad=True, dst_grad=True, w_grad=True)


def _hop_case(rng, h_grad: bool, w_grad: bool, deg_grad: bool):
    # the edge_sum case's graph: node 4 has no edges
    src = np.array([0, 1, 1, 3, 2, 0, 3])
    dst = np.array([1, 0, 3, 1, 0, 2, 2])
    h = Tensor(_safe_values(rng, (5, 3)), requires_grad=h_grad)
    w = Tensor(rng.uniform(0.2, 1.0, size=(7, 1)), requires_grad=w_grad)
    s, d = (Tensor(rng.uniform(0.3, 1.0, size=(5, 1)), requires_grad=deg_grad)
            for _ in range(2))
    c = Tensor(rng.normal(size=(5, 3)))
    params = [t for t in (h, w, s, d) if t.requires_grad]
    return params, lambda: engine.frobenius(engine.hop(h, w, s, d, src, dst), c)


@op_case("hop_h_frozen")
def _(rng):
    return _hop_case(rng, h_grad=False, w_grad=True, deg_grad=True)


@op_case("hop_w_frozen")
def _(rng):
    return _hop_case(rng, h_grad=True, w_grad=False, deg_grad=True)


@op_case("hop_degrees_frozen")
def _(rng):
    return _hop_case(rng, h_grad=True, w_grad=True, deg_grad=False)


@op_case("hop")
def _(rng):
    return _hop_case(rng, h_grad=True, w_grad=True, deg_grad=True)


@op_case("mixture")
def _(rng):
    outs = [_param(rng, (5, 3)) for _ in range(3)]
    weights = _param(rng, (5, 3))
    c = Tensor(rng.normal(size=(5, 3)))
    return [*outs, weights], lambda: engine.frobenius(engine.mixture(outs, weights), c)


@op_case("residual_sum")
def _(rng):
    base, terms = _param(rng, (5, 3)), [_param(rng, (5, 3)) for _ in range(3)]
    scales = [_param(rng, (1, 1)) for _ in terms]
    c = Tensor(rng.normal(size=(5, 3)))
    return [base, *terms, *scales], lambda: engine.frobenius(
        engine.residual_sum(base, terms, scales), c)


@op_case("blend")
def _(rng):
    a, b = _param(rng, (5, 3)), _param(rng, (5, 3))
    alpha = rng.uniform(size=(5, 1))
    c = Tensor(rng.normal(size=(5, 6)))
    return [a, b], lambda: engine.frobenius(engine.blend(a, b, alpha), c)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params, loss_fn = OP_CASES[name](rng)
    assert check_grad(loss_fn, params, seed=11) <= 1e-4


def test_random_composite_graphs_gradcheck():
    """Random compositions of the ops suite vs central differences."""
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        w1 = Tensor(rng.normal(size=(4, 5)) * 0.7, requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 3)) * 0.7, requires_grad=True)
        x = Tensor(rng.normal(size=(6, 4)))
        target = Tensor(rng.normal(size=(6, 3)))
        idx = rng.integers(0, 6, size=8)

        def loss_fn():
            h = engine.sigmoid(engine.matmul(x, w1))
            h = engine.matmul(h, w2)
            h = engine.gather_rows(h, idx)
            h = engine.scatter_rows(h, idx, 6)
            cos = engine.cosine_rows(h, target)
            sm = engine.softmax_rows(engine.matmul(engine.relu(h), Tensor(np.eye(3))))
            return engine.add(engine.mean_all(engine.sub(Tensor(np.ones((6, 1))), cos)),
                              engine.mean_all(engine.mul(sm, sm)))

        assert check_grad(loss_fn, [w1, w2], seed=trial, n_entries=3) <= 1e-4


def _edge_sum_and_grads(h_values, w_values, src, dst, c, fused: bool):
    engine.reset_tape()
    h = Tensor(h_values, requires_grad=True)
    w = Tensor(w_values, requires_grad=True)
    if fused:
        out = engine.edge_sum(h, w, src, dst, c.shape[0])
    else:
        msg = engine.mul_col(engine.gather_rows(h, src), w)
        out = engine.scatter_rows(msg, dst, c.shape[0])
    engine.backward(engine.frobenius(out, Tensor(c)))
    engine.reset_tape()
    return out.values, h.grad, w.grad


def test_edge_sum_equals_gather_weight_scatter_bitwise(monkeypatch):
    """The fused op keeps the summation order of the triple it replaces:
    every row sums its edges in ascending edge order (the np.add.at order).
    The per-edge weight dot runs in blocks of 7 rows, the last one ragged."""
    rng = np.random.default_rng(7)
    n, m = 30, 240
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 7 * 8 * 6)
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    h_values, w_values = rng.normal(size=(n, 6)), rng.uniform(size=(m, 1))
    c = rng.normal(size=(n, 6))   # the loss is linear, so c is the output gradient
    out, grad_h = np.zeros((n, 6)), np.zeros((n, 6))
    np.add.at(out, dst, h_values[src] * w_values)
    np.add.at(grad_h, src, c[dst] * w_values)
    grad_w = np.einsum("ij,ij->i", c[dst], h_values[src])[:, None]
    fused = _edge_sum_and_grads(h_values, w_values, src, dst, c, fused=True)
    triple = _edge_sum_and_grads(h_values, w_values, src, dst, c, fused=False)
    for a, b, ref in zip(fused, triple, (out, grad_h, grad_w)):
        assert np.array_equal(a, b)
        assert np.array_equal(a, ref)


def _pair_mlp_and_grads(a_values, b_values, v_values, src, dst, c, fused: bool,
                        needs: tuple[bool, bool, bool]):
    engine.reset_tape()
    a, b, v = (Tensor(x, requires_grad=need)
               for x, need in zip((a_values, b_values, v_values), needs))
    if fused:
        out = engine.pair_mlp(a, b, v, src, dst)
    else:
        hidden = engine.relu(engine.add(engine.gather_rows(a, src), engine.gather_rows(b, dst)))
        out = engine.matmul(hidden, v)
    engine.backward(engine.frobenius(out, Tensor(c)))
    engine.reset_tape()
    return out.values, a.grad, b.grad, v.grad


@pytest.mark.parametrize("needs", [(True, True, True), (False, True, True),
                                   (True, False, True), (True, True, False)],
                         ids=["all", "a_frozen", "b_frozen", "v_frozen"])
def test_pair_mlp_matches_composition_across_blocks(monkeypatch, needs):
    """Blocks of 3 rows, the last one ragged: the fused op gives the
    composition's values within 1e-15 and gradients within 1e-13 relative,
    and a frozen input gets no gradient."""
    rng = np.random.default_rng(11)
    n_a, n_b, width, pairs = 20, 15, 8, 301
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 3 * 8 * width)
    assert engine.block_rows(8 * width) == 3 and pairs % 3
    src, dst = rng.integers(0, n_a, pairs), rng.integers(0, n_b, pairs)
    a_values, b_values = rng.normal(size=(n_a, width)), rng.normal(size=(n_b, width))
    v_values, c = rng.normal(size=(width, 1)), rng.normal(size=(pairs, 1))
    fused = _pair_mlp_and_grads(a_values, b_values, v_values, src, dst, c, True, needs)
    composed = _pair_mlp_and_grads(a_values, b_values, v_values, src, dst, c, False, needs)
    for x, y, tol in zip(fused, composed, (1e-15, 1e-13, 1e-13, 1e-13)):
        assert (x is None) == (y is None)
        assert x is None or np.abs(x - y).max() <= tol * np.abs(y).max()
    assert [x is not None for x in fused[1:]] == list(needs)


@pytest.mark.parametrize("op", [engine.cosine_rows, engine.frobenius])
@pytest.mark.parametrize("a_grad, b_grad", [(True, False), (False, True)])
def test_binary_backward_skips_constant_input(op, a_grad, b_grad):
    """The rule returns None for a constant input and, for the other one,
    the same bits as when both inputs need a gradient."""
    rng = np.random.default_rng(5)
    a_values, b_values = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))

    def rule_output(a_req, b_req):
        engine.reset_tape()
        op(Tensor(a_values, requires_grad=a_req), Tensor(b_values, requires_grad=b_req))
        name, out, _, backward_fn = engine.current_tape().records[-1]
        assert name == op.__name__
        grads = backward_fn(np.full(out.shape, 0.7))
        engine.reset_tape()
        return grads

    partial, full = rule_output(a_grad, b_grad), rule_output(True, True)
    for got, need, ref in zip(partial, (a_grad, b_grad), full):
        assert (got is None) != need
        assert got is None or np.array_equal(got, ref)


def test_pair_mlp_rejects_mismatched_operands():
    a, b, v = Tensor(np.ones((3, 2))), Tensor(np.ones((3, 4))), Tensor(np.ones((2, 1)))
    with pytest.raises(engine.ShapeError):
        engine.pair_mlp(a, b, v, np.array([0]), np.array([1]))
    with pytest.raises(engine.ShapeError):
        engine.pair_mlp(a, a, v, np.array([0, 1]), np.array([1]))
    with pytest.raises(engine.ShapeError):
        engine.pair_mlp(a, a, Tensor(np.ones((2, 2))), np.array([0]), np.array([1]))
    with pytest.raises(IndexError):
        engine.pair_mlp(a, a, v, np.array([0, 3]), np.array([1, 2]))


def test_edge_sum_rejects_out_of_range_endpoints():
    h, w = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1)))
    with pytest.raises(IndexError):
        engine.edge_sum(h, w, np.array([0, 3]), np.array([1, 2]), 3)
    with pytest.raises(IndexError):
        engine.edge_sum(h, w, np.array([0, 1]), np.array([1, -1]), 3)
    with pytest.raises(engine.ShapeError):
        engine.edge_sum(h, Tensor(np.ones((3, 1))), np.array([0, 1]), np.array([1, 2]), 3)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 20))
    nodes = st.integers(0, n - 1)
    src = np.array(draw(st.lists(nodes, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(nodes, min_size=m, max_size=m)), dtype=np.int64)
    return n, src, dst, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


_NO_EDGES = np.zeros(0, dtype=np.int64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_edge_lists())
@example((3, _NO_EDGES, _NO_EDGES, 2, 5))
def test_edge_sum_matches_dense_oracle(case):
    """Random graphs, isolated nodes and empty edge sets included."""
    n, src, dst, f, seed = case
    rng = np.random.default_rng(seed)
    h = Tensor(rng.normal(size=(n, f)), requires_grad=True)
    w = Tensor(rng.uniform(0.1, 1.0, size=(src.shape[0], 1)), requires_grad=True)
    dense = np.zeros((n, n))
    np.add.at(dense, (dst, src), w.values[:, 0])
    engine.reset_tape()
    out = engine.edge_sum(h, w, src, dst, n)
    assert np.allclose(out.values, dense @ h.values, rtol=1e-12, atol=1e-12)
    c = Tensor(rng.normal(size=(n, f)))
    params = [h, w] if src.shape[0] else [h]
    loss_fn = lambda: engine.frobenius(engine.sigmoid(engine.edge_sum(h, w, src, dst, n)), c)
    assert check_grad(loss_fn, params, seed=seed % 1000) <= 1e-4


def _cosines_and_grads(a_values, b_values, gram=None, basis=None):
    """cosine_rows of (a, b), or of (a B, b B), and its gradients w.r.t. a
    and b under the loss sum_i c_i cos_i, c fixed."""
    engine.reset_tape()
    a, b = (Tensor(v, requires_grad=True) for v in (a_values, b_values))
    pa, pb = (a, b) if basis is None else (engine.matmul(a, Tensor(basis)),
                                           engine.matmul(b, Tensor(basis)))
    cos = engine.cosine_rows(pa, pb, gram)
    c = np.linspace(-1.0, 2.0, a_values.shape[0])[:, None]
    engine.backward(engine.frobenius(cos, Tensor(c)))
    engine.reset_tape()
    return cos.values, a.grad, b.grad


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(3, 6), (5, 5), (6, 3)]))
def test_gram_cosines_equal_cosines_of_projected_rows(seed, widths):
    """cos_G(a, b) = cos(a B, b B) for G = B B^T within 1e-12, with B wider
    than, as wide as, or narrower than its F + 1 rows (a rank-deficient G).
    A zero row, and when G is rank-deficient a row in its null space, give a
    finite 0 with finite gradients."""
    rows, d_e = widths
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(rows, d_e))
    a_values, b_values = rng.normal(size=(6, rows)), rng.normal(size=(6, rows))
    a_values[0] = 0.0
    degenerate = [0]
    if rows > d_e:
        a_values[1] = 3.0 * np.linalg.svd(basis)[0][:, -1]   # a_1 B = 0
        degenerate.append(1)
    gram = basis @ basis.T
    cos, grad_a, grad_b = _cosines_and_grads(a_values, b_values, gram=gram)
    ref, ref_a, ref_b = _cosines_and_grads(a_values, b_values, basis=basis)
    assert np.all(np.isfinite(grad_a)) and np.all(np.isfinite(grad_b))
    assert np.abs(cos[degenerate]).max() <= 1e-6
    keep = np.setdiff1d(np.arange(6), degenerate)
    assert np.abs(cos[keep] - ref[keep]).max() <= 1e-12
    for got, want in ((grad_a, ref_a), (grad_b, ref_b)):
        assert np.abs(got[keep] - want[keep]).max() <= 1e-10 * np.abs(want[keep]).max()


def test_frozen_parameters_record_nothing_and_get_no_gradient():
    engine.reset_tape()
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    with engine.frozen([w, b]):
        engine.add_row(engine.matmul(x, w), b)
        assert len(engine.current_tape()) == 0
        live = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        loss = engine.mean_all(engine.add_row(engine.matmul(live, w), b))
        engine.backward(loss)
    assert w.grad is None and b.grad is None
    assert np.allclose(live.grad, np.ones((5, 2)) @ w.values.T / 10.0)
    assert w.requires_grad and b.requires_grad


def test_tape_replay_determinism():
    losses = []
    for _ in range(10):
        engine.reset_tape()
        rng = np.random.default_rng(42)
        w = Tensor(np.linspace(-1, 1, 12).reshape(4, 3), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 2)))
        g1, g2 = engine.gumbel_pair(rng, (4, 2))
        noisy = engine.add(engine.matmul(w, x), Tensor(g1 - g2))
        losses.append(engine.mean_all(engine.sigmoid(noisy)).item())
    assert len(set(losses)) == 1


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_param_unchanged():
    p = Tensor(np.full((2, 2), 1.5), requires_grad=True)
    state = engine.AdamState(lr=0.1)
    engine.adam_step([p], state)
    assert np.array_equal(p.values, np.full((2, 2), 1.5))


def test_adam_first_step_magnitude():
    p = Tensor([[1.0]], requires_grad=True)
    p.grad = np.array([[1.0]])
    state = engine.AdamState(lr=0.1)
    engine.adam_step([p], state)
    # bias-corrected first step is lr * g/(|g| + eps') ~= lr
    assert abs(p.values[0, 0] - 0.9) < 1e-6
    assert p.grad is None


def test_adam_default_learning_rate():
    assert engine.AdamState().lr == 3e-5


# ---------------------------------------------------------------------------
# gumbel sampling

def test_gumbel_pair_deterministic_under_seed():
    a1 = engine.gumbel_pair(np.random.default_rng(9), (3, 2))
    a2 = engine.gumbel_pair(np.random.default_rng(9), (3, 2))
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert not np.array_equal(a1[0], a1[1])


def test_gumbel_mean_is_euler_mascheroni():
    g1, g2 = engine.gumbel_pair(np.random.default_rng(5), (1000, 1000))
    gamma = 0.5772156649
    assert abs(g1.mean() - gamma) < 0.01
    assert abs(g2.mean() - gamma) < 0.01


# ---------------------------------------------------------------------------
# checkpoint archive

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    named = {"w1": rng.normal(size=(3, 4)), "bias": rng.normal(size=(1, 4))}
    path = tmp_path / "model.ckpt"
    engine.save_checkpoint(path, named)
    back = engine.load_checkpoint(path)
    assert set(back) == {"w1", "bias"}
    for k in named:
        assert np.array_equal(back[k], named[k])


def test_checkpoint_header_versioned(tmp_path):
    path = tmp_path / "model.ckpt"
    engine.save_checkpoint(path, {"a": np.zeros((1, 1))})
    raw = path.read_bytes()
    assert b"ADAMORE-CKPT-1" in raw[:64]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(struct_pack_header(b"NOT-A-CKPT\n1\na 1 1 0\n") + np.zeros(1).tobytes())
    with pytest.raises(ValueError):
        engine.load_checkpoint(bad)


def test_graph_layouts_are_built_once_over_many_steps(monkeypatch):
    """100 edge_sum steps over one graph, each with a fresh random mask
    gather (as each reconstruction step's), lay the graph's pairs out once;
    only each step's mask is laid out anew."""
    builds = []
    layout = engine._layout
    monkeypatch.setattr(engine, "_layout",
                        lambda idx, n_rows: builds.append(idx) or layout(idx, n_rows))
    g = graphs.gen_sbm(10, 2, 0.5, 0.1, feat_dim=3, seed=0)
    src, dst = g.pairs
    rng = np.random.default_rng(0)
    h, w = _param(rng, (g.n_nodes, 3)), _param(rng, (len(src), 1))
    for _ in range(100):
        engine.reset_tape()
        mask = np.sort(rng.choice(g.n_nodes, size=5, replace=False))
        out = engine.edge_sum(h, w, *g.pairs, g.n_nodes)
        engine.backward(engine.mean_all(engine.gather_rows(out, mask)))
    engine.reset_tape()
    assert [sum(b is idx.idx for b in builds) for idx in (src, dst)] == [1, 1]
    assert len(builds) == 2 + 100


def test_index_checks_its_range_when_built_and_its_rows_where_used():
    for bad in ([0, 4], [-1, 2]):
        with pytest.raises(IndexError):
            engine.Index(np.array(bad), 4)
    raw = np.array([0, 3, 3])
    idx = engine.Index(raw, 4)
    raw[0] = 1  # the index keeps a read-only copy
    assert idx.idx.tolist() == [0, 3, 3] and not idx.idx.flags.writeable
    with pytest.raises(engine.ShapeError):
        engine.gather_rows(Tensor(np.ones((5, 2))), idx)
    with pytest.raises(engine.ShapeError):
        engine.scatter_rows(Tensor(np.ones((3, 2))), idx, 5)
    with pytest.raises(engine.ShapeError):
        engine.edge_sum(Tensor(np.ones((4, 2))), Tensor(np.ones((3, 1))), idx, idx, 5)
    with pytest.raises(engine.ShapeError):
        engine.pair_mlp(Tensor(np.ones((5, 2))), Tensor(np.ones((4, 2))),
                        Tensor(np.ones((2, 1))), idx, idx)
    summed = engine.scatter_rows(Tensor(np.ones((3, 1))), idx, 4)
    assert summed.values.ravel().tolist() == [1.0, 0.0, 0.0, 2.0]


def _sum_matrix(rows, cols, vals, shape):
    """The scipy reference, which sums each row in ascending column order."""
    return sps.csr_matrix((vals, (rows, cols)), shape=shape)


def _operand(rng, n_rows, width, kind):
    if kind == "transposed":
        return rng.normal(size=(width, n_rows)).T
    if kind == "column slice":
        return rng.normal(size=(n_rows, width + 2))[:, 1:-1]
    return rng.normal(size=(n_rows, width))


def _recorded(out):
    """Forward values and the backward rule of the op that made ``out``."""
    _, rec_out, _, backward_fn = engine.current_tape().records[-1]
    assert rec_out is out
    return out.values, backward_fn


@pytest.mark.parametrize("kind", ["contiguous", "transposed", "column slice"])
@pytest.mark.parametrize("width", [1, 16, 128])
@pytest.mark.parametrize("m", [0, 23])
def test_sparse_ops_equal_scipy_products_bitwise(width, kind, m):
    """Values and gradients of edge_sum, gather_rows and scatter_rows equal
    scipy's csr @ dense bit for bit, on operands that are not C-contiguous,
    an empty index and rows that receive no entry (the last two of 7)."""
    rng = np.random.default_rng(width + m)
    n = 7
    # distinct (dst, src) pairs with dst < n - 2, ordered by (src, dst): a
    # scipy matrix built from them sums each row in the ops' ascending e order
    pairs = rng.permutation(np.stack(np.divmod(np.arange(n * (n - 2)), n), axis=1))[:m]
    dst, src = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))].T
    engine.reset_tape()
    h = Tensor(_operand(rng, n, width, kind), requires_grad=True)
    w = Tensor(rng.normal(size=(m, 1)), requires_grad=True)
    a = Tensor(_operand(rng, m, width, kind), requires_grad=True)
    wv = w.values[:, 0]

    out, back = _recorded(engine.edge_sum(h, w, src, dst, n))
    assert np.array_equal(out, _sum_matrix(dst, src, wv, (n, n)) @ h.values)
    g = _operand(rng, n, width, kind)
    gh, gw = back(g)
    assert np.array_equal(gh, _sum_matrix(src, dst, wv, (n, n)) @ g)
    assert np.array_equal(gw[:, 0], np.einsum("ij,ij->i", g[dst], h.values[src]))

    segments = _sum_matrix(dst, np.arange(m), np.ones(m), (n, m))
    out, back = _recorded(engine.gather_rows(h, dst))
    assert np.array_equal(out, h.values[dst])
    g = _operand(rng, m, width, kind)
    assert np.array_equal(back(g)[0], segments @ g)

    out, back = _recorded(engine.scatter_rows(a, dst, n))
    assert np.array_equal(out, segments @ a.values)
    assert out.flags.c_contiguous and not out[n - 2:].any()
    g = _operand(rng, n, width, kind)
    assert np.array_equal(back(g)[0], g[dst])
    engine.reset_tape()


def test_sparse_product_checks_operand_rows_before_the_kernel(monkeypatch):
    idx = engine.Index(np.array([0, 2, 2]), 3)
    h, w = Tensor(np.ones((3, 2)), requires_grad=True), Tensor(np.ones((3, 1)))
    engine.reset_tape()
    _, gather_back = _recorded(engine.gather_rows(h, idx))
    _, edge_back = _recorded(engine.edge_sum(h, w, idx, idx, 3))
    engine.reset_tape()
    calls = []
    monkeypatch.setattr(engine, "_sparsetools",
                        SimpleNamespace(csr_matvecs=lambda *args: calls.append(args)))
    for run in (lambda: engine._csr_matmul(*idx.layout, len(idx), np.ones((4, 2))),
                lambda: gather_back(np.ones((2, 2))),
                lambda: edge_back(np.ones((4, 2)))):
        with pytest.raises(engine.ShapeError):
            run()
    assert calls == []


class _InterruptedFile:
    """Writes half of what it is given, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def test_interrupted_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    engine.save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    monkeypatch.setattr(engine, "open", lambda *a, **k: _InterruptedFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        engine.save_checkpoint(path, {"a": np.ones((4, 5))})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    # a file planted at the temporary name is refused, not written through
    monkeypatch.undo()
    victim = tmp_path / "victim"
    victim.write_text("keep")
    planted = tmp_path / f"model.ckpt.{os.getpid()}.tmp"
    planted.symlink_to(victim)
    with pytest.raises(FileExistsError):
        engine.save_checkpoint(path, {"a": np.ones((4, 5))})
    assert victim.read_text() == "keep" and path.read_bytes() == before
    assert planted.is_symlink()


def test_output_writers_write_atomically(tmp_path, monkeypatch):
    written = []
    monkeypatch.setattr(engine, "atomic_write", lambda path, data: written.append(
        os.path.basename(path)))
    g = graphs.make_graph(3, [(0, 1), (1, 2)], np.eye(3), labels=np.array([0, 1, 0]))
    graphs.save_graph(g, str(tmp_path / "g"))
    gating.export_weights_tsv(g, np.array([0.5, 0.25]), str(tmp_path / "weights.tsv"))
    fusion.export_alpha_tsv(np.array([0.1, 0.2, 0.3]), str(tmp_path / "alpha.tsv"))
    engine.save_checkpoint(tmp_path / "model.ckpt", {"a": np.zeros((1, 1))})
    assert written == ["edges.tsv", "features.tsv", "labels.tsv", "weights.tsv",
                       "alpha.tsv", "model.ckpt"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("manifest", [
    b"ADAMORE-CKPT-1\n",
    b"ADAMORE-CKPT-1\none\na 1 1 0\n",
    b"ADAMORE-CKPT-1\n1\na 1 1\n",
    b"ADAMORE-CKPT-1\n1\na 1 2 -16\n",
    b"ADAMORE-CKPT-1\n1\na -1 2 0\n",
    b"ADAMORE-CKPT-1\n1\na 2 -1 0\n",
    b"ADAMORE-CKPT-1\n1\na 1 1 3\n",
    b"ADAMORE-CKPT-1\n2\na 1 1 0\nb 1 1 0\n",
    b"ADAMORE-CKPT-1\n2\na 1 1 0\n",
], ids=["header_only", "non_integer_count", "three_field_entry", "negative_offset",
        "negative_rows", "negative_cols", "misaligned_offset", "overlapping_entries",
        "count_above_entries"])
def test_malformed_checkpoint_manifest_is_refused_naming_the_file(tmp_path, manifest):
    path = tmp_path / "model.ckpt"
    path.write_bytes(struct_pack_header(manifest) + np.zeros(2).tobytes())
    with pytest.raises(ValueError, match=re.escape(str(path))):
        engine.load_checkpoint(path)


def test_checkpoint_refuses_an_entry_named_twice(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(struct_pack_header(b"ADAMORE-CKPT-1\n2\nw 1 1 0\nw 1 1 8\n")
                     + np.array([1.0, 2.0]).tobytes())
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*'w' listed twice"):
        engine.load_checkpoint(path)


def test_checkpoint_refuses_payload_bytes_no_entry_accounts_for(tmp_path):
    path = tmp_path / "model.ckpt"
    engine.save_checkpoint(path, {"w": np.ones((2, 3))})
    path.write_bytes(path.read_bytes() + np.zeros(1).tobytes())
    with pytest.raises(ValueError,
                       match=re.escape(str(path)) + ".*56 bytes, its entries end at 48"):
        engine.load_checkpoint(path)


@pytest.mark.parametrize("name", ["a b", "", "x\ny"], ids=["space", "empty", "newline"])
def test_checkpoint_refuses_a_name_its_manifest_cannot_hold(tmp_path, name):
    path = tmp_path / "model.ckpt"
    engine.save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        engine.save_checkpoint(path, {"b": np.ones((1, 1)), name: np.zeros((2, 2))})
    assert path.read_bytes() == before


def struct_pack_header(header: bytes) -> bytes:
    import struct
    return struct.pack("<Q", len(header)) + header
