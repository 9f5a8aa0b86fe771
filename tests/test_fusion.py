import warnings

import numpy as np
import pytest

from adamore import engine, fusion, graphs
from adamore.engine import Tensor


def path2(labels=None):
    return graphs.make_graph(2, [(0, 1)], np.eye(2), labels=labels)


def star(n_leaves=3):
    edges = [(0, i) for i in range(1, n_leaves + 1)]
    return graphs.make_graph(n_leaves + 1, edges, np.eye(n_leaves + 1))


# ---------------------------------------------------------------------------
# semantic score

def test_semantic_score_identical_neighbors():
    g = star()
    h = np.tile([[1.0, 2.0]], (g.n_nodes, 1))
    assert np.allclose(fusion.semantic_score(h, g), 1.0, atol=1e-7)


def test_semantic_score_orthogonal_neighbors():
    g = path2()
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(fusion.semantic_score(h, g), 0.0)


def test_semantic_score_mixed_neighbors_mean():
    # center node 0 with neighbors at cosine 1 and cosine 0
    g = graphs.make_graph(3, [(0, 1), (0, 2)], np.eye(3))
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    score = fusion.semantic_score(h, g)
    assert abs(score[0] - 0.5) < 1e-7


def test_semantic_score_of_a_row_whose_norm_overflows():
    """A row whose norm exceeds the float range still has its direction:
    on a path whose rows all point one way every cue is 1, with no warning."""
    g = graphs.make_graph(3, [(0, 1), (1, 2)], np.eye(3))
    h = np.array([[1.0, 2.0], [1e200, 2e200], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = fusion.semantic_score(h, g)
    assert np.allclose(score, 1.0, rtol=0.0, atol=1e-12)


def test_semantic_score_isolated_sentinel():
    g = graphs.make_graph(2, np.zeros((0, 2)), np.eye(2))
    assert np.array_equal(fusion.semantic_score(np.eye(2), g), [0.5, 0.5])


def test_semantic_score_equals_directed_pair_formula(monkeypatch):
    """One cosine per undirected edge, in blocks of 2 rows (the last one
    ragged), gives the bits of one per directed pair summed by np.add.at."""
    rng = np.random.default_rng(3)
    edges = [(0, 1), (0, 2), (2, 3), (1, 3), (3, 5), (0, 5), (2, 5)]
    g = graphs.make_graph(8, edges, np.eye(8))        # nodes 4, 6, 7 isolated
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 2 * 8 * 6)
    for _ in range(10):
        h = rng.normal(size=(g.n_nodes, 6))
        unit = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), engine.EPS)
        src, dst = (p.idx for p in g.pairs)
        acc = np.zeros(g.n_nodes)
        np.add.at(acc, dst, (unit[src] * unit[dst]).sum(axis=1))
        deg = g.degrees().astype(np.float64)
        expect = np.full(g.n_nodes, fusion.ISOLATED_BLEND)
        expect[deg > 0] = acc[deg > 0] / deg[deg > 0]
        assert np.array_equal(fusion.semantic_score(h, g), np.clip(expect, 0.0, 1.0))


def test_structural_score_and_degrees_match_add_at():
    """The bincount sums give the bits of np.add.at over the edge ends."""
    rng = np.random.default_rng(4)
    pairs = rng.choice(40 * 40, size=200, replace=False)
    pairs = np.unique(np.sort(np.stack([pairs // 40, pairs % 40], axis=1), axis=1), axis=0)
    g = graphs.make_graph(42, pairs[pairs[:, 0] != pairs[:, 1]], np.eye(42))  # 40, 41 isolated
    w = rng.uniform(size=g.n_edges)
    u, v = g.edges[:, 0], g.edges[:, 1]
    deg, total = np.zeros(g.n_nodes, dtype=np.int64), np.zeros(g.n_nodes)
    np.add.at(deg, np.concatenate([u, v]), 1)
    np.add.at(total, u, w)
    np.add.at(total, v, w)
    assert np.array_equal(g.degrees(), deg) and deg[40:].sum() == 0
    expect = np.full(g.n_nodes, fusion.ISOLATED_BLEND)
    expect[deg > 0] = total[deg > 0] / deg[deg > 0]
    assert np.array_equal(fusion.structural_score(w, g), np.clip(expect, 0.0, 1.0))


def test_semantic_score_clamps_negative_cosine():
    g = path2()
    h = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert np.array_equal(fusion.semantic_score(h, g), [0.0, 0.0])


# ---------------------------------------------------------------------------
# structural score

def test_structural_score_extremes_and_mean():
    g = graphs.make_graph(3, [(0, 1), (0, 2)], np.eye(3))
    score = fusion.structural_score(np.array([[0.8], [0.2]]), g)
    assert abs(score[0] - 0.5) < 1e-12
    assert abs(score[1] - 0.8) < 1e-12
    assert abs(score[2] - 0.2) < 1e-12
    assert np.allclose(fusion.structural_score(np.ones((2, 1)), g), 1.0)


def test_structural_score_isolated_sentinel():
    g = graphs.make_graph(3, [(0, 1)], np.eye(3))
    assert fusion.structural_score(np.array([[0.9]]), g)[2] == 0.5


# ---------------------------------------------------------------------------
# propagation

def test_propagate_alpha_isolated_node_keeps_init():
    g = graphs.make_graph(1, np.zeros((0, 2)), np.ones((1, 1)))
    out = fusion.propagate_alpha(np.array([0.37]), graphs.normalize(g))
    assert abs(out[0] - 0.37) < 1e-15


def test_propagate_alpha_constant_on_regular_graph():
    g = graphs.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], np.eye(4))  # 4-cycle
    out = fusion.propagate_alpha(np.full(4, 0.6), graphs.normalize(g))
    assert np.allclose(out, 0.6, atol=1e-10)


def test_propagate_alpha_two_node_path():
    out = fusion.propagate_alpha(np.array([1.0, 0.0]), graphs.normalize(path2()))
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_compute_fusion_bounds():
    rng = np.random.default_rng(0)
    g = graphs.gen_sbm(10, 2, 0.5, 0.2, feat_dim=4, seed=1)
    w, h = rng.random((g.n_edges, 1)), rng.normal(size=(g.n_nodes, 6))
    for vec in (fusion.structural_score(w, g), fusion.semantic_score(h, g),
                fusion.compute_fusion(w, h, g, graphs.normalize(g))):
        assert (vec >= 0.0).all() and (vec <= 1.0).all()


# ---------------------------------------------------------------------------
# fuse

def test_fuse_alpha_one_zeroes_dispersive_half():
    rng = np.random.default_rng(1)
    h_coh = Tensor(rng.normal(size=(4, 3)))
    h_disp = Tensor(rng.normal(size=(4, 3)))
    out = fusion.fuse(h_coh, h_disp, np.ones(4))
    assert np.array_equal(out.values[:, :3], h_coh.values)
    assert not out.values[:, 3:].any()


def test_fuse_alpha_half_halves_both():
    rng = np.random.default_rng(2)
    h_coh = Tensor(rng.normal(size=(4, 3)))
    h_disp = Tensor(rng.normal(size=(4, 3)))
    out = fusion.fuse(h_coh, h_disp, np.full(4, 0.5))
    assert np.allclose(out.values[:, :3], 0.5 * h_coh.values)
    assert np.allclose(out.values[:, 3:], 0.5 * h_disp.values)


def test_fuse_output_width_and_linearity():
    rng = np.random.default_rng(3)
    alpha = rng.random(5)
    h1 = rng.normal(size=(5, 4))
    h2 = rng.normal(size=(5, 4))
    out = fusion.fuse(Tensor(h1), Tensor(h2), alpha)
    assert out.shape == (5, 8)
    scaled = fusion.fuse(Tensor(2.0 * h1), Tensor(h2), alpha)
    assert np.allclose(scaled.values[:, :4], 2.0 * out.values[:, :4], atol=1e-12)
    assert np.array_equal(scaled.values[:, 4:], out.values[:, 4:])
    # dense oracle
    expect = np.hstack([alpha[:, None] * h1, (1.0 - alpha)[:, None] * h2])
    assert np.allclose(out.values, expect, atol=1e-15)


def test_fuse_alpha_is_gradient_constant():
    engine.reset_tape()
    rng = np.random.default_rng(4)
    h_coh = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    h_disp = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    alpha = np.array([0.2, 0.7, 0.5])
    loss = engine.frobenius(fusion.fuse(h_coh, h_disp, alpha), Tensor(np.ones((3, 4))))
    engine.backward(loss)
    assert np.allclose(h_coh.grad, alpha[:, None] * np.ones((3, 2)))
    assert np.allclose(h_disp.grad, (1.0 - alpha)[:, None] * np.ones((3, 2)))


def test_fuse_shape_errors():
    with pytest.raises(engine.ShapeError):
        fusion.fuse(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))), np.ones(3))
    with pytest.raises(engine.ShapeError):
        fusion.fuse(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), np.ones(4))


def test_export_alpha_tsv(tmp_path):
    path = tmp_path / "alpha.tsv"
    fusion.export_alpha_tsv(np.array([0.25, 0.75]), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].split() == ["0", "0.25"]
    assert lines[1].split() == ["1", "0.75"]
