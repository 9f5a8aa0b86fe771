import os
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamore import graphs

from _oracles import (clustering_by_set_intersections, dense_sym_norm, dense_walk_norm,
                      random_adjacency, sbm_all_pairs, self_looped)


def _graph_from_adj(adj, labels=None, feat=None):
    n = adj.shape[0]
    iu, ju = np.nonzero(np.triu(adj, 1))
    feats = feat if feat is not None else np.eye(n)
    return graphs.make_graph(n, np.stack([iu, ju], axis=1), feats, labels=labels)


def write_graph_dir(tmp_path, edges, features, labels=None):
    d = tmp_path / "g"
    d.mkdir(exist_ok=True)
    (d / "edges.tsv").write_text("".join(f"{u} {v}\n" for u, v in edges))
    (d / "features.tsv").write_text(
        "".join(" ".join(str(x) for x in row) + "\n" for row in features))
    if labels is not None:
        (d / "labels.tsv").write_text("".join(f"{y}\n" for y in labels))
    return str(d)


# ---------------------------------------------------------------------------
# loading and validation

def test_load_minimal_graph(tmp_path):
    d = write_graph_dir(tmp_path, [(0, 1)], np.eye(2))
    g = graphs.load_graph(d)
    assert g.n_nodes == 2 and g.n_edges == 1
    assert g.labels is None


def test_load_symmetrizes_and_deduplicates(tmp_path):
    d = write_graph_dir(tmp_path, [(0, 1), (1, 0), (2, 2), (1, 2), (1, 2)], np.eye(3))
    g = graphs.load_graph(d)
    assert g.n_edges == 2
    assert (g.edges == [[0, 1], [1, 2]]).all()


def test_load_rejects_out_of_range_edge(tmp_path):
    d = write_graph_dir(tmp_path, [(0, 5)], np.eye(3))
    with pytest.raises(graphs.GraphFormatError) as err:
        graphs.load_graph(d)
    assert "edges.tsv:1" in str(err.value)


def test_load_rejects_ragged_features(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    (d / "edges.tsv").write_text("0 1\n")
    (d / "features.tsv").write_text("1.0 0.0\n1.0\n")
    with pytest.raises(graphs.GraphFormatError) as err:
        graphs.load_graph(str(d))
    assert "features.tsv:2" in str(err.value)


def test_load_rejects_non_finite_feature(tmp_path):
    d = write_graph_dir(tmp_path, [(0, 1)], [[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(graphs.GraphFormatError) as err:
        graphs.load_graph(d)
    assert "features.tsv:1" in str(err.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(graphs.GraphFormatError) as err:
        graphs.load_graph(str(tmp_path))
    assert "missing file" in str(err.value)


def test_graph_roundtrip(tmp_path):
    g = graphs.gen_sbm(5, 2, 0.8, 0.2, feat_dim=4, seed=3)
    out = tmp_path / "saved"
    graphs.save_graph(g, str(out))
    back = graphs.load_graph(str(out))
    assert back.n_nodes == g.n_nodes
    assert np.array_equal(back.edges, g.edges)
    assert np.allclose(back.features, g.features)
    assert np.array_equal(back.labels, g.labels)


def _load_error(tmp_path, edges="0 1\n", features="1.0\n2.0\n", labels=None) -> str:
    d = tmp_path / "g"
    d.mkdir(exist_ok=True)
    (d / "edges.tsv").write_text(edges)
    (d / "features.tsv").write_text(features)
    if labels is not None:
        (d / "labels.tsv").write_text(labels)
    with pytest.raises(graphs.GraphFormatError) as err:
        graphs.load_graph(str(d))
    return str(err.value)


def test_load_rejects_edge_index_equal_to_node_count(tmp_path):
    assert "edges.tsv:2: node index out of range for 2 nodes" in _load_error(
        tmp_path, edges="0 1\n2 0\n")


def test_load_rejects_three_column_edges(tmp_path):
    assert "edges.tsv:1: expected 'u v'" in _load_error(tmp_path, edges="0 1 1\n1 0 1\n")


def test_load_labels_read_first_column(tmp_path):
    d = write_graph_dir(tmp_path, [(0, 1)], np.eye(2))
    (tmp_path / "g" / "labels.tsv").write_text("0 5\n1 5\n")
    assert np.array_equal(graphs.load_graph(d).labels, [0, 1])


def test_load_rejects_float_edge_index(tmp_path):
    assert "edges.tsv:2: non-integer node index" in _load_error(tmp_path, edges="0 1\n1.0 2\n",
                                                                features="1\n2\n3\n")


def test_load_rejects_comment_token(tmp_path):
    assert "features.tsv:2:" in _load_error(tmp_path, features="1.0 2.0\n3.0 # 4.0\n")


def test_load_rejects_negative_label(tmp_path):
    assert "labels.tsv: negative label" in _load_error(tmp_path, labels="0\n-1\n")


def test_load_rejects_short_labels_file(tmp_path):
    assert "labels.tsv: 1 labels for 2 nodes" in _load_error(tmp_path, labels="0\n\n")


def test_load_rejects_underscored_digits(tmp_path):
    """``1_0``, which Python's int() and float() accept, is refused at its line."""
    assert "features.tsv:3: non-numeric feature value" in _load_error(
        tmp_path, features="1.0\n\n2_0\n")
    assert "edges.tsv:2: non-integer node index" in _load_error(tmp_path, edges="0 1\n1_0 0\n")
    assert "labels.tsv:2: non-integer label" in _load_error(tmp_path, labels="0\n1_1\n")


_EXTREME = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def _rewrite(path, newline: str, blank: bool) -> None:
    """Re-terminate a file's lines and, optionally, pad it with blank lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if blank:
        lines = ["", *(x for line in lines for x in (line, " \t")), ""]
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + newline for line in lines))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_graph_reads_back_written_arrays(data):
    """load_graph returns the arrays written, bit for bit, on save_graph
    output with extreme floats, raw (reversed, duplicate, self-loop) or no
    edges, blank lines, CRLF and with or without labels."""
    n = data.draw(st.integers(1, 6), label="n")
    width = data.draw(st.integers(1, 3), label="width")
    values = data.draw(st.lists(st.sampled_from(_EXTREME) | st.floats(allow_nan=False,
                                                                       allow_infinity=False),
                                min_size=n * width, max_size=n * width))
    feats = np.array(values, dtype=np.float64).reshape(n, width)
    raw = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=10), label="edges")
    labels = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    blank = data.draw(st.booleans(), label="blank")
    ref = graphs.make_graph(n, raw, feats, labels=labels)
    with tempfile.TemporaryDirectory() as d:
        graphs.save_graph(ref, d)
        with open(os.path.join(d, "edges.tsv"), "w") as fh:
            fh.write("".join(f"{u} {v}\n" for u, v in raw))
        for name in ("edges.tsv", "features.tsv", "labels.tsv"):
            if os.path.exists(os.path.join(d, name)):
                _rewrite(os.path.join(d, name), newline, blank)
        loaded = graphs.load_graph(d)
    assert loaded.features.tobytes() == feats.tobytes()
    assert np.array_equal(loaded.edges, ref.edges) and loaded.edges.dtype == np.int64
    assert (loaded.labels is None) == (labels is None)
    assert labels is None or np.array_equal(loaded.labels, labels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 8),
       pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30))
@example(n=1, pairs=[])
@example(n=1, pairs=[(0, 0)])
@example(n=5, pairs=[])
def test_make_graph_dedup_matches_row_unique(n, pairs):
    """One int64 key per pair gives np.unique(axis=0)'s rows and order."""
    arr = np.array([(u % n, v % n) for u, v in pairs], dtype=np.int64).reshape(-1, 2)
    g = graphs.make_graph(n, arr, np.zeros((n, 1)))
    arr = arr[arr[:, 0] != arr[:, 1]]
    expect = np.unique(np.sort(arr, axis=1), axis=0)
    assert g.edges.dtype == np.int64 and g.edges.shape == expect.shape
    assert np.array_equal(g.edges, expect)


def test_graph_sorts_canonical_edges_and_rejects_duplicates():
    g = graphs.Graph(n_nodes=4, edges=np.array([[2, 3], [1, 0], [0, 2]]), features=np.zeros((4, 1)))
    assert np.array_equal(g.edges, [[0, 1], [0, 2], [2, 3]])
    for dup in ([[0, 1], [1, 2], [1, 0]], [[0, 1], [0, 1]]):
        with pytest.raises(graphs.GraphFormatError, match="duplicate edge"):
            graphs.Graph(n_nodes=3, edges=np.array(dup), features=np.zeros((3, 1)))
    with pytest.raises(graphs.GraphFormatError, match="out of range"):
        graphs.make_graph(3, [(0, 3)], np.zeros((3, 1)))


@pytest.mark.skipif("ADAMORE_CORA" not in os.environ, reason="set ADAMORE_CORA to a Cora-format directory")
def test_load_cora_statistics():
    g = graphs.load_graph(os.environ["ADAMORE_CORA"])
    assert g.n_nodes == 2708
    assert g.n_edges == 5278
    assert g.feat_dim == 1433
    assert g.n_classes == 7
    assert abs(graphs.mean_edge_homophily(g) - 0.81) < 0.01


# ---------------------------------------------------------------------------
# normalization

def path2():
    return _graph_from_adj(np.array([[0.0, 1.0], [1.0, 0.0]]))


def triangle():
    return _graph_from_adj(1.0 - np.eye(3))


def test_normalize_two_node_path():
    a_tilde = graphs.normalize(path2())
    assert np.allclose(a_tilde.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_normalize_isolated_node():
    g = graphs.make_graph(1, np.zeros((0, 2)), np.ones((1, 1)))
    assert np.array_equal(graphs.normalize(g).toarray(), [[1.0]])
    assert np.array_equal(self_looped(g)[1], g.degrees() + 1)


def test_unit_rows_floor_keeps_zero_rows_and_zero_width():
    """A zero row stays zero under the floor, and a matrix without columns
    passes through."""
    got = graphs.unit_rows(np.array([[0.0, 0.0], [0.0, -2.0]]), 1e-12)
    assert np.array_equal(got, [[0.0, 0.0], [0.0, -1.0]])
    assert graphs.unit_rows(np.zeros((3, 0)), 1e-12).shape == (3, 0)


def _walk_matrix(g, a_tilde):
    """D^-1 (A+I) = D^-1/2 A~ D^1/2 from the A~ normalize returns."""
    d = np.sqrt(self_looped(g)[1])
    return a_tilde.toarray() / d[:, None] * d[None, :]


def test_normalize_triangle_walk_matrix():
    g = triangle()
    assert np.allclose(_walk_matrix(g, graphs.normalize(g)), np.full((3, 3), 1.0 / 3.0),
                       atol=1e-12)


def test_normalize_invariants_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        adj = random_adjacency(rng, n)
        g = _graph_from_adj(adj)
        a_tilde = graphs.normalize(g)
        _, d_hat = self_looped(g)
        walk = _walk_matrix(g, a_tilde)
        assert np.allclose(walk.sum(axis=1), 1.0, atol=1e-12)
        at = a_tilde.toarray()
        assert np.allclose(at, at.T, atol=1e-12)
        assert (d_hat >= 1.0).all()
        # de-normalization reconstructs A+I
        rebuilt = np.sqrt(d_hat)[:, None] * at * np.sqrt(d_hat)[None, :]
        assert np.allclose(rebuilt, adj + np.eye(n), atol=1e-10)
        assert np.allclose(at, dense_sym_norm(adj), atol=1e-12)
        assert np.allclose(walk, dense_walk_norm(adj), atol=1e-12)


# ---------------------------------------------------------------------------
# structural embeddings

def test_structural_embedding_isolated_node():
    g = graphs.make_graph(1, np.zeros((0, 2)), np.ones((1, 1)))
    emb = graphs.structural_embeddings(graphs.normalize(g), d_s=4)
    assert np.array_equal(emb, [[1.0, 1.0, 1.0, 1.0]])


def test_structural_embedding_two_node_path():
    emb = graphs.structural_embeddings(graphs.normalize(path2()), d_s=2)
    assert np.allclose(emb[0], [0.5, 0.5], atol=1e-15)


def test_structural_embedding_triangle():
    emb = graphs.structural_embeddings(graphs.normalize(triangle()), d_s=3)
    assert np.allclose(emb, 1.0 / 3.0, atol=1e-15)


def test_structural_embedding_reads_a_matrix_with_repeated_entries():
    """Each entry stored as two halves gives the summed matrix's values."""
    a = graphs.normalize(triangle())
    halves = sps.csr_matrix((np.repeat(a.data / 2, 2), np.repeat(a.indices, 2), 2 * a.indptr),
                            shape=a.shape)
    assert not halves.has_canonical_format
    assert np.array_equal(graphs.structural_embeddings(halves, d_s=3),
                          graphs.structural_embeddings(a, d_s=3))
    with pytest.raises(ValueError):
        graphs.structural_embeddings(a, block=0)


def test_structural_embedding_first_step_is_inverse_degree():
    rng = np.random.default_rng(5)
    adj = random_adjacency(rng, 9)
    g = _graph_from_adj(adj)
    emb = graphs.structural_embeddings(graphs.normalize(g), d_s=3)
    assert np.allclose(emb[:, 0], 1.0 / self_looped(g)[1], atol=1e-15)
    assert (emb >= 0.0).all() and (emb <= 1.0).all()


def test_structural_embedding_matches_dense_powers():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 20))
        adj = random_adjacency(rng, n)
        g = _graph_from_adj(adj)
        emb = graphs.structural_embeddings(graphs.normalize(g), d_s=6, block=3)
        t = dense_walk_norm(adj)
        cur = np.eye(n)
        for p in range(6):
            cur = t @ cur
            assert np.allclose(emb[:, p], np.diag(cur), atol=1e-12)


@pytest.mark.parametrize("d_s", [1, 3, 6, 7])
def test_structural_embedding_half_powers_match_dense_powers(d_s):
    """Odd and even d_s, with a block size that does not divide n."""
    rng = np.random.default_rng(23 + d_s)
    adj = random_adjacency(rng, 11, p=0.3)
    adj[10, :] = adj[:, 10] = 0.0          # one isolated node
    emb = graphs.structural_embeddings(graphs.normalize(_graph_from_adj(adj)),
                                       d_s=d_s, block=4)
    t = dense_walk_norm(adj)
    expect = np.stack([np.diag(np.linalg.matrix_power(t, p))
                       for p in range(1, d_s + 1)], axis=1)
    assert emb.shape == (11, d_s)
    assert np.allclose(emb, expect, rtol=0.0, atol=1e-12)


def _serial_probes(a, d_s: int, block: int) -> np.ndarray:
    """The probe blocks run one after another, as the reference."""
    n = a.shape[0]
    s = np.zeros((n, d_s))
    for start in range(0, n, block):
        stop = min(start + block, n)
        cur = np.zeros((n, stop - start))
        cur[np.arange(start, stop), np.arange(stop - start)] = 1.0
        for p in range(1, d_s + 1):
            if p % 2:
                lo, cur = cur, a @ cur
            else:
                lo = cur
            s[start:stop, p - 1] = np.einsum("ij,ij->j", lo, cur)
    return s


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("n, block", [(13, 32), (50, 16), (9, 1), (40, 40)])
def test_structural_embedding_threads_match_serial_loop(monkeypatch, cpus, n, block):
    """Any thread count gives the serial loop's bits: n < block, a ragged
    last block, one-probe blocks, one block, an isolated node. At most one
    thread per usable CPU and per block is started."""
    started = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(graphs, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(graphs, "ThreadPoolExecutor", Recording)
    rng = np.random.default_rng(100 * n + block)
    adj = random_adjacency(rng, n, p=0.3)
    adj[n - 1, :] = adj[:, n - 1] = 0.0
    a_tilde = graphs.normalize(_graph_from_adj(adj))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        emb = graphs.structural_embeddings(a_tilde, d_s=7, block=block)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(emb, _serial_probes(a_tilde, 7, block))
    threads = min(cpus, -(-n // block))
    assert started == ([threads] if threads > 1 else [])


@pytest.mark.parametrize("d_s", [1, 2, 5])
@pytest.mark.parametrize("block", [1, 3, 64, None], ids=["1", "3", "64", "default"])
def test_structural_embedding_every_block_width_matches_serial_probes(d_s, block):
    """Each width, the default rule's (436 probes) included, gives the old
    algorithm's bits on 601 nodes: a ragged last block, an isolated node."""
    n = 601
    adj = random_adjacency(np.random.default_rng(3), n, p=0.02)
    adj[n - 1, :] = adj[:, n - 1] = 0.0
    a_tilde = graphs.normalize(_graph_from_adj(adj, feat=np.ones((n, 1))))
    width = block or graphs._PROBE_BYTES // (8 * n)
    assert width == 1 or n % width
    emb = graphs.structural_embeddings(a_tilde, d_s=d_s, block=block)
    assert np.array_equal(emb, _serial_probes(a_tilde, d_s, width))


def test_structural_embedding_small_graph_is_one_block_on_this_thread(monkeypatch):
    """n = 200 is one 200-probe block whatever the CPU count: no thread starts."""
    monkeypatch.setattr(graphs, "usable_cpus", lambda: 8)
    monkeypatch.setattr(graphs, "ThreadPoolExecutor", None)    # would fail if called
    operands = []
    product = graphs.engine._csr_matmul

    def recording(indptr, cols, vals, n_cols, x, out=None):
        operands.append(x.shape)
        return product(indptr, cols, vals, n_cols, x, out=out)

    monkeypatch.setattr(graphs.engine, "_csr_matmul", recording)
    a_tilde = graphs.normalize(graphs.gen_sbm(100, 2, 0.5, 0.05, seed=0))
    emb = graphs.structural_embeddings(a_tilde, d_s=8)
    assert operands == [(200, 200)] * 3
    assert np.array_equal(emb, _serial_probes(a_tilde, 8, 200))


def test_structural_embedding_peak_memory_is_two_probe_buffers(monkeypatch):
    """On one CPU the traced peak is this thread's two buffers of
    ``_PROBE_BYTES``, the n x d_s output and the block's index arrays,
    whatever n: no n x block identity or fresh product per block."""
    monkeypatch.setattr(graphs, "usable_cpus", lambda: 1)
    a_tilde = graphs.normalize(graphs.gen_sbm(1000, 4, 0.01, 0.0005, seed=0))
    n, d_s = a_tilde.shape[0], 8
    tracemalloc.start()
    try:
        graphs.structural_embeddings(a_tilde, d_s=d_s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * graphs._PROBE_BYTES + 8 * n * d_s + 8 * a_tilde.nnz


# ---------------------------------------------------------------------------
# homophily and clustering

def test_homophily_star_same_label():
    adj = np.zeros((4, 4))
    adj[0, 1:] = 1
    adj += adj.T
    g = _graph_from_adj(adj, labels=np.zeros(4, dtype=int))
    h = graphs.local_homophily(g)
    assert h[0] == 1.0


def test_homophily_two_node_path_different_labels():
    g = _graph_from_adj(np.array([[0.0, 1.0], [1.0, 0.0]]), labels=np.array([0, 1]))
    assert np.array_equal(graphs.local_homophily(g), [0.0, 0.0])


def test_homophily_isolated_sentinel():
    g = graphs.make_graph(2, np.zeros((0, 2)), np.eye(2), labels=np.array([0, 1]))
    assert np.array_equal(graphs.local_homophily(g), [-1.0, -1.0])


def test_homophily_requires_labels():
    with pytest.raises(ValueError):
        graphs.local_homophily(path2())


def test_clustering_triangle_and_star():
    assert np.array_equal(graphs.clustering_coefficient(triangle()), [1.0, 1.0, 1.0])
    adj = np.zeros((4, 4))
    adj[0, 1:] = 1
    adj += adj.T
    assert graphs.clustering_coefficient(_graph_from_adj(adj))[0] == 0.0


def test_clustering_four_clique():
    g = _graph_from_adj(1.0 - np.eye(4))
    assert np.array_equal(graphs.clustering_coefficient(g), np.ones(4))


def test_statistics_match_bruteforce_oracles():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        adj = random_adjacency(rng, n)
        labels = rng.integers(0, 3, size=n)
        g = _graph_from_adj(adj, labels=labels)
        # brute-force homophily
        h_expect = np.full(n, -1.0)
        for i in range(n):
            nbrs = np.nonzero(adj[i])[0]
            if nbrs.size:
                h_expect[i] = np.mean(labels[nbrs] == labels[i])
        assert np.allclose(graphs.local_homophily(g), h_expect, atol=1e-12)
        # brute-force clustering: count triangles with a triple loop
        c_expect = np.zeros(n)
        for i in range(n):
            deg = int(adj[i].sum())
            if deg < 2:
                continue
            tri = 0
            for j in range(n):
                for k in range(j + 1, n):
                    if adj[i, j] and adj[i, k] and adj[j, k]:
                        tri += 1
            c_expect[i] = 2.0 * tri / (deg * (deg - 1))
        assert np.allclose(graphs.clustering_coefficient(g), c_expect, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 14),
       pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=60))
@example(n=1, pairs=[])
@example(n=6, pairs=[])
@example(n=6, pairs=[(0, 1), (1, 2), (0, 2)])
def test_clustering_equals_set_intersection_loop(n, pairs):
    """The sparse-product triangle count is exact: equal to the per-edge
    set intersections, isolated nodes and empty edge sets included."""
    g = graphs.make_graph(n, [(u % n, v % n) for u, v in pairs], np.zeros((n, 1)))
    assert np.array_equal(graphs.clustering_coefficient(g),
                          clustering_by_set_intersections(g))


# ---------------------------------------------------------------------------
# stochastic block model

def test_sbm_disjoint_triangles():
    g = graphs.gen_sbm(3, 2, 1.0, 0.0, feat_dim=4, seed=0)
    assert g.n_edges == 6
    assert graphs.mean_edge_homophily(g) == 1.0
    assert np.array_equal(graphs.clustering_coefficient(g), np.ones(6))


def test_sbm_complete_bipartite():
    g = graphs.gen_sbm(3, 2, 0.0, 1.0, feat_dim=4, seed=0)
    assert g.n_edges == 9
    assert graphs.mean_edge_homophily(g) == 0.0


def test_sbm_expected_edge_count():
    g = graphs.gen_sbm(100, 2, 0.5, 0.05, feat_dim=8, seed=7)
    n_in_pairs = 2 * (100 * 99) // 2
    n_out_pairs = 100 * 100
    expect = 0.5 * n_in_pairs + 0.05 * n_out_pairs
    var = n_in_pairs * 0.5 * 0.5 + n_out_pairs * 0.05 * 0.95
    assert abs(g.n_edges - expect) < 4.0 * np.sqrt(var)


def test_sbm_deterministic_and_feature_signal():
    a = graphs.gen_sbm(10, 3, 0.6, 0.1, feat_dim=5, feat_signal=2.0, seed=11)
    b = graphs.gen_sbm(10, 3, 0.6, 0.1, feat_dim=5, feat_signal=2.0, seed=11)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)
    # block means are orthogonal with the requested norm
    for c in range(3):
        mean = a.features[a.labels == c].mean(axis=0)
        assert abs(mean[c] - 2.0) < 1.0


@pytest.mark.parametrize("pair_block", [1, 64, graphs._PAIR_BLOCK])
@pytest.mark.parametrize("args", [
    (100, 2, 0.5, 0.05, 16, 0), (50, 3, 0.3, 0.01, 8, 7), (40, 1, 0.2, 0.9, 4, 1),
    (1, 5, 0.5, 0.5, 5, 2), (1, 1, 0.5, 0.5, 4, 3), (6, 3, 0.0, 0.0, 4, 4),
    (6, 3, 1.0, 1.0, 4, 5), (6, 3, 1.0, 0.0, 4, 6)])
def test_sbm_rows_in_blocks_match_all_pairs_draw(monkeypatch, pair_block, args):
    """Drawing the upper triangle a block of rows at a time is the stream of
    one all-pairs draw, for one-row blocks too."""
    monkeypatch.setattr(graphs, "_PAIR_BLOCK", pair_block)
    npb, k, p_in, p_out, feat_dim, seed = args
    g = graphs.gen_sbm(npb, k, p_in, p_out, feat_dim=feat_dim, seed=seed)
    edges, features, labels = sbm_all_pairs(npb, k, p_in, p_out, feat_dim=feat_dim, seed=seed)
    assert g.edges.dtype == np.int64 and g.edges.shape == edges.shape
    assert np.array_equal(g.edges, edges)
    assert np.array_equal(g.features, features)
    assert np.array_equal(g.labels, labels)


def test_sbm_validates_probabilities():
    with pytest.raises(ValueError):
        graphs.gen_sbm(3, 2, 1.5, 0.0)
    with pytest.raises(ValueError):
        graphs.gen_sbm(0, 2, 0.5, 0.1)


# ---------------------------------------------------------------------------
# splits

def test_split_sizes_unlabeled():
    g = graphs.make_graph(100, np.zeros((0, 2)), np.ones((100, 1)))
    sp = graphs.make_splits(g, (0.1, 0.1, 0.8), seed=0)
    assert (len(sp.train), len(sp.val), len(sp.test)) == (10, 10, 80)


def test_split_deterministic():
    g = graphs.gen_sbm(20, 2, 0.5, 0.1, feat_dim=4, seed=0)
    a = graphs.make_splits(g, (0.2, 0.2, 0.6), seed=5)
    b = graphs.make_splits(g, (0.2, 0.2, 0.6), seed=5)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.test, b.test)


def test_split_stratified_counts():
    g = graphs.gen_sbm(50, 2, 0.5, 0.1, feat_dim=4, seed=0)
    sp = graphs.make_splits(g, (0.1, 0.1, 0.8), seed=1)
    for c in range(2):
        assert (g.labels[sp.train] == c).sum() == 5


def test_split_rejects_starved_class():
    g = graphs.make_graph(10, np.zeros((0, 2)), np.ones((10, 1)),
                          labels=np.array([0] * 9 + [1]))
    with pytest.raises(ValueError):
        graphs.make_splits(g, (0.1, 0.1, 0.8), seed=0)
