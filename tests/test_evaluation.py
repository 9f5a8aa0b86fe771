import itertools

import numpy as np
import pytest

from adamore import engine, evaluation, graphs

from _oracles import sq_dists_broadcast


def featureless_graph(n, labels):
    return graphs.make_graph(n, np.zeros((0, 2)), np.ones((n, 1)), labels=labels)


# ---------------------------------------------------------------------------
# linear probe

def test_probe_separable_embeddings():
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 50)
    emb = np.where(labels[:, None] == 0, -3.0, 3.0) + 0.1 * rng.normal(size=(100, 4))
    g = featureless_graph(100, labels)
    res = evaluation.linear_probe(emb, labels, g, repeats=3, seed=0)
    assert res.mean == 1.0
    assert res.std == 0.0


def test_probe_random_labels_near_chance():
    rng = np.random.default_rng(1)
    n = 1250
    labels = np.array([0, 1] * (n // 2))
    emb = rng.normal(size=(n, 6))
    g = featureless_graph(n, labels)
    res = evaluation.linear_probe(emb, labels, g, repeats=1, seed=0)
    assert abs(res.mean - 0.5) < 0.05


def test_probe_constant_embeddings_predict_majority():
    labels = np.array([0] * 70 + [1] * 30)
    emb = np.ones((100, 3))
    g = featureless_graph(100, labels)
    res = evaluation.linear_probe(emb, labels, g, repeats=2, seed=3)
    # constant predictor: accuracy equals the majority-class test frequency
    assert abs(res.mean - 0.7) < 0.05


def test_probe_rejects_single_class_train():
    labels = np.zeros(20, dtype=int)
    split = graphs.SplitSpec(train=np.arange(5), val=np.arange(5, 8), test=np.arange(8, 20))
    with pytest.raises(ValueError):
        evaluation.probe_once(np.ones((20, 2)), labels, split)


# ---------------------------------------------------------------------------
# clustering metrics

def test_kmeans_two_far_blobs():
    rng = np.random.default_rng(2)
    labels = np.repeat([0, 1], 40)
    emb = np.where(labels[:, None] == 0, -10.0, 10.0) + rng.normal(size=(80, 3))
    res = evaluation.kmeans_eval(emb, labels, k=2)
    assert res.acc == 1.0 and res.nmi == 1.0 and res.ari == 1.0


def test_kmeans_random_labels_ari_near_zero():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(400, 4))
    labels = rng.integers(0, 2, size=400)
    res = evaluation.kmeans_eval(emb, labels, k=2)
    assert abs(res.ari) < 0.05


def test_kmeans_k1_nmi_zero_by_convention():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(30, 3))
    labels = rng.integers(0, 3, size=30)
    res = evaluation.kmeans_eval(emb, labels, k=1)
    assert res.nmi == 0.0


def test_kmeans_rejects_k_above_distinct_points():
    with pytest.raises(ValueError):
        evaluation.kmeans_eval(np.ones((10, 2)), np.zeros(10, dtype=int), k=2)


def brute_force_rand_metrics(a, b):
    """Pairwise-agreement ARI and direct-definition NMI oracles."""
    n = a.shape[0]
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    iu = np.triu_indices(n, 1)
    n11 = int((same_a[iu] & same_b[iu]).sum())
    n00 = int((~same_a[iu] & ~same_b[iu]).sum())
    n10 = int((same_a[iu] & ~same_b[iu]).sum())
    n01 = int((~same_a[iu] & same_b[iu]).sum())
    total = n * (n - 1) / 2
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = 0.5 * ((n11 + n10) + (n11 + n01))
    ari = (n11 - expected) / (max_index - expected) if max_index != expected else 0.0
    # NMI by looping over the joint distribution
    mi = 0.0
    for ca in np.unique(a):
        for cb in np.unique(b):
            pab = np.mean((a == ca) & (b == cb))
            if pab > 0:
                mi += pab * np.log(pab / (np.mean(a == ca) * np.mean(b == cb)))
    ha = -sum(p * np.log(p) for p in [np.mean(a == c) for c in np.unique(a)])
    hb = -sum(p * np.log(p) for p in [np.mean(b == c) for c in np.unique(b)])
    nmi = mi / (0.5 * (ha + hb)) if ha > 0 and hb > 0 else 0.0
    return ari, nmi


def test_nmi_ari_match_bruteforce_formulas():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(10, 50))
        a = rng.integers(0, int(rng.integers(2, 5)), size=n)
        b = rng.integers(0, int(rng.integers(2, 5)), size=n)
        ari_bf, nmi_bf = brute_force_rand_metrics(a, b)
        assert abs(evaluation.ari_score(a, b) - ari_bf) < 1e-10
        assert abs(evaluation.nmi_score(a, b) - nmi_bf) < 1e-10
        assert -1.0 - 1e-12 <= evaluation.ari_score(a, b) <= 1.0 + 1e-12
        assert 0.0 <= evaluation.nmi_score(a, b) <= 1.0 + 1e-12


def test_assignment_optimality_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        n = 40
        pred = rng.integers(0, k, size=n)
        labels = rng.integers(0, k, size=n)
        got = evaluation.clustering_accuracy(pred, labels)
        table = evaluation.contingency_table(pred, labels)
        best = max(
            sum(table[i, perm[i]] for i in range(min(table.shape[0], k)))
            for perm in itertools.permutations(range(table.shape[1])))
        assert abs(got - best / n) < 1e-12


# ---------------------------------------------------------------------------
# prototype few-shot

def test_prototype_query_at_support_point_is_correct():
    emb = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.1], [9.0, 9.0]])
    pred = evaluation.prototype_classify(emb, support=np.array([0, 1]),
                                         support_labels=np.array([0, 1]),
                                         queries=np.array([2, 3]), n_classes=2)
    assert list(pred) == [0, 1]


def test_prototype_tie_goes_to_lowest_class():
    emb = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    pred = evaluation.prototype_classify(emb, support=np.array([0, 1]),
                                         support_labels=np.array([0, 1]),
                                         queries=np.array([2]), n_classes=2)
    assert pred[0] == 0


def test_prototype_missing_support_class():
    emb = np.zeros((4, 2))
    with pytest.raises(ValueError):
        evaluation.prototype_classify(emb, support=np.array([0, 1]),
                                      support_labels=np.array([0, 0]),
                                      queries=np.array([2]), n_classes=2)


def test_prototype_gaussian_threshold_oracle():
    rng = np.random.default_rng(7)
    n_per = 3000
    labels = np.repeat([0, 1], n_per)
    emb = np.zeros((2 * n_per, 2))
    emb[:n_per, 0] = -1.0 + rng.standard_normal(n_per)
    emb[n_per:, 0] = 1.0 + rng.standard_normal(n_per)
    # exact prototypes at (-1, 0) and (1, 0)
    protos = np.array([[-1.0, 0.0], [1.0, 0.0]])
    d2 = ((emb[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    acc = (d2.argmin(axis=1) == labels).mean()
    from math import erf, sqrt
    phi1 = 0.5 * (1 + erf(1 / sqrt(2)))
    assert abs(acc - phi1) < 0.05


def test_prototype_fewshot_protocol():
    rng = np.random.default_rng(8)
    labels = np.repeat([0, 1, 2], 30)
    emb = np.eye(3)[labels] * 5.0 + 0.3 * rng.normal(size=(90, 3))
    res = evaluation.prototype_fewshot(emb, labels, k=2, n_tasks=20, seed=0)
    assert len(res.accuracies) == 20
    assert res.mean > 0.95
    rerun = evaluation.prototype_fewshot(emb, labels, k=2, n_tasks=20, seed=0)
    assert res == rerun


def test_prototype_all_support_equals_centroid_rule():
    rng = np.random.default_rng(9)
    labels = np.repeat([0, 1], 25)
    emb = rng.normal(size=(50, 4)) + np.where(labels[:, None] == 0, -1.0, 1.0)
    support = np.arange(50)
    queries = np.arange(50)
    pred = evaluation.prototype_classify(emb, support, labels, queries, 2)
    centroids = np.array([emb[labels == c].mean(axis=0) for c in range(2)])
    d2 = ((emb[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(pred, d2.argmin(axis=1))


def test_sq_dists_blocks_equal_the_broadcast(monkeypatch):
    """Row blocks give the bits of the all-rows broadcast: with 4-row blocks
    (the last one ragged) and with the default, cache-sized ones."""
    rng = np.random.default_rng(6)
    x, centers = rng.normal(size=(50, 7)), rng.normal(size=(3, 7))
    wide, protos = rng.normal(size=(300, 256)), rng.normal(size=(4, 256))
    assert engine.block_rows(8 * protos.size) < wide.shape[0]
    assert np.array_equal(evaluation._sq_dists(wide, protos), sq_dists_broadcast(wide, protos))
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 4 * 8 * centers.size)
    assert np.array_equal(evaluation._sq_dists(x, centers), sq_dists_broadcast(x, centers))
    labels = np.repeat(np.arange(3), [10, 20, 20])
    support = np.array([0, 1, 10, 11, 30, 31])
    protos = np.stack([x[support[2 * c:2 * c + 2]].mean(axis=0) for c in range(3)])
    queries = np.setdiff1d(np.arange(50), support)
    pred = evaluation.prototype_classify(x, support, labels[support], queries, 3)
    assert np.array_equal(pred, sq_dists_broadcast(x[queries], protos).argmin(axis=1))
