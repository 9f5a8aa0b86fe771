"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Trend criteria use the
median over five seeds; tolerances are stated inline next to each assert.
"""

import os
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from adamore import (cli, evaluation, experiments, experts, filters,
                     gating, graphs, trainer)
from adamore.engine import Tensor
from adamore.trainer import TrainConfig

from _oracles import check_grad, dense_walk_norm, random_adjacency
from test_engine import OP_CASES

SEEDS = (0, 1, 2, 3, 4)

# the acceptance SBM (criteria 8, 9, 12) and the harder variant whose probe
# accuracy has headroom to move (criteria 10, 11)
SANITY_SBM = dict(n_per_block=100, k_blocks=2, p_in=0.5, p_out=0.05,
                  feat_dim=16, feat_signal=2.0)
TREND_SBM = dict(n_per_block=100, k_blocks=2, p_in=0.3, p_out=0.1,
                 feat_dim=16, feat_signal=0.8)

SANITY_CFG = dict(epochs=50, hidden=128, seed=0)   # lr stays the 3e-5 default
TREND_CFG = dict(epochs=30, lr=0.01, hidden=128, seed=0)
STABILITY_CFG = dict(epochs=90, lr=0.08, mask_ratio=0.5, hidden=128, seed=0)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def sanity_graph():
    return graphs.gen_sbm(seed=0, **SANITY_SBM)


@pytest.fixture(scope="module")
def trend_graph():
    return graphs.gen_sbm(seed=0, **TREND_SBM)


@pytest.fixture(scope="module")
def trend_oracle_row(trend_graph):
    """(row, training seconds) of the 0.9/0.1 oracle over SEEDS: criterion 10's
    first row and criterion 11's noise-0 row, whose weights are bit-equal
    (test_experiments pins that), trained once for both."""
    start = time.time()
    row, = experiments.distinctiveness_study(trend_graph, TrainConfig(**TREND_CFG),
                                             pairs=((0.9, 0.1),), seeds=SEEDS)
    return row, time.time() - start


@pytest.fixture(scope="module")
def sanity_states(sanity_graph):
    cfg = TrainConfig(**SANITY_CFG)
    return {seed: trainer.train(sanity_graph, replace(cfg, seed=seed))
            for seed in SEEDS}


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    start = time.time()
    worst_op = 0.0
    for name, case in sorted(OP_CASES.items()):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        params, loss_fn = case(rng)
        worst_op = max(worst_op, check_grad(loss_fn, params, seed=11, n_entries=4))

    worst_e2e = 0.0
    for trial in range(5):
        g = graphs.gen_sbm(8, 2, 0.6, 0.2, feat_dim=5, seed=trial)
        cfg = TrainConfig(epochs=2, lr=0.05, hidden=6, d_s=3, edge_hidden=6,
                          n_exp=2, top_k=1, seed=trial)
        state = trainer.init_state(g, cfg)
        for _ in range(2):  # move biases off exact relu kinks
            trainer.train_epoch(state)
        model = state.model
        plan = trainer.sample_mask(np.random.default_rng(trial), g.n_nodes, 0.5)

        def masked_forward(alpha_override=None):
            return trainer.full_forward(model, np.random.default_rng(500 + trial), plan,
                                        alpha_override=alpha_override)

        alpha0 = masked_forward().alpha

        def loss_fn():
            fwd = masked_forward(alpha0)
            return trainer.masked_objective(fwd, model, plan, cfg, epoch=0)[0]

        probe = [model.gate.w1, model.banks[0].proj_w, model.banks[1].gate_w,
                 model.pools[0].params[0]["w"], model.pools[0].gammas[0],
                 model.decoder.w2, model.mask_token]
        worst_e2e = max(worst_e2e, check_grad(loss_fn, probe, seed=trial,
                                              n_entries=3))
    elapsed = time.time() - start
    ok = worst_op <= 1e-4 and worst_e2e <= 1e-4 and elapsed < 30
    report(1, "gradients match central finite differences (rel err <= 1e-4)",
           ok, f"ops {worst_op:.2e}, end-to-end {worst_e2e:.2e}, {elapsed:.1f}s")


def _mc_return_frequencies(g, d_s, walks, seed, chunk=250_000):
    """Independent Monte-Carlo estimate of p-step return probabilities."""
    t_cum = np.cumsum(dense_walk_norm(_dense_adj(g)), axis=1)
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    freq = np.zeros((n, d_s))
    starts = np.repeat(np.arange(n), walks)
    pos = starts.copy()
    for p in range(d_s):
        for lo in range(0, pos.shape[0], chunk):
            hi = min(lo + chunk, pos.shape[0])
            u = rng.random(hi - lo)
            pos[lo:hi] = (t_cum[pos[lo:hi]] < u[:, None]).sum(axis=1)
        returned = pos == starts
        freq[:, p] = np.bincount(starts[returned], minlength=n) / walks
    return freq


def _dense_adj(g):
    a = np.zeros((g.n_nodes, g.n_nodes))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def _random_graph(rng, n_max=20, n_min=2):
    n = int(rng.integers(n_min, n_max + 1))
    return graphs.make_graph(n, np.stack(np.nonzero(
        np.triu(random_adjacency(rng, n), 1)), axis=1), np.eye(n))


def test_criterion_02_structural_embedding_oracles():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        g = _random_graph(rng)
        emb = graphs.structural_embeddings(graphs.normalize(g), d_s=6, block=7)
        t = dense_walk_norm(_dense_adj(g))
        cur = np.eye(g.n_nodes)
        for p in range(6):
            cur = t @ cur
            worst = max(worst, float(np.abs(emb[:, p] - np.diag(cur)).max()))
    dense_ok = worst <= 1e-12

    walks = 100_000
    mc_ok = True
    for trial in range(5):
        g = _random_graph(np.random.default_rng(100 + trial), n_max=10)
        emb = graphs.structural_embeddings(graphs.normalize(g), d_s=4)
        freq = _mc_return_frequencies(g, 4, walks, seed=trial)
        sigma = np.sqrt(emb * (1.0 - emb) / walks)
        mc_ok = mc_ok and bool((np.abs(freq - emb) <= 3.0 * sigma + 1e-12).all())
    elapsed = time.time() - start
    ok = dense_ok and mc_ok and elapsed < 60
    report(2, "structural embeddings match dense powers (1e-12) and "
              "Monte-Carlo returns (3 sigma)", ok,
           f"dense err {worst:.1e}, {elapsed:.1f}s")


def test_criterion_03_view_complementarity():
    start = time.time()
    g = graphs.gen_sbm(20, 2, 0.5, 0.2, feat_dim=4, seed=1)
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(1000):
        w = rng.random((g.n_edges, 1))
        a_coh, a_disp = gating.build_views(g, Tensor(w))
        total = a_coh.weights.values + a_disp.weights.values
        exact = exact and bool((total == 1.0).all())
    # dense check on one draw: A_coh + A_disp reconstructs A entrywise
    w = rng.random((g.n_edges, 1))
    a_coh, a_disp = gating.build_views(g, Tensor(w))
    dense = np.zeros((g.n_nodes, g.n_nodes))
    for (u, v), wc, wd in zip(g.edges, a_coh.weights.values[:g.n_edges, 0],
                              a_disp.weights.values[:g.n_edges, 0]):
        dense[u, v] = dense[v, u] = wc + wd
    exact = exact and bool((dense == _dense_adj(g)).all())
    elapsed = time.time() - start
    report(3, "cohesive + dispersive views equal the adjacency exactly",
           exact and elapsed < 5, f"{elapsed:.1f}s")


def test_criterion_04_cka_properties():
    start = time.time()
    rng = np.random.default_rng(3)

    def cka(a, b):
        return experts.diversity_loss([a, b]).item()

    e = Tensor(rng.normal(size=(12, 6)))
    self_err = abs(cka(e, e) - 1.0)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    inv_err = abs(cka(e, Tensor(2.5 * e.values @ q)) - 1.0)
    zero_val = cka(Tensor(np.array([[1.0], [-1.0], [0.0]])),
                   Tensor(np.array([[0.0], [0.0], [1.0]])))
    sym_err = 0.0
    for _ in range(20):
        a = Tensor(rng.normal(size=(9, 4)))
        b = Tensor(rng.normal(size=(9, 5)))
        sym_err = max(sym_err, abs(cka(a, b) - cka(b, a)))
    elapsed = time.time() - start
    ok = (self_err <= 1e-9 and inv_err <= 1e-6 and zero_val <= 1e-9
          and sym_err <= 1e-12 and elapsed < 5)
    report(4, "CKA self=1, invariances, zero pair, symmetry", ok,
           f"self {self_err:.1e}, inv {inv_err:.1e}, zero {zero_val:.1e}, "
           f"sym {sym_err:.1e}")


def _random_regular_graph(rng, n, d):
    """Relabeled circulant: exactly d-regular."""
    edges = set()
    for i in range(n):
        for step in range(1, d // 2 + 1):
            edges.add(tuple(sorted((i, (i + step) % n))))
    if d % 2 == 1:
        for i in range(n // 2):
            edges.add(tuple(sorted((i, (i + n // 2) % n))))
    relabel = rng.permutation(n)
    pairs = [(relabel[u], relabel[v]) for u, v in edges]
    return graphs.make_graph(n, pairs, np.eye(n))


def test_criterion_05_spline_perfect_reconstruction():
    start = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    for n, d in ((10, 3), (12, 4), (16, 5), (20, 6)):
        g = _random_regular_graph(rng, n, d)
        assert set(g.degrees()) == {d}
        h = Tensor(rng.normal(size=(n, 5)))
        view = filters.raw_view(g)
        lp, hp = filters.spline_pair(view, h)
        worst = max(worst, float(np.abs(lp.values + hp.values - h.values).max()))
    elapsed = time.time() - start
    report(5, "spline pair reconstructs the input on d-regular graphs (1e-10)",
           worst <= 1e-10 and elapsed < 5, f"max err {worst:.1e}")


def test_criterion_06_load_balance_closed_forms():
    uniform = experts.RoutingStats(4, 1, np.full(4, 0.25),
                                   Tensor(np.full((1, 4), 0.25)))
    err_uniform = abs(experts.load_balance_loss(uniform).item() - 1.0)
    collapse = experts.RoutingStats(4, 1, np.array([1.0, 0, 0, 0]),
                                    Tensor(np.array([[1.0, 0, 0, 0]])))
    err_collapse = abs(experts.load_balance_loss(collapse).item() - 4.0)
    rng = np.random.default_rng(11)
    floor_ok = True
    for _ in range(1000):
        n_exp = int(rng.integers(2, 8))
        profile = np.bincount(rng.integers(0, n_exp, size=50),
                              minlength=n_exp) / 50.0
        stats = experts.RoutingStats(n_exp, 1, profile,
                                     Tensor(profile[None, :]))
        floor_ok = floor_ok and experts.load_balance_loss(stats).item() >= 1.0 - 1e-12
    ok = err_uniform <= 1e-10 and err_collapse <= 1e-10 and floor_ok
    report(6, "load balance: uniform=1, collapse=N, >=1 over random routings",
           ok, f"uniform err {err_uniform:.1e}, collapse err {err_collapse:.1e}")


def test_criterion_07_backbone_oracle_equivalence():
    rng = np.random.default_rng(13)
    worst = 0.0
    for trial in range(5):
        g = _random_graph(np.random.default_rng(40 + trial), n_max=20, n_min=6)
        feats = rng.normal(size=(g.n_nodes, 4))
        g = graphs.make_graph(g.n_nodes, g.edges, feats)
        emb = graphs.structural_embeddings(graphs.normalize(g), d_s=3)
        bank = experts.init_expert_bank("sgc", 3, top_k=3, feat_dim=4,
                                        d_s=3, d_e=5, rng=rng)
        w = rng.uniform(0.2, 0.8, size=(g.n_edges, 1))
        view = gating.build_views(g, Tensor(w))[0]
        h_b, _, _ = experts.backbone_forward(bank, Tensor(g.features), emb, view)

        # brute-force dense mixture oracle
        a = _dense_adj(g)
        aw = np.zeros_like(a)
        for (u, v), we in zip(g.edges, w[:, 0]):
            aw[u, v] = aw[v, u] = we
        aw += np.eye(g.n_nodes)
        deg = aw.sum(axis=1)
        at = aw / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]
        logits = (np.hstack([g.features, emb]) @ bank.gate_w.values
                  + bank.gate_b.values)
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = ex / ex.sum(axis=1, keepdims=True)
        expect = np.zeros((g.n_nodes, 5))
        cur = g.features
        for k in range(3):
            cur = at @ cur
            expect += probs[:, k:k + 1] * (cur @ bank.proj_w.values
                                           + bank.proj_b.values)
        worst = max(worst, float(np.abs(h_b.values - expect).max()))
    report(7, "top-K backbone with K=N equals dense softmax mixture (1e-10)",
           worst <= 1e-10, f"max err {worst:.1e}")


def test_criterion_08_sbm_sanity(sanity_graph, sanity_states):
    start = time.time()
    g = sanity_graph
    full, coh, disp = [], [], []
    for seed in SEEDS:
        state = sanity_states[seed]
        emb_full = trainer.embed(state)
        full.append(evaluation.linear_probe(emb_full, g.labels, g, repeats=3,
                                            seed=100 + seed).mean)
        emb_coh = trainer.embed(state, alpha_override=np.ones(g.n_nodes))
        coh.append(evaluation.linear_probe(emb_coh, g.labels, g, repeats=3,
                                           seed=100 + seed).mean)
        emb_disp = trainer.embed(state, alpha_override=np.zeros(g.n_nodes))
        disp.append(evaluation.linear_probe(emb_disp, g.labels, g, repeats=3,
                                            seed=100 + seed).mean)
    med_full = float(np.median(full))
    med_coh = float(np.median(coh))
    med_disp = float(np.median(disp))
    elapsed = time.time() - start
    ok = med_full >= 0.90 and med_full >= med_coh and med_full >= med_disp
    report(8, "SBM sanity: median probe >= 0.90 and full >= single-view arms",
           ok, f"full {med_full:.3f}, coh {med_coh:.3f}, disp {med_disp:.3f}, "
               f"{elapsed:.0f}s")


def test_criterion_09_stability(sanity_graph):
    start = time.time()
    cfg = TrainConfig(**STABILITY_CFG)
    rep = experiments.stability_bench(sanity_graph, cfg, seeds=SEEDS)
    elapsed = time.time() - start
    ok = (rep.volatility_ratio <= 0.5
          and rep.final_loss["backbone-residual"]
          <= rep.final_loss["naive-heterogeneous"]
          and elapsed < 300)
    report(9, "stability: volatility <= 0.5x naive and final loss <= naive's",
           ok, f"ratio {rep.volatility_ratio:.3f}, final "
               f"{rep.final_loss['backbone-residual']:.4f} vs "
               f"{rep.final_loss['naive-heterogeneous']:.4f}, {elapsed:.0f}s")


def test_criterion_10_oracle_weight_trend(trend_graph, trend_oracle_row):
    first, first_s = trend_oracle_row
    start = time.time()
    cfg = TrainConfig(**TREND_CFG)
    rows = [first, *experiments.distinctiveness_study(
        trend_graph, cfg, pairs=((0.7, 0.3), (0.5, 0.5)), seeds=SEEDS)]
    medians = [row["median_accuracy"] for row in rows]
    elapsed = time.time() - start + first_s     # the shared row's trainings count too
    ok = medians[0] >= medians[1] >= medians[2] and elapsed < 240
    report(10, "oracle distinctiveness trend is non-increasing", ok,
           " >= ".join(f"{m:.3f}" for m in medians) + f", {elapsed:.0f}s")


def test_criterion_11_noise_robustness_trend(trend_graph, trend_oracle_row):
    noise_free, noise_free_s = trend_oracle_row
    start = time.time()
    cfg = TrainConfig(**TREND_CFG)
    rows = [noise_free, *experiments.noise_robustness(trend_graph, cfg, ratios=(0.2, 0.5, 0.8),
                                                      stddev=0.5, seeds=SEEDS)]
    medians = [row["median_accuracy"] for row in rows]
    elapsed = time.time() - start + noise_free_s
    ok = all(a >= b for a, b in zip(medians, medians[1:]))
    report(11, "noise-robustness trend is non-increasing", ok,
           " >= ".join(f"{m:.3f}" for m in medians) + f", {elapsed:.0f}s")


def test_criterion_12_fewshot_protocol(sanity_graph, sanity_states):
    g = sanity_graph
    emb = trainer.embed(sanity_states[0])
    chance = 1.0 / g.n_classes
    medians = []
    for k in (1, 2, 3):
        res = evaluation.prototype_fewshot(emb, g.labels, k=k, n_tasks=100, seed=5)
        medians.append(float(np.median(res.accuracies)))
    ok = (medians[0] >= chance + 0.20
          and medians[0] <= medians[1] <= medians[2])
    report(12, "few-shot: 1-shot beats chance by 20 points, non-decreasing in k",
           ok, f"k=1..3 medians {medians[0]:.3f}, {medians[1]:.3f}, "
               f"{medians[2]:.3f}, chance {chance:.2f}")


def test_criterion_13_motivation_direction():
    start = time.time()
    hetero_margins, homo_margins = [], []
    for seed in SEEDS:
        hetero = graphs.gen_sbm(50, 4, 0.01, 0.08, feat_dim=8, feat_signal=0.8,
                                seed=3 + seed)
        rep = experiments.motivation_analysis(hetero, seed=seed)
        hetero_margins.append(rep["homophily"]["lapsgc"][0]
                              - rep["homophily"]["sgc"][0])
        homo = graphs.gen_sbm(50, 4, 0.12, 0.01, feat_dim=8, feat_signal=0.8,
                              seed=3 + seed)
        rep = experiments.motivation_analysis(homo, seed=seed)
        top = rep["homophily"]["n_buckets"] - 1
        homo_margins.append(rep["homophily"]["sgc"][top]
                            - rep["homophily"]["lapsgc"][top])
    het = float(np.median(hetero_margins))
    hom = float(np.median(homo_margins))
    elapsed = time.time() - start
    report(13, "motivation: high-pass wins lowest-homophily bucket, mirrored",
           het > 0 and hom > 0, f"margins hetero {het:.3f}, homo {hom:.3f}, "
                                f"{elapsed:.0f}s")


def test_supplementary_finetune_direction(sanity_graph, sanity_states):
    """Measured check for the fine-tune protocol on the acceptance SBM.

    Strict monotone improvement of prototype accuracy does not reproduce at
    desk scale (the deltas are statistical ties, see the decisions ledger);
    this asserts the tie-level contract plus the freeze mechanics.
    """
    g = sanity_graph
    deltas = []
    for seed in SEEDS:
        state = sanity_states[seed]
        pre = evaluation.prototype_fewshot(trainer.embed(state), g.labels,
                                           k=1, n_tasks=100, seed=7).mean
        support = np.sort(np.concatenate([
            np.random.default_rng(100 + seed).choice(
                np.flatnonzero(g.labels == c), size=1)
            for c in range(g.n_classes)]))
        frozen_before = [p.values.copy() for p in state.model.main_parameters()]
        trainer.finetune_fewshot(state, g, support,
                                 replace(TrainConfig(**SANITY_CFG),
                                         seed=seed, finetune_epochs=30))
        for p, old in zip(state.model.main_parameters(), frozen_before):
            assert np.array_equal(p.values, old)
        post = evaluation.prototype_fewshot(trainer.embed(state), g.labels,
                                            k=1, n_tasks=100, seed=7).mean
        deltas.append(post - pre)
    median = float(np.median(deltas))
    print(f"[INFO] supplementary fine-tune check: median prototype delta "
          f"{median:+.4f} (tie-level contract >= -0.01)")
    assert median >= -0.01


CORA_ENV = "ADAMORE_CORA"


@pytest.mark.skipif(CORA_ENV not in os.environ,
                    reason=f"set {CORA_ENV} to a Cora-format graph directory")
def test_criterion_14_real_data_smoke():
    start = time.time()
    g = graphs.load_graph(os.environ[CORA_ENV])
    cfg = TrainConfig(epochs=200, hidden=128, seed=0)
    state = trainer.train(g, cfg)
    emb = trainer.embed(state)
    res = evaluation.linear_probe(emb, g.labels, g, repeats=3, seed=0)
    elapsed = time.time() - start
    report(14, "real-data smoke: probe accuracy >= 0.75",
           res.mean >= 0.75 and elapsed < 600,
           f"accuracy {res.mean:.3f}, {elapsed:.0f}s")


def test_criterion_15_determinism(tmp_path):
    data = tmp_path / "sbm"
    assert cli.main(["gen-sbm", "--blocks", "2", "--per-block", "20",
                     "--p-in", "0.5", "--p-out", "0.1", "--seed", "3",
                     "--out", str(data)]) == 0
    payloads = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli.main(["train", "--data", str(data), "--out", str(out),
                         "--epochs", "4", "--hidden", "8", "--d-s", "3",
                         "--edge-hidden", "8", "--n-exp", "2", "--top-k", "1",
                         "--seed", "11"])
        assert code == 0
        payloads.append((out / "metrics.jsonl").read_bytes())
    report(15, "identical seed and config give byte-identical metrics.jsonl",
           payloads[0] == payloads[1])
