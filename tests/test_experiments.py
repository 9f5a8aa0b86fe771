import ctypes
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from adamore import evaluation, experiments, graphs, trainer
from adamore.experiments import OracleWeightSpec


def tiny_cfg(**kw):
    base = dict(epochs=3, lr=0.02, hidden=8, d_s=3, edge_hidden=8, n_exp=2,
                top_k=1, seed=0)
    base.update(kw)
    return trainer.TrainConfig(**base)


@pytest.fixture(scope="module")
def sbm():
    return graphs.gen_sbm(12, 2, 0.7, 0.1, feat_dim=5, feat_signal=1.5, seed=2)


# ---------------------------------------------------------------------------
# oracle weights

def test_oracle_distinctiveness_assignment(sbm):
    w = experiments.oracle_weights(sbm, OracleWeightSpec(w_same=0.9, w_diff=0.1))
    same = sbm.labels[sbm.edges[:, 0]] == sbm.labels[sbm.edges[:, 1]]
    assert np.array_equal(w[same], np.full(same.sum(), 0.9))
    assert np.array_equal(w[~same], np.full((~same).sum(), 0.1))


def test_noise_free_oracle_is_the_distinctiveness_oracle():
    """noise_robustness's ratio-0 spec gives distinctiveness_study's 0.9/0.1
    weights bit for bit at every seed, so the acceptance suite trains that
    row once for criteria 10 and 11."""
    g = graphs.gen_sbm(100, 2, 0.3, 0.1, feat_dim=16, feat_signal=0.8, seed=0)
    for seed in range(5):
        noise_free = experiments.oracle_weights(
            g, OracleWeightSpec(noise_ratio=0.0, noise_std=0.0), seed=seed)
        pair = experiments.oracle_weights(
            g, OracleWeightSpec(mode="distinctiveness", w_same=0.9, w_diff=0.1), seed=seed)
        assert np.array_equal(noise_free, pair)


def test_oracle_accuracy_mode_perfect_and_inverted(sbm):
    spec = OracleWeightSpec(mode="accuracy", p_coh_correct=1.0, p_disp_correct=1.0)
    w = experiments.oracle_weights(sbm, spec)
    same = sbm.labels[sbm.edges[:, 0]] == sbm.labels[sbm.edges[:, 1]]
    assert np.array_equal(w, same.astype(float))
    inverted = OracleWeightSpec(mode="accuracy", p_coh_correct=0.0, p_disp_correct=0.0)
    w = experiments.oracle_weights(sbm, inverted)
    assert np.array_equal(w, (~same).astype(float))


def test_oracle_perfectly_homophilic_graph_routes_cohesive():
    g = graphs.gen_sbm(6, 2, 0.9, 0.0, feat_dim=4, seed=1)
    assert graphs.mean_edge_homophily(g) == 1.0
    w = experiments.oracle_weights(g, OracleWeightSpec(w_same=1.0, w_diff=0.0))
    assert np.array_equal(w, np.ones(g.n_edges))


def test_oracle_noise_clamped_and_partial(sbm):
    spec = OracleWeightSpec(w_same=0.9, w_diff=0.1, noise_ratio=0.5, noise_std=5.0)
    w = experiments.oracle_weights(sbm, spec, seed=3)
    assert (w >= 0.0).all() and (w <= 1.0).all()
    clean = experiments.oracle_weights(sbm, OracleWeightSpec(w_same=0.9, w_diff=0.1))
    changed = (w != clean).sum()
    assert 0 < changed <= round(0.5 * sbm.n_edges)


def test_oracle_requires_labels():
    g = graphs.make_graph(3, [(0, 1)], np.eye(3))
    with pytest.raises(ValueError):
        experiments.oracle_weights(g, OracleWeightSpec())


def test_oracle_spec_validation():
    with pytest.raises(ValueError):
        OracleWeightSpec(mode="nope")
    with pytest.raises(ValueError):
        OracleWeightSpec(w_same=1.2)
    with pytest.raises(ValueError):
        OracleWeightSpec(noise_std=-1.0)


def test_probe_study_learned_and_oracle_cases(sbm):
    cfg = tiny_cfg(epochs=2)
    spec = OracleWeightSpec(w_same=0.8, w_diff=0.2)
    rows = experiments.probe_study(sbm, [("learned", cfg, None), ("oracle", cfg, spec)],
                                   seeds=(0, 1))
    assert [row["value"] for row in rows] == ["learned", "oracle"]
    for row, fixed in zip(rows, (None, experiments.oracle_weights(sbm, spec, seed=1))):
        # each (case, seed) trains at that seed and probes three splits at 1000 + seed
        state = trainer.train(sbm, tiny_cfg(epochs=2, seed=1), fixed_weights=fixed)
        want = evaluation.linear_probe(trainer.embed(state), sbm.labels, sbm,
                                       repeats=3, seed=1001).mean
        assert len(row["per_seed"]) == 2 and row["per_seed"][1] == want
        assert row["median_accuracy"] == float(np.median(row["per_seed"]))


# ---------------------------------------------------------------------------
# stability

def test_loss_volatility_definition():
    assert experiments.loss_volatility([1.0] * 20) == 0.0
    curve = [0.0] * 15 + [1.0, -1.0, 1.0, -1.0, 1.0]
    assert abs(experiments.loss_volatility(curve) - np.std([1, -1, 1, -1, 1])) < 1e-12


def test_stability_bench_control_and_structure(sbm):
    cfg = tiny_cfg(epochs=8)
    rep = experiments.stability_bench(sbm, cfg, seeds=(0, 1),
                                      include_homogeneous=True)
    assert set(rep.curves) == {"backbone-residual", "naive-heterogeneous",
                               "naive-homogeneous"}
    for by_seed in rep.curves.values():
        assert set(by_seed) == {0, 1}
        assert all(len(c) == 8 for c in by_seed.values())
    # self-vs-self control: rerunning an arm reproduces its volatility exactly
    again = experiments.stability_bench(sbm, cfg, seeds=(0, 1))
    assert rep.volatility["naive-heterogeneous"] > 0.0
    assert rep.volatility["naive-heterogeneous"] == again.volatility["naive-heterogeneous"]
    rows = rep.curve_rows()
    assert rows[0][0] == 0 and ":seed" in rows[0][1]


# ---------------------------------------------------------------------------
# motivation analysis

def test_motivation_direction_on_synthetic_graphs():
    """Low degree keeps neighbor-composition noise dominant, so the filter
    choice matters per bucket: high-pass wins where homophily is lowest."""
    hetero = graphs.gen_sbm(50, 4, 0.01, 0.08, feat_dim=8, feat_signal=0.8, seed=4)
    rep = experiments.motivation_analysis(hetero, seed=1)
    assert rep["homophily"]["lapsgc"][0] > rep["homophily"]["sgc"][0]
    homo = graphs.gen_sbm(50, 4, 0.12, 0.01, feat_dim=8, feat_signal=0.8, seed=4)
    rep = experiments.motivation_analysis(homo, seed=1)
    top = rep["homophily"]["n_buckets"] - 1
    assert rep["homophily"]["sgc"][top] > rep["homophily"]["lapsgc"][top]


def test_motivation_degenerate_labels_warn():
    g = graphs.make_graph(8, [(i, i + 1) for i in range(7)], np.eye(8),
                          labels=np.zeros(8, dtype=int))
    with pytest.warns(UserWarning):
        rep = experiments.motivation_analysis(g, seed=0)
    assert rep["homophily"]["n_buckets"] == 1


def test_motivation_requires_labels():
    g = graphs.make_graph(3, [(0, 1)], np.eye(3))
    with pytest.raises(ValueError):
        experiments.motivation_analysis(g)


# ---------------------------------------------------------------------------
# sweeps

def test_sensitivity_single_value_table(sbm):
    rows = experiments.sensitivity_sweep(sbm, "lambda_load", (0.1,), tiny_cfg(),
                                         seeds=(0,))
    assert len(rows) == 1
    assert rows[0]["value"] == 0.1
    assert 0.0 <= rows[0]["median_accuracy"] <= 1.0


def test_sensitivity_rejects_bad_axis(sbm):
    with pytest.raises(ValueError):
        experiments.sensitivity_sweep(sbm, "dropout", (0.1,), tiny_cfg())
    with pytest.raises(ValueError):
        experiments.sensitivity_sweep(sbm, "seed", (1, 2), tiny_cfg())     # each run sets it
    with pytest.raises(ValueError):
        experiments.sensitivity_sweep(sbm, "hidden", (), tiny_cfg())


def test_sensitivity_pooled_matches_in_process(sbm, monkeypatch):
    cfg = tiny_cfg(epochs=2)
    rows = []
    for cpus in (1, 2):
        monkeypatch.setattr(graphs, "usable_cpus", lambda: cpus)
        rows.append(experiments.sensitivity_sweep(sbm, "hidden", (8, 12), cfg, seeds=(0,)))
    assert rows[0] == rows[1]


def _blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def _pid_and_blas_threads(_task):
    return os.getpid(), _blas_threads()


def test_pooled_workers_run_in_other_processes_on_one_blas_thread(monkeypatch):
    """At most one worker per usable CPU, each in its own process with one
    BLAS thread; this process keeps its own thread count."""
    if _blas_threads() is None or experiments._blas_thread_setter() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    started = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            started.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(graphs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
    before = _blas_threads()
    out = experiments._map_jobs(_pid_and_blas_threads, range(5))
    assert started == [2]
    assert len(out) == 5 and os.getpid() not in {pid for pid, _ in out}
    assert {threads for _, threads in out} == {1}
    assert _blas_threads() == before


class _RecordingThreads(ThreadPoolExecutor):
    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers)


def _probe_thread_pools(_task):
    """The thread pools that 300 nodes' probes in six blocks start on two CPUs."""
    _RecordingThreads.started = []
    a_tilde = graphs.normalize(graphs.gen_sbm(150, 2, 0.05, 0.01, seed=0))
    with mock.patch.object(graphs, "ThreadPoolExecutor", _RecordingThreads), \
            mock.patch.object(graphs, "usable_cpus", lambda: 2):
        graphs.structural_embeddings(a_tilde, d_s=3, block=50)
    return _RecordingThreads.started


def test_pooled_workers_run_probe_blocks_in_their_own_thread(monkeypatch):
    """A pooled worker shares the CPUs with its siblings, so its probe blocks
    start no threads; this process still starts one per CPU."""
    if experiments._blas_thread_setter() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    monkeypatch.setattr(graphs, "usable_cpus", lambda: 2)
    assert experiments._map_jobs(_probe_thread_pools, range(2)) == [[], []]
    assert _probe_thread_pools(None) == [2]


@pytest.mark.parametrize("cpus, tasks, has_setter", [(2, 3, False), (1, 3, True), (2, 1, True)],
                         ids=["no-blas-setter", "one-cpu", "one-task"])
def test_map_jobs_stays_in_process(monkeypatch, cpus, tasks, has_setter):
    """Without the BLAS setter, on one CPU or with one task no pool starts."""
    monkeypatch.setattr(graphs, "usable_cpus", lambda: cpus)
    if not has_setter:
        monkeypatch.setattr(experiments, "_blas_thread_setter", lambda: None)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", None)    # would fail if called
    out = experiments._map_jobs(_pid_and_blas_threads, range(tasks))
    assert [pid for pid, _ in out] == [os.getpid()] * tasks


def test_noise_robustness_rows(sbm):
    rows = experiments.noise_robustness(sbm, tiny_cfg(epochs=2),
                                        ratios=(0.0, 0.5), seeds=(0,))
    assert [row["value"] for row in rows] == [0.0, 0.5]
    assert all(len(row["per_seed"]) == 1 for row in rows)


def test_distinctiveness_rows(sbm):
    rows = experiments.distinctiveness_study(sbm, tiny_cfg(epochs=2),
                                             pairs=((0.9, 0.1), (0.5, 0.5)),
                                             seeds=(0,))
    assert [row["value"] for row in rows] == ["0.9/0.1", "0.5/0.5"]


# ---------------------------------------------------------------------------
# report files

def test_report_writers(tmp_path):
    rows = [{"value": 0.1, "median_accuracy": 0.9, "per_seed": [0.9]}]
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    experiments.write_report_json(rows, str(jpath))
    experiments.write_report_csv(rows, str(cpath))
    assert "median_accuracy" in jpath.read_text()
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "value,median_accuracy,per_seed"
    curves = tmp_path / "curves.csv"
    experiments.write_curves_csv([(0, "arm:seed0", 1.25)], str(curves))
    assert curves.read_text().splitlines()[1] == "0,arm:seed0,1.25"
