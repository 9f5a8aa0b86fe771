"""End-to-end unsupervised training on a synthetic graph.

Each epoch alternates two steps: the edge gate trains adversarially on the
cross-filter reconstruction error (assigning weights that make the
mismatched reconstructions hard separates community from boundary edges),
then the masked-autoencoder objective updates the expert banks, residual
pool, and decoder. Afterward the frozen embeddings are scored with a
linear probe.
"""

from adamore import evaluation, graphs, trainer

g = graphs.gen_sbm(n_per_block=60, k_blocks=2, p_in=0.4, p_out=0.05,
                   feat_dim=12, feat_signal=2.0, seed=0)
cfg = trainer.TrainConfig(epochs=40, lr=0.01, hidden=32, d_s=4,
                          edge_hidden=32, n_exp=4, top_k=2, seed=0)

state = trainer.init_state(g, cfg)
print("epoch  l_mae   l_load  l_div   l_svg")
for epoch in range(cfg.epochs):
    rec = trainer.train_epoch(state)
    if epoch % 5 == 0 or epoch == cfg.epochs - 1:
        print(f"{rec['epoch']:5d}  {rec['l_mae']:.4f}  {rec['l_load']:.4f}  "
              f"{rec['l_div']:.4f}  {rec['l_svg']:.4f}")

emb = trainer.embed(state)
print(f"\nembeddings: {emb.shape[0]} x {emb.shape[1]}")

res = evaluation.linear_probe(emb, g.labels, g, repeats=5, seed=42)
print(f"linear probe accuracy: {res.mean:.3f} +/- {res.std:.3f}")

# the learned edge weights separate community edges from boundary edges
w = trainer.eval_edge_weights(state)
same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
print(f"mean learned weight, same-label edges: {w[same].mean():.3f}")
print(f"mean learned weight, cross-label edges: {w[~same].mean():.3f}")

# fusion coefficients stay in [0, 1] and respond to local structure
alpha = trainer.eval_forward(state).alpha
print(f"alpha: min {alpha.min():.3f}, mean {alpha.mean():.3f}, "
      f"max {alpha.max():.3f}")
