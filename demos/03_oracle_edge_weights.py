"""How much does view quality matter? Oracle edge-weight studies.

Bypass the learned gate and drive the views with label-derived weights:
as the numerical separation between same-label and cross-label weights
shrinks, the two views collapse into each other and probe accuracy falls.
Corrupting good weights with Gaussian noise degrades accuracy gracefully.
"""

from adamore import experiments, graphs, trainer


# the study runs its trainings in worker processes; under the spawn start
# method each worker imports this file, so the work waits for the guard
def main() -> None:
    g = graphs.gen_sbm(n_per_block=80, k_blocks=2, p_in=0.3, p_out=0.1,
                       feat_dim=12, feat_signal=0.8, seed=0)
    cfg = trainer.TrainConfig(epochs=20, lr=0.01, hidden=32, d_s=4,
                              edge_hidden=16, seed=0)

    print("numerical distinctiveness (same-label vs cross-label weight):")
    rows = experiments.distinctiveness_study(
        g, cfg, pairs=((0.9, 0.1), (0.7, 0.3), (0.5, 0.5)), seeds=(0, 1, 2))
    for row in rows:
        print(f"  {row['value']}: median accuracy {row['median_accuracy']:.3f}")

    print("\nGaussian corruption of the 0.9/0.1 oracle (stddev 0.5):")
    rows = experiments.noise_robustness(g, cfg, ratios=(0.0, 0.5), stddev=0.5,
                                        seeds=(0, 1, 2))
    for row in rows:
        print(f"  corrupted fraction {row['value']}: "
              f"median accuracy {row['median_accuracy']:.3f}")


if __name__ == "__main__":
    main()
