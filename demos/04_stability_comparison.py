"""Training stability: backbone-residual vs a naive flat mixture.

The flat baseline routes one softmax gate directly over four heterogeneous
message-passing experts on the same masked-reconstruction objective. The
backbone-residual design keeps the heterogeneous experts as small scaled
corrections on top of stable linear filters, which shows up as a smoother,
lower loss curve.
"""

from adamore import experiments, graphs, trainer


# the study runs its trainings in worker processes; under the spawn start
# method each worker imports this file, so the work waits for the guard
def main() -> None:
    g = graphs.gen_sbm(n_per_block=100, k_blocks=2, p_in=0.5, p_out=0.05,
                       feat_dim=16, feat_signal=2.0, seed=0)
    cfg = trainer.TrainConfig(epochs=90, lr=0.08, hidden=128, seed=0)

    report = experiments.stability_bench(g, cfg, seeds=(0, 1, 2),
                                         include_homogeneous=True)

    print("per-arm loss curves (every 10th epoch, seed 1):")
    for arm, by_seed in sorted(report.curves.items()):
        curve = by_seed[1]
        print(f"  {arm:22s}", " ".join(f"{v:.3f}" for v in curve[::10]))

    print("\nvolatility = std of the last quarter of each curve, median of seeds:")
    for arm, vol in sorted(report.volatility.items()):
        print(f"  {arm:22s} volatility {vol:.4f}   "
              f"final loss {report.final_loss[arm]:.4f}")
    print(f"\nvolatility ratio (backbone-residual / naive heterogeneous): "
          f"{report.volatility_ratio:.3f}")


if __name__ == "__main__":
    main()
