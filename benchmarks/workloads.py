"""The benchmark's workloads: SBM graph shapes plus the fixed work of a run.

Every graph has 16 features; every workload trains with the acceptance
trend settings (lr 0.01, hidden 128) and takes its seed from the command
line, which drives both the graph generator and ``TrainConfig.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_per_block: int
    k_blocks: int
    p_in: float
    p_out: float
    epochs: int            # fixed training length before the embedding is evaluated
    setup_reps: int        # load_graph + init_state repetitions; setup_s is their median
    finetune_steps: int    # TrainConfig.finetune_epochs of one fine-tune call
    why: str
    feat_signal: float = 2.0
    hidden: int = 128

    @property
    def probe_floor(self) -> float:
        """Lowest accepted probe accuracy: chance level plus 0.05.

        An embedding that carries no class signal (all rows equal, or
        collapsed) probes at chance; any trained model here clears it.
        """
        return 1.0 / self.k_blocks + 0.05


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sbm-dense-200", n_per_block=100, k_blocks=2, p_in=0.5, p_out=0.05,
        epochs=20, setup_reps=5, finetune_steps=3,
        why="acceptance-suite graph; edge-dominated (mean degree 54), small "
            "arrays so per-op overhead shows; carries the longest fine-tune"),
    Workload(
        name="sbm-sparse-2k", n_per_block=500, k_blocks=4, p_in=0.02, p_out=0.001,
        epochs=6, setup_reps=3, finetune_steps=1,
        why="node-dominated (mean degree 11.5): n x 128 matmuls, CKA "
            "diversity and the decoder outweigh edge messages; gates set-up, "
            "embed and memory"),
    Workload(
        name="sbm-sparse-8k", n_per_block=2000, k_blocks=4, p_in=0.004, p_out=0.0002,
        epochs=3, setup_reps=3, finetune_steps=1,
        why="set-up (O(n^2) structural embeddings), inference and memory at "
            "the largest size that fits; only a few epochs; run on request, "
            "not gated (its minute-long runs follow the machine's speed)"),
)}
