"""Outside-in tracing of the adamore layers.

The library itself carries no instrumentation. ``Tracer.patched`` replaces
each traced function at the module attribute its caller looks up (for
example ``experts.filter_bank_outputs``, which ``backbone_forward`` calls by
its imported name) with a wrapper that records a span, and puts the
originals back on exit.

A span is (name, start, end, parent). Spans are held in memory and written
once, when the run ends. A span's self time is its duration minus the
durations of its direct children; the code is single-threaded, so children
never overlap. Each span belongs to the phase of its nearest phase ancestor:

    setup     one graphs.load_graph + trainer.init_state   (per setup)
    svg       trainer.svg_step, the edge-gate step          (per epoch)
    recon     trainer.reconstruction_step                   (per epoch)
    embed     trainer.embed                                 (per call)
    eval      the evaluation protocols                      (not reported)
    finetune  trainer.finetune_fewshot                      (per fine-tune step)
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from adamore import engine, evaluation, experts, fusion, gating, graphs, trainer

# span name -> phase; "setup" and "eval" spans are opened by the benchmark
PHASES = {
    "setup": "setup",
    "trainer.svg_step": "svg",
    "trainer.reconstruction_step": "recon",
    "trainer.embed": "embed",
    "eval": "eval",
    "trainer.finetune_fewshot": "finetune",
}

# (module, attribute the caller looks up, span name)
TARGETS = (
    (graphs, "load_graph", "graphs.load_graph"),
    (graphs, "normalize", "graphs.normalize"),
    (graphs, "structural_embeddings", "graphs.structural_embeddings"),
    (trainer, "init_state", "trainer.init_state"),
    (trainer, "svg_step", "trainer.svg_step"),
    (trainer, "reconstruction_step", "trainer.reconstruction_step"),
    (trainer, "embed", "trainer.embed"),
    (trainer, "eval_edge_weights", "trainer.eval_edge_weights"),
    (trainer, "finetune_fewshot", "trainer.finetune_fewshot"),
    (trainer, "full_forward", "trainer.full_forward"),
    (trainer, "masked_input", "trainer.masked_input"),
    (trainer, "mae_loss", "trainer.mae_loss"),
    (gating, "edge_logits", "gating.edge_logits"),
    (gating, "gumbel_sigmoid_weights", "gating.gumbel_sigmoid_weights"),
    (gating, "build_views", "gating.build_views"),
    (gating, "svg_loss", "gating.svg_loss"),
    (experts, "backbone_forward", "experts.backbone_forward"),
    (experts, "filter_bank_outputs", "filters.filter_bank_outputs"),
    (experts, "residual_forward", "experts.residual_forward"),
    (experts, "diversity_loss", "experts.diversity_loss"),
    (experts, "load_balance_loss", "experts.load_balance_loss"),
    (fusion, "compute_fusion", "fusion.compute_fusion"),
    (fusion, "fuse", "fusion.fuse"),
    (engine, "backward", "engine.backward"),
    (engine, "adam_step", "engine.adam_step"),
    (evaluation, "linear_probe", "evaluation.linear_probe"),
    (evaluation, "kmeans_eval", "evaluation.kmeans_eval"),
    (evaluation, "prototype_fewshot", "evaluation.prototype_fewshot"),
)

MODULES = ("graphs", "engine", "gating", "filters", "experts", "fusion",
           "trainer", "evaluation")

# reported self times: (phase, span name, suffix); "self_s" marks spans
# with traced children, "s" leaf spans (self time equals duration there)
LAYER_TIMES = (
    ("setup", "graphs.load_graph", "s"),
    ("setup", "graphs.normalize", "s"),
    ("setup", "graphs.structural_embeddings", "s"),
    ("setup", "trainer.init_state", "self_s"),
    ("svg", "gating.edge_logits", "s"),
    ("svg", "gating.gumbel_sigmoid_weights", "s"),
    ("svg", "gating.build_views", "s"),
    ("svg", "gating.svg_loss", "s"),
    ("svg", "filters.filter_bank_outputs", "s"),
    ("svg", "experts.backbone_forward", "self_s"),
    ("svg", "engine.backward", "s"),
    ("svg", "engine.adam_step", "s"),
    ("recon", "gating.edge_logits", "s"),
    ("recon", "gating.gumbel_sigmoid_weights", "s"),
    ("recon", "gating.build_views", "s"),
    ("recon", "filters.filter_bank_outputs", "s"),
    ("recon", "experts.residual_forward", "s"),
    ("recon", "experts.backbone_forward", "self_s"),
    ("recon", "experts.diversity_loss", "s"),
    ("recon", "experts.load_balance_loss", "s"),
    ("recon", "trainer.mae_loss", "s"),
    ("recon", "fusion.compute_fusion", "s"),
    ("recon", "fusion.fuse", "s"),
    ("recon", "trainer.masked_input", "s"),
    ("recon", "engine.backward", "s"),
    ("recon", "engine.adam_step", "s"),
    ("finetune", "engine.backward", "s"),
    ("finetune", "engine.adam_step", "s"),
    ("embed", "trainer.full_forward", "self_s"),
    ("embed", "filters.filter_bank_outputs", "s"),
    ("embed", "experts.residual_forward", "s"),
    ("embed", "fusion.compute_fusion", "s"),
)

# phases whose tape is counted: at each engine.backward call, and inside
# embed (which never calls backward) when trainer.full_forward returns
CENSUS_PHASES = ("svg", "recon", "embed", "finetune")

OVERHEAD = (("trace.overhead_s", "s"), ("trace.overhead_frac", "fraction"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for phase, name, suffix in LAYER_TIMES:
        names.append((f"{phase}.{name}.{suffix}", "s"))
        names.append((f"{phase}.{name}.calls", "count"))
    for phase in CENSUS_PHASES:
        names.append((f"{phase}.engine.tape_records", "count"))
        names.append((f"{phase}.engine.tape_mb", "MB"))
    names += [(f"{module}.failed", "count") for module in MODULES]
    return names + list(OVERHEAD)


def tape_census() -> tuple[int, int]:
    """Records on the current tape and the bytes of their computed outputs."""
    records = engine.current_tape().records
    return len(records), sum(rec[1].values.nbytes for rec in records)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.failed: dict[str, int] = defaultdict(int)
        self.census: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self._stack: list[int] = []
        self._phases: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        phase = PHASES.get(name)
        if phase:
            self._phases.append(phase)
        try:
            yield
        except Exception:
            if "." in name:
                self.failed[name.split(".")[0]] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if phase:
                self._phases.pop()

    def _count_tape(self) -> None:
        if self._phases and self._phases[-1] in CENSUS_PHASES:
            self.census[self._phases[-1]].append(tape_census())

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "engine.backward":
                self._count_tape()
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "trainer.full_forward" and self._phases[-1:] == ["embed"]:
                self._count_tape()
            return out
        return traced

    @contextmanager
    def patched(self):
        """Route every traced call through a span for the duration."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, fn), (_, _, name) in zip(originals, TARGETS):
                setattr(module, attr, self._wrap(name, fn))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def census_repeats(self) -> bool:
        """True when every counted tape of a phase is identical."""
        return all(len(set(entries)) == 1 for entries in self.census.values())

    def layer_metrics(self, finetune_steps: int) -> dict[str, float]:
        """Per-unit self seconds and calls, tape census and failure counts."""
        phase_of: list[str | None] = []
        for name, _, _, parent in self.spans:
            phase_of.append(PHASES.get(name) or (phase_of[parent] if parent is not None else None))
        seconds: dict[tuple, float] = defaultdict(float)
        calls: dict[tuple, int] = defaultdict(int)
        units: dict[str, int] = defaultdict(int)
        for (name, _, _, _), phase, self_s in zip(self.spans, phase_of, self.self_times()):
            seconds[phase, name] += self_s
            calls[phase, name] += 1
            if PHASES.get(name) == phase:
                units[phase] += 1
        units["finetune"] *= finetune_steps

        out = {}
        for phase, name, suffix in LAYER_TIMES:
            n = max(units[phase], 1)
            out[f"{phase}.{name}.{suffix}"] = seconds[phase, name] / n
            out[f"{phase}.{name}.calls"] = calls[phase, name] / n
        for phase in CENSUS_PHASES:
            records, nbytes = self.census[phase][0] if self.census[phase] else (0, 0)
            out[f"{phase}.engine.tape_records"] = records
            out[f"{phase}.engine.tape_mb"] = nbytes / 2**20
        for module in MODULES:
            out[f"{module}.failed"] = self.failed[module]
        return out

    def write(self, path) -> None:
        rows = [[i, name, start, end, parent, self.run_id]
                for i, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "run_id"],
                       "spans": rows}, fh)
