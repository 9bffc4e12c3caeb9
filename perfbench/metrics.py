"""End-to-end and per-layer metric values, and what each layer metric moves.

Names and units are declared once, in BENCHMARK.json; `run.py` attaches
the units and refuses a result whose names differ from the declaration.
`TARGETS` records, for every per-layer metric, how it is measured and
which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from hakan.model import patch_count

# per-layer metric -> (how it is measured, end-to-end metric it moves, where)
TARGETS = {
    "data.load_csv_s": ("median `load_csv` span over the set-ups",
                        "setup_s on serve-electricity; no change on train-l336"),
    "data.prepare_s": ("median `prepare` span over the set-ups",
                       "setup_s on serve-electricity; no change on train-l336"),
    "training.adam_step_ms": ("median Adam `step` span per train step",
                              "train_samples_per_s, bounded by its share: ~3% on train-l336"),
    "training.gather_ms": ("median time a step waits for its batch (`_gather`)",
                           "train_step_ms_p50 on train-l336"),
    "training.mse_loss_ms": ("median `mse_loss` span per step",
                             "train_step_ms_p50 on train-l336"),
    "training.zero_grad_ms": ("median Adam `zero_grad` span per step",
                              "train_step_ms_p50 on train-l336"),
    "training.evaluate_s": ("median `evaluate` span over the fixed slice",
                            "eval_windows_per_s"),
    "tensor.backward_ms": ("median `tensor.backward` span per step (the whole tape sweep)",
                           "train_step_ms_p50"),
    "tensor.backward_rest_ms": ("backward minus n_blocks x (intra + inter isolated KAN "
                                "backward): head, embedding and residual gradients",
                                "train_step_ms_p50"),
    "tensor.tape_nodes": ("exact count of tape nodes one step records",
                          "train_step_ms_p50; more on small shapes, where per-op "
                          "overhead weighs most"),
    "model.forward_ms": ("median `forward_batch` span per train step", "train_step_ms_p50"),
    "model.block_self_ms": ("median block self time per block call: the two "
                            "`swap_last_axes` copies plus the residual add",
                            "train_step_ms_p50 on train-l336"),
    "model.forward_self_ms": ("median `forward_batch` self time per step: RevIN, "
                              "patching, embed, head", "train_step_ms_p50"),
    "model.forward_nograd_ms": ("median `forward_batch` span inside `evaluate`, whose "
                                "slice is one batch of windows", "eval_windows_per_s"),
    "model.predict_channel_ms": ("median `forward_batch` span inside `predict` "
                                 "(one batch-1 forward)", "predict_ms_p50"),
    "model.checkpoint_load_s": ("median `HaKanModel.load` span over the set-ups",
                                "setup_s on serve-electricity"),
    "layers.intra.fwd_ms": ("median intra-layer `forward` span per call in train steps",
                            "train_samples_per_s"),
    "layers.inter.fwd_ms": ("median inter-layer `forward` span per call in train steps",
                            "train_samples_per_s; inter weighs most on train-l336"),
    "layers.intra.fwd_self_ms": ("intra-layer forward self time per call, basis excluded",
                                 "train_samples_per_s"),
    "layers.inter.fwd_self_ms": ("inter-layer forward self time per call, basis excluded",
                                 "train_samples_per_s"),
    "layers.intra.bwd_ms": ("isolated backward of one intra layer, median of repeats",
                            "train_samples_per_s"),
    "layers.inter.bwd_ms": ("isolated backward of one inter layer, median of repeats",
                            "train_samples_per_s"),
    "layers.kan.flop": ("computed from shapes: KAN contraction FLOPs per train step, "
                        "forward plus both backward products", "train_samples_per_s"),
    "layers.kan.bytes": ("computed from shapes: bytes of the arrays KAN forward with "
                         "grad allocates per train step", "train_samples_per_s"),
    "basis.eval_deriv_ms": ("median `eval_terms_with_deriv` span per call in train steps",
                            "train_samples_per_s (~50 ms per call at l336)"),
    "basis.eval_ms": ("median `eval_terms` span per call inside `evaluate`",
                      "eval_windows_per_s and predict_ms_p50"),
    "basis.elements": ("exact count of basis elements one train step evaluates "
                       "(`Basis.eval_count`)", "train_samples_per_s"),
    "trace.overhead_pct": ("traced minus untraced median step time, over untraced",
                           "none: the cost of tracing itself"),
}


def end_to_end(setup_s: list, timed, batch_size: int, eval_windows: int,
               rss_mb: float) -> dict:
    """The workload's end-to-end values from its set-ups and untraced rounds."""
    return {
        "setup_s": median(setup_s),
        "train_samples_per_s": batch_size * len(timed.step_s) / sum(timed.step_s),
        "train_step_ms_p50": median(timed.step_s) * 1e3,
        "eval_windows_per_s": eval_windows * len(timed.eval_s) / sum(timed.eval_s),
        "predict_ms_p50": median(timed.predict_s) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def kan_counts(config, batch_size: int) -> tuple:
    """(FLOPs, bytes) of every KAN layer in one train step, from the shapes.

    Each layer of width w on r rows does one [r, w] x [w, w] product per
    basis term forward, and two of the same size backward.  Forward with
    grad allocates the squashed input, its slope, the value and derivative
    of every term, and the output, each r x w float64 values.
    """
    n = patch_count(config.lookback, config.patch_len, config.stride)
    d = config.embed_dim
    terms = config.degree + 1
    flop = byte = 0
    for rows, width in ((batch_size * n, d), (batch_size * d, n)):  # intra, inter
        flop += 3 * 2 * rows * width * width * terms
        byte += 8 * rows * width * (3 + 2 * terms)
    return flop * config.n_blocks, byte * config.n_blocks


def _ms(values) -> float:
    return median(values) * 1e3


def _span_s(tracer, name: str) -> float:
    return median(s.duration for s in tracer.named(name))


def per_layer(tracer, model, batch_size: int, untraced, traced, isolated: dict,
              details: dict) -> dict:
    """Per-layer values from the traced spans of one run.

    `untraced` and `traced` hold the timings of the untraced and traced
    rounds; `isolated` the isolated KAN backward ms per layer kind.
    """
    step_total = defaultdict(list)  # span name -> its duration in each step
    step_self = defaultdict(list)
    call = defaultdict(list)  # block-level role, e.g. "intra.forward" -> per call
    call_self = defaultdict(list)
    blocks = defaultdict(lambda: defaultdict(list))  # block -> part -> ms per call
    for step in tracer.named("training.step"):
        for s in tracer.descendants(step):
            if s.name.startswith("block"):
                block, role = s.name.split(".", 1)
                call[role].append(s.duration)
                call_self[role].append(s.self_time)
                if role == "forward":
                    blocks[block]["self"].append(s.self_time)
                elif role.endswith(".forward"):
                    blocks[block][role.split(".")[0]].append(s.duration)
            else:
                step_total[s.name].append(s.duration)
                step_self[s.name].append(s.self_time)

    nograd, basis_eval = [], []
    for ev in tracer.named("training.evaluate"):
        for s in tracer.descendants(ev):
            if s.name == "model.forward_batch":
                nograd.append(s.duration)
            elif s.name.endswith("basis.eval"):
                basis_eval.append(s.duration)
    predict_forwards = [s.duration for c in tracer.named("model.predict")
                        for s in tracer.descendants(c) if s.name == "model.forward_batch"]

    intra_bwd, inter_bwd = isolated["intra"], isolated["inter"]
    backward_ms = _ms(step_total["tensor.backward"])
    config = model.config
    flop, byte = kan_counts(config, batch_size)
    details["per_block_ms"] = {b: {part: _ms(v) for part, v in parts.items()}
                               for b, parts in sorted(blocks.items())}
    details["tape_nodes_seen"] = sorted(untraced.tape_nodes | traced.tape_nodes)
    details["basis_elements_seen"] = sorted(untraced.basis_elements | traced.basis_elements)
    return {
        "data.load_csv_s": _span_s(tracer, "data.load_csv"),
        "data.prepare_s": _span_s(tracer, "data.prepare"),
        "training.adam_step_ms": _ms(step_total["training.adam_step"]),
        "training.gather_ms": _ms(step_total["training.gather"]),
        "training.mse_loss_ms": _ms(step_total["training.mse_loss"]),
        "training.zero_grad_ms": _ms(step_total["training.zero_grad"]),
        "training.evaluate_s": _span_s(tracer, "training.evaluate"),
        "tensor.backward_ms": backward_ms,
        "tensor.backward_rest_ms": backward_ms - config.n_blocks * (intra_bwd + inter_bwd),
        "tensor.tape_nodes": max(details["tape_nodes_seen"]),
        "model.forward_ms": _ms(step_total["model.forward_batch"]),
        "model.block_self_ms": _ms(call_self["forward"]),
        "model.forward_self_ms": _ms(step_self["model.forward_batch"]),
        "model.forward_nograd_ms": _ms(nograd),
        "model.predict_channel_ms": _ms(predict_forwards),
        "model.checkpoint_load_s": _span_s(tracer, "model.checkpoint_load"),
        "layers.intra.fwd_ms": _ms(call["intra.forward"]),
        "layers.inter.fwd_ms": _ms(call["inter.forward"]),
        "layers.intra.fwd_self_ms": _ms(call_self["intra.forward"]),
        "layers.inter.fwd_self_ms": _ms(call_self["inter.forward"]),
        "layers.intra.bwd_ms": intra_bwd,
        "layers.inter.bwd_ms": inter_bwd,
        "layers.kan.flop": flop,
        "layers.kan.bytes": byte,
        "basis.eval_deriv_ms": _ms(call["intra.basis.eval_deriv"]
                                   + call["inter.basis.eval_deriv"]),
        "basis.eval_ms": _ms(basis_eval),
        "basis.elements": max(details["basis_elements_seen"]),
        "trace.overhead_pct": (median(traced.step_s) / median(untraced.step_s) - 1.0) * 100.0,
    }
