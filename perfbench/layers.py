"""What the traced run wraps in ``cbmi_nmt``, and the per-layer metrics it
derives from the spans.

Layers are the package's modules. Each metric maps to the end-to-end metric
it should move (see README.md). Busy times (``.s``) are inclusive: a span's
whole duration, children included. Each layer's self time
(``<layer>.self_s``) excludes the spans it calls, so the self times of all
layers plus ``trace.uncovered_frac`` of the wall time add up to the traced
wall time. Nothing in the package waits on a queue, a lock or the network,
so no wait times apply.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tracer import END, INFO, NAME, PARENT, START, Target, Tracer

LAYERS = ("cli", "corpus", "models", "tensor", "weighting", "training", "decoding")
CLI_COMMANDS = ("preprocess", "train", "translate", "score", "analyze-cbmi", "dump-weights")
TENSOR_OPS = ("matmul", "add", "mul", "reshape", "transpose", "softmax", "log_softmax",
              "layer_norm", "dropout", "embedding", "relu", "weighted_cross_entropy")


def _rows(ids) -> tuple[int, int]:
    shape = np.shape(ids)
    return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])


def _nmt_info(args, kwargs, result):
    src = args[1] if len(args) > 1 else kwargs["src"]
    tgt = args[2] if len(args) > 2 else kwargs["tgt_in"]
    sb, st = _rows(src)
    tb, tt = _rows(tgt)
    return sb * st, tb * tt, tb


def _checkpoint_bytes(args, kwargs, result):
    return sum(f.stat().st_size for f in Path(result).iterdir() if f.is_file())


def _pad_cells(args, kwargs, result):
    pad = cells = 0
    for batch in result:
        pad += int((~batch.src_mask).sum() + (~batch.tgt_mask).sum())
        cells += batch.src_mask.size + batch.tgt_mask.size
    return pad, cells


def _score(args, kwargs, result):
    return float(result[1])


def _cli_name(args) -> str:
    argv = args[0] if args else ()
    return f"cli.{argv[0]}" if argv else "cli.run"


def _exit_code(args, kwargs, result):
    return result


TARGETS = [
    Target("cli", "run", _cli_name, _exit_code),
    Target("corpus", "Vocabulary.build", "corpus.Vocabulary.build"),
    Target("corpus", "load_parallel_corpus", "corpus.load_parallel_corpus"),
    Target("corpus", "build_cooccurrence", "corpus.build_cooccurrence"),
    Target("corpus", "BmiTable.build", "corpus.BmiTable.build"),
    Target("corpus", "make_batches", "corpus.make_batches", _pad_cells),
    Target("models", "nmt_forward", "models.nmt_forward", _nmt_info),
    Target("models", "lm_forward", "models.lm_forward"),
    Target("models", "save_checkpoint", "models.save_checkpoint", _checkpoint_bytes),
    Target("models", "load_checkpoint", "models.load_checkpoint"),
    Target("tensor", "Tape.backward", "tensor.backward",
           lambda args, kwargs, result: len(args[0].nodes)),
    *[Target("tensor", op, f"tensor.op.{op}") for op in TENSOR_OPS],
    Target("weighting", "cbmi_schedule", "weighting.cbmi_schedule"),
    Target("weighting", "selected_prior_rows", "weighting.selected_prior_rows"),
    Target("weighting", "prior_cross_entropy_loss", "weighting.prior_cross_entropy_loss"),
    Target("weighting", "cbmi_records_for_batch", "weighting.cbmi_records_for_batch"),
    Target("weighting", "weight_dump_lines", "weighting.weight_dump_lines"),
    Target("weighting", "cbmi_prior_distribution", "weighting.cbmi_prior_distribution"),
    Target("training", "train_step", "training.train_step"),
    Target("training", "compute_scheme_weights", "training.compute_scheme_weights"),
    Target("training", "clip_gradients", "training.clip_gradients"),
    Target("training", "adam_update", "training.adam_update"),
    Target("decoding", "beam_search", "decoding.beam_search"),
    Target("decoding", "greedy_core", "decoding.greedy_core", _score),
    Target("decoding", "beam_search_core", "decoding.beam_search_core", _score),
    Target("decoding", "analyze_cbmi", "decoding.analyze_cbmi"),
    Target("decoding", "bleu", "decoding.bleu"),
]

_TIMED = [
    "tensor.backward", *[f"tensor.op.{op}" for op in TENSOR_OPS],
    "models.nmt_forward", "models.lm_forward", "models.save_checkpoint", "models.load_checkpoint",
    "training.train_step",
    "weighting.cbmi_schedule", "weighting.selected_prior_rows",
    "weighting.prior_cross_entropy_loss", "weighting.cbmi_records_for_batch",
    "weighting.weight_dump_lines",
    "corpus.Vocabulary.build", "corpus.load_parallel_corpus", "corpus.build_cooccurrence",
    "corpus.BmiTable.build", "corpus.make_batches",
    "decoding.beam_search", "decoding.greedy_core", "decoding.beam_search_core",
    "decoding.analyze_cbmi", "decoding.bleu",
]
_COUNTED = [*[f"tensor.op.{op}" for op in TENSOR_OPS], "models.nmt_forward",
            "models.lm_forward", "weighting.cbmi_prior_distribution"]


def metric_sources() -> dict[str, tuple[str, tuple[str, ...], str | None]]:
    """Every per-layer metric, in report order, with its unit, the traced
    names it is derived from, and the span name whose absence of calls makes
    it idle (None: never idle)."""
    out: dict[str, tuple[str, tuple[str, ...], str | None]] = {}
    for name in _TIMED:
        out[f"{name}.s"] = ("s", (name,), name)
    for name in _COUNTED:
        out[f"{name}.calls"] = ("count", (name,), name)
    out["tensor.nodes_per_backward"] = ("count", ("tensor.backward",), "tensor.backward")
    for kind in ("enc_positions", "dec_positions"):
        out[f"models.nmt_forward.{kind}"] = ("count", ("models.nmt_forward",), "models.nmt_forward")
    out["models.save_checkpoint.bytes"] = ("bytes", ("models.save_checkpoint",),
                                           "models.save_checkpoint")
    step = "training.train_step"
    out["training.lm_pass.s"] = ("s", (step, "models.lm_forward", "tensor.backward"), step)
    out["training.nmt_pass.s"] = ("s", (step, "models.nmt_forward", "tensor.backward"), step)
    out["training.scheme_weights.s"] = ("s", (step, "training.compute_scheme_weights"), step)
    out["training.optimizer.s"] = ("s", (step, "training.clip_gradients",
                                         "training.adam_update"), step)
    out["corpus.pad_frac"] = ("ratio", ("corpus.make_batches",), "corpus.make_batches")
    decode = ("decoding.beam_search", "models.nmt_forward")
    out["decoding.model_calls_per_sentence"] = ("count", decode, "decoding.beam_search")
    out["decoding.useful_position_frac"] = ("ratio", decode, "decoding.beam_search")
    out["decoding.greedy_won_frac"] = ("ratio", ("decoding.beam_search", "decoding.greedy_core",
                                                 "decoding.beam_search_core"),
                                       "decoding.beam_search_core")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = ("s", ("cli.run",), f"cli.{command}")
    out["cli.nonzero_exits"] = ("count", ("cli.run",), None)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", (), None)
    out["trace.overhead_frac"] = ("ratio", (), None)
    out["trace.uncovered_frac"] = ("ratio", (), None)
    return out


def _training_split(tracer: Tracer, out: dict[str, float]) -> None:
    """Split each train step by the order of its direct child spans: the
    LM pass is ``lm_forward`` plus the backward that follows it, the NMT
    pass likewise from ``nmt_forward``."""
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent >= 0 and spans[parent][NAME] == "training.train_step":
            children.setdefault(parent, []).append(i)
    pending = {"models.lm_forward": "training.lm_pass.s", "models.nmt_forward": "training.nmt_pass.s"}
    for kids in children.values():
        open_pass = None
        for i in kids:
            name, dur = spans[i][NAME], spans[i][END] - spans[i][START]
            if name in pending:
                open_pass = pending[name]
                out[open_pass] += dur
            elif name == "tensor.backward" and open_pass is not None:
                out[open_pass] += dur
                open_pass = None
            elif name == "training.compute_scheme_weights":
                out["training.scheme_weights.s"] += dur
            elif name in ("training.clip_gradients", "training.adam_update"):
                out["training.optimizer.s"] += dur


def _decoding_counts(tracer: Tracer, out: dict[str, float]) -> None:
    spans = tracer.spans
    sentences = model_calls = rows_used = positions = 0
    scores: dict[int, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        if name == "decoding.beam_search":
            sentences += 1
        elif name == "models.nmt_forward" and tracer.ancestor(i, "decoding.beam_search") >= 0:
            model_calls += 1
            positions += rec[INFO][1]
            rows_used += rec[INFO][2]
        elif name in ("decoding.greedy_core", "decoding.beam_search_core"):
            owner = tracer.ancestor(i, "decoding.beam_search")
            if owner >= 0 and spans[owner][NAME] == "decoding.beam_search":
                scores.setdefault(owner, {})[name] = rec[INFO]
    both = [s for s in scores.values() if len(s) == 2]
    won = sum(s["decoding.greedy_core"] > s["decoding.beam_search_core"] for s in both)
    out["decoding.model_calls_per_sentence"] = model_calls / sentences if sentences else 0.0
    out["decoding.useful_position_frac"] = rows_used / positions if positions else 0.0
    out["decoding.greedy_won_frac"] = won / len(both) if both else 0.0


def per_layer(tracer: Tracer, wall_s: float, overhead_frac: float,
              rounds: int = 1) -> tuple[dict, dict]:
    """Per-layer metric values and, for each, ``present``, ``idle`` (traced
    but never called in this workload) or ``absent`` (the package no longer
    has a function it is derived from).

    Times, calls, positions and bytes are per traced round: the loop runs
    for a fixed time, so its totals would not fall when a layer gets faster.
    """
    sources = metric_sources()
    out = {name: 0.0 for name in sources}
    calls: dict[str, int] = {}
    for rec, self_s in zip(tracer.spans, tracer.self_times()):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        if f"{name}.s" in out:
            out[f"{name}.s"] += dur
        layer = name.partition(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += self_s
        info = rec[INFO]
        if name == "models.nmt_forward":
            out["models.nmt_forward.enc_positions"] += info[0]
            out["models.nmt_forward.dec_positions"] += info[1]
        elif name == "models.save_checkpoint":
            out["models.save_checkpoint.bytes"] += info
        elif name == "corpus.make_batches":
            out["corpus.pad_frac"] += info[0]
            calls["corpus.pad_cells"] = calls.get("corpus.pad_cells", 0) + info[1]
        elif name == "tensor.backward":
            out["tensor.nodes_per_backward"] += info
        elif name.startswith("cli.") and info != 0:
            out["cli.nonzero_exits"] += 1
    for name in _COUNTED:
        out[f"{name}.calls"] = float(calls.get(name, 0))
    if calls.get("tensor.backward"):
        out["tensor.nodes_per_backward"] /= calls["tensor.backward"]
    if calls.get("corpus.pad_cells"):
        out["corpus.pad_frac"] /= calls["corpus.pad_cells"]
    _training_split(tracer, out)
    _decoding_counts(tracer, out)
    for name, (unit, _, _) in sources.items():
        if unit in ("s", "bytes") or name.endswith((".calls", "_positions")):
            out[name] /= rounds
    out["trace.overhead_frac"] = overhead_frac
    out["trace.uncovered_frac"] = max(0.0, 1.0 - tracer.covered_time() / wall_s) if wall_s else 0.0

    installed = {t.span if isinstance(t.span, str) else "cli.run"
                 for t in TARGETS if f"{t.module}.{t.attr}" in tracer.installed}
    status = {}
    for name, (_, needs, trigger) in sources.items():
        if any(n not in installed for n in needs):
            status[name] = "absent"
        elif trigger is not None and not calls.get(trigger):
            status[name] = "idle"
        else:
            status[name] = "present"
    return out, status
