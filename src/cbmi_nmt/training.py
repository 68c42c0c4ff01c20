"""Joint two-phase optimization: cross-entropy pretraining of the
translation model (and, when the scheme needs one, the language model),
then adaptive finetuning under the configured weighting scheme.

Determinism contract: every random draw comes from a stream keyed by
(seed, stream id, step or epoch), so a run is a pure function of
(config, corpus, seed) and can resume from any checkpoint with
bitwise-identical continuation. The language model has its own dropout and
init streams, which keeps the NMT trajectory byte-identical whether or not
an LM trains alongside.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import models as M
from . import tensor as T
from . import weighting as W
from .corpus import BmiTable, FrequencyTable, SentencePair, SentencePairBatch, make_batches
from .models import ModelParams, lm_forward, nmt_forward
from .tensor import Tape, Tensor
from .weighting import WeightScheme

# rng stream ids; model init uses SeedSequence(seed).spawn inside init_params
_STREAM_NMT_DROPOUT = 101
_STREAM_LM_DROPOUT = 102
_STREAM_EPOCH = 103


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 7e-4
    warmup_steps: int = 4000
    phase1_steps: int = 1000
    phase2_steps: int = 2000
    token_budget: int = 1024
    seed: int = 1
    scheme: WeightScheme = field(default_factory=WeightScheme)
    label_smoothing: float = 0.1
    clip_norm: float = 1.0
    checkpoint_every: int = 0
    keep_checkpoints: int = 2
    reset_optimizer_phase2: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be at least 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if self.phase1_steps < 0 or self.phase2_steps < 0:
            raise ValueError("phase step counts must be non-negative")

    @property
    def total_steps(self) -> int:
        return self.phase1_steps + self.phase2_steps


def lr_schedule(step: int, base_lr: float, warmup: int) -> float:
    """Inverse-sqrt decay with a linear warmup ramp:
    base_lr * min(step^-1/2, step * warmup^-3/2) for step >= 1."""
    if step < 1:
        raise ValueError("schedule steps are 1-indexed")
    return base_lr * min(step**-0.5, step * warmup**-1.5)


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one named parameter set."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9

    @classmethod
    def for_params(cls, tensors: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in tensors.items()},
            v={k: np.zeros_like(p.data) for k, p in tensors.items()},
        )


def clip_gradients(tensors: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.
    A non-positive ``max_norm`` disables clipping. Returns the pre-clip norm."""
    total = 0.0
    for p in tensors.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = total**0.5
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in tensors.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def adam_update(tensors: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam step over every parameter with a gradient
    (missing gradients count as zero so the moments stay synchronized)."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, p in tensors.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class StepMetrics:
    step: int
    phase: int
    nmt_loss: float
    lm_loss: float | None
    mean_token_cbmi: float | None
    weight_mean: float
    weight_min: float
    weight_max: float
    clamped_frac: float
    n_tokens: int
    tokens_per_sec: float

    def log_line(self) -> str:
        # tokens_per_sec is wall-clock noise; it goes to the timing sidecar
        # so metrics logs stay byte-identical across same-seed runs
        record = {
            "step": self.step,
            "phase": self.phase,
            "nmt_loss": self.nmt_loss,
            "lm_loss": self.lm_loss,
            "mean_token_cbmi": self.mean_token_cbmi,
            "weight_mean": self.weight_mean,
            "weight_min": self.weight_min,
            "weight_max": self.weight_max,
            "clamped_frac": self.clamped_frac,
            "n_tokens": self.n_tokens,
        }
        return json.dumps(record, sort_keys=True)


def _stream_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, _STREAM_EPOCH, epoch]).generate_state(1)[0])


def compute_scheme_weights(
    scheme: WeightScheme,
    batch: SentencePairBatch,
    nmt_log_probs: np.ndarray,
    lm_log_probs: np.ndarray | None,
    freq_table: FrequencyTable | None,
    bmi_table: BmiTable | None,
    phase: int,
) -> tuple[np.ndarray, W.CbmiBatch | None]:
    """Per-token loss weights for one batch (zeros at pad positions) plus the
    CBMI schedule when the scheme computes one.

    Phase 1 always trains with unit weights. All weights are constants with
    respect to the models.
    """
    mask = batch.tgt_mask
    ones = mask.astype(np.float64)
    kind = scheme.kind if phase == 2 else "none"
    if kind in ("none", "lm_prior", "prior_select"):
        # prior schemes keep unit CE weights; their addend is separate
        return ones, None
    if kind == "cbmi":
        if lm_log_probs is None:
            raise TrainingError("cbmi weighting needs language-model probabilities")
        p_nmt = W.gold_token_probs(nmt_log_probs, batch.tgt_out)
        p_lm = W.gold_token_probs(lm_log_probs, batch.tgt_out)
        schedule = W.cbmi_schedule(p_nmt, p_lm, mask, scheme.cbmi)
        return schedule.final_weights, schedule
    if kind in ("freq_exp", "freq_chi"):
        if freq_table is None:
            raise TrainingError(f"{kind} weighting needs a target frequency table")
        counts = freq_table.counts[batch.tgt_out]
        fn = W.freq_exponential_weight if kind == "freq_exp" else W.freq_chi_square_weight
        return fn(counts, scheme.baseline.freq_a, scheme.baseline.freq_t) * ones, None
    if kind == "bmi":
        if bmi_table is None:
            raise TrainingError("bmi weighting needs a precomputed BMI table")
        raw = W.bmi_weight(bmi_table.values[batch.tgt_out], scheme.baseline.bmi_s, scheme.baseline.bmi_b)
        # the affine map can dip below zero on very negative table values;
        # negative loss weights would flip gradients, so clamp
        return np.maximum(raw, 0.0) * ones, None
    if kind == "focal":
        p = W.gold_token_probs(nmt_log_probs, batch.tgt_out)
        return W.focal_weight(p, scheme.baseline.alpha, scheme.baseline.gamma) * ones, None
    if kind == "anti_focal":
        p = W.gold_token_probs(nmt_log_probs, batch.tgt_out)
        return W.anti_focal_weight(p, scheme.baseline.alpha, scheme.baseline.gamma) * ones, None
    raise TrainingError(f"unhandled scheme {kind!r}")


@dataclass
class TrainerState:
    params: ModelParams
    opt_nmt: AdamState
    opt_lm: AdamState | None
    step: int = 0


def train_step(
    state: TrainerState,
    batch: SentencePairBatch,
    cfg: TrainConfig,
    step: int,
    freq_table: FrequencyTable | None = None,
    bmi_table: BmiTable | None = None,
    dump_sink=None,
) -> StepMetrics:
    """One optimization step: NMT forward, optional LM forward, gradient-
    opaque weights, weighted-CE update of the NMT, plain-CE update of the LM.

    Phase 1 (steps <= phase1_steps) forces unit weights; the LM trains in
    both phases whenever the configured scheme needs it, and never sees the
    weighting scheme itself.
    """
    phase = 1 if step <= cfg.phase1_steps else 2
    scheme = cfg.scheme
    params = state.params
    tensors = params.tensors
    nmt_tensors = params.named("nmt.")
    lm_tensors = params.named("lm.") if scheme.needs_lm else {}
    mask = batch.tgt_mask
    n_tokens = batch.n_tokens
    b, t_len = batch.tgt_out.shape
    flat_targets = batch.tgt_out.reshape(-1)
    vocab = params.config.vocab_size_tgt
    started = time.perf_counter()

    lm_log_probs_data = None
    if scheme.needs_lm:
        lm_rng = _stream_rng(cfg.seed, _STREAM_LM_DROPOUT, step)
        with Tape() as lm_tape:
            lm_out = lm_forward(params, batch.tgt_in, training=True, rng=lm_rng)
            lm_log_probs_data = lm_out.data
            lm_flat = T.reshape(lm_out, (b * t_len, vocab))
            lm_loss = T.mul(
                T.weighted_cross_entropy(
                    lm_flat, flat_targets, mask.reshape(-1).astype(np.float64), cfg.label_smoothing
                ),
                1.0 / n_tokens,
            )
            lm_loss_value = lm_loss.item()
            if not np.isfinite(lm_loss_value):
                raise TrainingError(f"non-finite LM loss at step {step}")
            lm_tape.backward(lm_loss)
    else:
        lm_loss_value = None

    nmt_rng = _stream_rng(cfg.seed, _STREAM_NMT_DROPOUT, step)
    with Tape() as nmt_tape:
        nmt_out = nmt_forward(params, batch.src, batch.tgt_in, training=True, rng=nmt_rng)
        weights, cbmi_batch = compute_scheme_weights(
            scheme, batch, nmt_out.data, lm_log_probs_data, freq_table, bmi_table, phase
        )
        nmt_flat = T.reshape(nmt_out, (b * t_len, vocab))
        loss = T.mul(
            T.weighted_cross_entropy(
                nmt_flat, flat_targets, weights.reshape(-1), cfg.label_smoothing
            ),
            1.0 / n_tokens,
        )
        if phase == 2 and scheme.kind == "lm_prior":
            addend = W.lm_prior_loss(
                nmt_flat,
                lm_log_probs_data.reshape(b * t_len, vocab),
                scheme.baseline.lam,
                scheme.baseline.tau,
                mask.reshape(-1),
                scheme.baseline.soften_teacher_only,
            )
            loss = T.add(loss, addend)
        elif phase == 2 and scheme.kind == "prior_select":
            raw_cbmi = W.masked_token_cbmi(
                W.gold_token_probs(nmt_out.data, batch.tgt_out),
                W.gold_token_probs(lm_log_probs_data, batch.tgt_out),
                mask,
            )
            prior_rows = W.selected_prior_rows(
                nmt_out.data.reshape(b * t_len, vocab),
                lm_log_probs_data.reshape(b * t_len, vocab),
                raw_cbmi.reshape(-1),
                scheme.baseline.th1,
                scheme.baseline.th2,
            )
            loss = T.add(
                loss,
                W.prior_cross_entropy_loss(
                    nmt_flat, prior_rows, scheme.baseline.lam, mask.reshape(-1)
                ),
            )
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise TrainingError(f"non-finite NMT loss at step {step}")
        nmt_tape.backward(loss)

    lr = lr_schedule(step, cfg.base_lr, cfg.warmup_steps)
    clip_gradients(nmt_tensors, cfg.clip_norm)
    adam_update(nmt_tensors, state.opt_nmt, lr)
    if scheme.needs_lm:
        clip_gradients(lm_tensors, cfg.clip_norm)
        adam_update(lm_tensors, state.opt_lm, lr)
    for p in tensors.values():
        p.zero_grad()

    if dump_sink is not None and cbmi_batch is not None:
        records = [cbmi_batch.record(i) for i in range(batch.n_sentences)]
        for line in W.weight_dump_lines(step, records, mask, batch.tgt_out):
            dump_sink.write(line + "\n")

    live = weights[mask]
    elapsed = time.perf_counter() - started
    return StepMetrics(
        step=step,
        phase=phase,
        nmt_loss=float(loss_value),
        lm_loss=None if lm_loss_value is None else float(lm_loss_value),
        mean_token_cbmi=None if cbmi_batch is None else float(cbmi_batch.token_cbmi[mask].mean()),
        weight_mean=float(live.mean()),
        weight_min=float(live.min()),
        weight_max=float(live.max()),
        clamped_frac=float((live == 0.0).mean()),
        n_tokens=n_tokens,
        tokens_per_sec=(n_tokens / elapsed) if elapsed > 0 else 0.0,
    )


def _dump_divergent_batch(out_dir: Path, step: int, batch: SentencePairBatch) -> Path:
    path = out_dir / f"divergence_step{step}.json"
    payload = {
        "step": step,
        "src": batch.src.tolist(),
        "tgt_in": batch.tgt_in.tolist(),
        "tgt_out": batch.tgt_out.tolist(),
        "indices": batch.indices,
    }
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


class Trainer:
    """Owns parameters, optimizer state, and the deterministic batch
    schedule for one training run."""

    def __init__(
        self,
        cfg: TrainConfig,
        model_config: M.ModelConfig,
        pairs: list[SentencePair],
        out_dir: str | Path,
        dtype=np.float32,
        freq_table: FrequencyTable | None = None,
        bmi_table: BmiTable | None = None,
        resume: str | Path | None = None,
        config_echo: dict | None = None,
        checkpoint_meta: dict[str, str] | None = None,
        dump_weights_path: str | Path | None = None,
    ):
        if not pairs:
            raise TrainingError("cannot train on an empty corpus")
        self.cfg = cfg
        self.pairs = pairs
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.freq_table = freq_table
        self.bmi_table = bmi_table
        self.config_echo = config_echo
        self.checkpoint_meta = dict(checkpoint_meta or {})
        self.dump_weights_path = Path(dump_weights_path) if dump_weights_path else None
        self._epoch_cache: tuple[int, list[SentencePairBatch]] | None = None
        self._phase2_reset_done = False

        if resume is not None:
            params, extras, meta = M.load_checkpoint(resume)
            if params.config != model_config:
                raise TrainingError("checkpoint model config does not match the requested config")
            self._check_vocab_meta(meta)
            self.state = TrainerState(
                params=params,
                opt_nmt=self._adam_from_extras(extras, "nmt", params),
                opt_lm=self._adam_from_extras(extras, "lm", params) if cfg.scheme.needs_lm else None,
                step=int(meta["step"]),
            )
            self._phase2_reset_done = self.state.step > cfg.phase1_steps
        else:
            params = M.init_params(model_config, cfg.seed, dtype=dtype, with_lm=cfg.scheme.needs_lm)
            self.state = TrainerState(
                params=params,
                opt_nmt=AdamState.for_params(params.named("nmt.")),
                opt_lm=AdamState.for_params(params.named("lm.")) if cfg.scheme.needs_lm else None,
            )

        n0 = len(self._batches_for_epoch(0))
        self.batches_per_epoch = n0

    def _check_vocab_meta(self, meta: dict[str, str]) -> None:
        for key in ("vocab_src_hash", "vocab_tgt_hash"):
            if key in meta and key in self.checkpoint_meta:
                if meta[key] != self.checkpoint_meta[key]:
                    raise TrainingError(
                        f"checkpoint {key} does not match the current corpus/vocabulary"
                    )

    @staticmethod
    def _adam_from_extras(extras: dict[str, np.ndarray], model: str, params: ModelParams) -> AdamState:
        prefix_m = f"opt.{model}.m."
        prefix_v = f"opt.{model}.v."
        m = {k[len(prefix_m):]: v.copy() for k, v in extras.items() if k.startswith(prefix_m)}
        v = {k[len(prefix_v):]: v_.copy() for k, v_ in extras.items() if k.startswith(prefix_v)}
        if not m:
            return AdamState.for_params(params.named(f"{model}."))
        t = int(extras[f"opt.{model}.t"][0])
        return AdamState(m=m, v=v, t=t)

    def _batches_for_epoch(self, epoch: int) -> list[SentencePairBatch]:
        if self._epoch_cache is not None and self._epoch_cache[0] == epoch:
            return self._epoch_cache[1]
        batches = make_batches(self.pairs, self.cfg.token_budget, _epoch_seed(self.cfg.seed, epoch))
        self._epoch_cache = (epoch, batches)
        return batches

    def batch_for_step(self, step: int) -> SentencePairBatch:
        index = step - 1
        epoch, offset = divmod(index, self.batches_per_epoch)
        return self._batches_for_epoch(epoch)[offset]

    def _opt_extras(self) -> dict[str, np.ndarray]:
        extras: dict[str, np.ndarray] = {}
        for label, opt in (("nmt", self.state.opt_nmt), ("lm", self.state.opt_lm)):
            if opt is None:
                continue
            extras[f"opt.{label}.t"] = np.array([float(opt.t)])
            for name, arr in opt.m.items():
                extras[f"opt.{label}.m.{name}"] = arr
            for name, arr in opt.v.items():
                extras[f"opt.{label}.v.{name}"] = arr
        return extras

    def save_checkpoint(self, tag: str) -> Path:
        return M.save_checkpoint(
            self.out_dir / f"checkpoint_{tag}",
            self.state.params,
            step=self.state.step,
            extra_arrays=self._opt_extras(),
            meta=self.checkpoint_meta,
        )

    def _prune_checkpoints(self) -> None:
        import shutil

        numbered = sorted(
            (p for p in self.out_dir.glob("checkpoint_step*") if p.is_dir()),
            key=lambda p: int(p.name.removeprefix("checkpoint_step")),
        )
        for stale in numbered[: max(0, len(numbered) - self.cfg.keep_checkpoints)]:
            shutil.rmtree(stale)

    def run(self) -> Path:
        """Run the remaining steps of the schedule; returns the final
        checkpoint path. Appends one metrics line per step to metrics.jsonl
        and wall-time records to timing.log."""
        cfg = self.cfg
        metrics_path = self.out_dir / "metrics.jsonl"
        timing_path = self.out_dir / "timing.log"
        dump_fh = None
        if self.dump_weights_path is not None:
            dump_fh = open(self.dump_weights_path, "a", encoding="utf-8")
        with open(metrics_path, "a", encoding="utf-8") as metrics_fh, open(
            timing_path, "a", encoding="utf-8"
        ) as timing_fh:
            if self.config_echo is not None and self.state.step == 0:
                metrics_fh.write(
                    json.dumps({"event": "config", **self.config_echo}, sort_keys=True) + "\n"
                )
            try:
                while self.state.step < cfg.total_steps:
                    step = self.state.step + 1
                    if (
                        cfg.reset_optimizer_phase2
                        and not self._phase2_reset_done
                        and step > cfg.phase1_steps
                    ):
                        self.state.opt_nmt = AdamState.for_params(self.state.params.named("nmt."))
                        if self.state.opt_lm is not None:
                            self.state.opt_lm = AdamState.for_params(self.state.params.named("lm."))
                        self._phase2_reset_done = True
                    batch = self.batch_for_step(step)
                    try:
                        metrics = train_step(
                            self.state,
                            batch,
                            cfg,
                            step,
                            freq_table=self.freq_table,
                            bmi_table=self.bmi_table,
                            dump_sink=dump_fh,
                        )
                    except (TrainingError, ValueError, FloatingPointError) as exc:
                        dump = _dump_divergent_batch(self.out_dir, step, batch)
                        raise TrainingError(
                            f"aborted at step {step} ({exc}); offending batch dumped to {dump}"
                        ) from exc
                    self.state.step = step
                    metrics_fh.write(metrics.log_line() + "\n")
                    timing_fh.write(
                        f"{step}\t{metrics.n_tokens / max(metrics.tokens_per_sec, 1e-9):.6f}"
                        f"\t{metrics.tokens_per_sec:.1f}\n"
                    )
                    if cfg.checkpoint_every > 0 and step % cfg.checkpoint_every == 0:
                        self.save_checkpoint(f"step{step}")
                        self._prune_checkpoints()
            finally:
                if dump_fh is not None:
                    dump_fh.close()
        return self.save_checkpoint("final")


def train(
    cfg: TrainConfig,
    model_config: M.ModelConfig,
    pairs: list[SentencePair],
    out_dir: str | Path,
    **trainer_kwargs,
) -> Path:
    """Convenience wrapper: construct a Trainer and run the full schedule."""
    return Trainer(cfg, model_config, pairs, out_dir, **trainer_kwargs).run()


def teacher_forced_accuracy(params: ModelParams, batches: list[SentencePairBatch]) -> float:
    """Fraction of non-pad target positions whose argmax prediction matches
    the gold token under teacher forcing (evaluation mode)."""
    correct = 0
    total = 0
    for batch in batches:
        log_probs = nmt_forward(params, batch.src, batch.tgt_in).data
        pred = log_probs.argmax(axis=-1)
        hit = (pred == batch.tgt_out) & batch.tgt_mask
        correct += int(hit.sum())
        total += batch.n_tokens
    return correct / total if total else 0.0
