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

import dataclasses
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import models as M
from . import runtime
from . import tensor as T
from . import weighting as W
from .corpus import Batches, SentencePair, SentencePairBatch, make_batches
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
        checks = (
            (self.base_lr > 0, "base_lr", "must be positive"),
            (self.warmup_steps >= 1, "warmup_steps", "must be at least 1"),
            (self.phase1_steps >= 0, "phase1_steps", "must be non-negative"),
            (self.phase2_steps >= 0, "phase2_steps", "must be non-negative"),
            (self.token_budget >= 1, "token_budget", "must be positive"),
            (self.seed >= 0, "seed", "must be non-negative"),
            (0 <= self.label_smoothing < 1, "label_smoothing", "must lie in [0, 1)"),
            (self.checkpoint_every >= 0, "checkpoint_every", "must be non-negative"),
            (self.keep_checkpoints >= 0, "keep_checkpoints", "must be non-negative"),
        )
        for ok, name, reason in checks:
            if not ok:
                raise ValueError(f"invalid value for {name}: {reason}")

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
    (missing gradients count as zero so the moments stay synchronized).

    The moments are updated in place; each parameter's ``data`` is rebound
    to a new array, since it may be a view into a loaded checkpoint."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, p in tensors.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        g2 = g * g
        g2 *= 1.0 - state.beta2
        v += g2
        # p - lr * m_hat / (sqrt(v_hat) + eps), in the temporaries
        step = m / bc1
        step *= lr
        denom = np.divide(v, bc2, out=g2)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p.data = p.data - step


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
    tokens_per_sec: float = 0.0
    lm_s: float | None = None
    nmt_s: float = 0.0

    @classmethod
    def of_step(
        cls,
        step: int,
        phase: int,
        batch: SentencePairBatch,
        nmt_loss: float,
        lm_loss: float | None,
        weights: np.ndarray,
        cbmi_batch: W.CbmiBatch | None,
    ) -> "StepMetrics":
        """A step's metrics from its losses, weights and CBMI schedule; the
        wall-clock fields stay at their defaults."""
        mask = batch.tgt_mask
        live = weights[mask]
        return cls(
            step=step,
            phase=phase,
            nmt_loss=nmt_loss,
            lm_loss=lm_loss,
            mean_token_cbmi=None if cbmi_batch is None else float(cbmi_batch.token_cbmi[mask].mean()),
            weight_mean=float(live.mean()),
            weight_min=float(live.min()),
            weight_max=float(live.max()),
            clamped_frac=float((live == 0.0).mean()),
            n_tokens=batch.n_tokens,
        )

    def log_line(self) -> str:
        # the rate and the per-pass seconds are wall-clock noise; they go to
        # the timing sidecar so metrics logs stay byte-identical across
        # same-seed runs
        record = dataclasses.asdict(self)
        for wall_clock in ("tokens_per_sec", "lm_s", "nmt_s"):
            del record[wall_clock]
        return json.dumps(record, sort_keys=True)

    def timing_line(self) -> str:
        """The step's ``timing.log`` line: step, wall seconds, tokens per
        second, then the LM pass's and the NMT pass's own wall seconds
        (``-`` when no LM trains)."""
        seconds = self.n_tokens / max(self.tokens_per_sec, 1e-9)
        lm = "-" if self.lm_s is None else f"{self.lm_s:.6f}"
        return f"{self.step}\t{seconds:.6f}\t{self.tokens_per_sec:.1f}\t{lm}\t{self.nmt_s:.6f}"


def _stream_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, _STREAM_EPOCH, epoch]).generate_state(1)[0])


def compute_scheme_weights(
    scheme: WeightScheme,
    batch: SentencePairBatch,
    nmt_rows: Tensor,
    lm_log_probs: np.ndarray | None,
    id_weights: np.ndarray | None,
    phase: int,
) -> tuple[np.ndarray, W.CbmiBatch | None, tuple | None]:
    """Per-token loss weights for one batch (zeros at pad positions), the
    CBMI schedule when the scheme computes one, and the prior term of the
    loss head for the ``lm_prior`` and ``prior_select`` schemes.

    A context-free scheme looks its weights up in ``id_weights``, the run's
    ``W.id_weight_table``. Phase 1 always trains with unit weights and no
    prior. The weights and the prior distributions are constants with
    respect to the models; the prior's log-probs are differentiable in
    ``nmt_rows`` ([B*T, V]).
    """
    mask = batch.tgt_mask
    ones = mask.astype(np.float64)
    kind = scheme.kind if phase == 2 else "none"
    base = scheme.baseline
    if kind in W.LM_SCHEMES and lm_log_probs is None:
        raise TrainingError(f"{kind} weighting needs language-model probabilities")
    if kind == "none":
        return ones, None, None
    if kind in W.ID_SCHEMES:
        if id_weights is None:
            table = "a precomputed BMI table" if kind == "bmi" else "a target frequency table"
            raise TrainingError(f"{kind} weighting needs {table}")
        return id_weights[batch.tgt_out] * ones, None, None
    # the prior schemes keep unit CE weights and add a distillation term
    if kind == "lm_prior":
        prior = W.lm_prior_loss(
            nmt_rows, lm_log_probs, base.lam, base.tau, mask.reshape(-1), base.soften_teacher_only
        )
        return ones, None, prior
    p_nmt = W.gold_token_probs(nmt_rows.data, batch.tgt_out)
    if kind in ("focal", "anti_focal"):
        fn = W.focal_weight if kind == "focal" else W.anti_focal_weight
        return fn(p_nmt, base.alpha, base.gamma) * ones, None, None
    p_lm = W.gold_token_probs(lm_log_probs, batch.tgt_out)
    schedule = W.cbmi_schedule(p_nmt, p_lm, mask, scheme.cbmi)
    if kind == "cbmi":
        return schedule.final_weights, schedule, None
    # prior_select: each row's raw token CBMI picks its teacher distribution
    prior_rows = W.selected_prior_rows(
        nmt_rows.data, lm_log_probs, schedule.token_cbmi.reshape(-1), base.th1, base.th2
    )
    return ones, None, W.prior_cross_entropy_loss(nmt_rows, prior_rows, base.lam, mask.reshape(-1))


@dataclass
class TrainerState:
    params: ModelParams
    opt_nmt: AdamState
    opt_lm: AdamState | None
    step: int = 0


def _every_position(batch: SentencePairBatch) -> np.ndarray:
    # a forward's ``rows`` mask that selects every target position: the
    # [B*T, V] rows the loss head reads, without a reshape to [B, T, V]
    return np.ones(batch.tgt_in.shape, dtype=bool)


def _mean_token_ce(rows: Tensor, batch: SentencePairBatch, weights, smoothing: float, prior=None) -> Tensor:
    """Weighted, label-smoothed cross-entropy of the gold targets under the
    [B*T, V] log-probs ``rows``, divided by the batch's target token count,
    plus the prior term, if given, as one tape node."""
    targets = batch.tgt_out.reshape(-1)
    return T.weighted_cross_entropy(rows, targets, weights.reshape(-1), smoothing, 1.0 / batch.n_tokens, prior)


def _finite_value(loss: Tensor, model: str, step: int) -> float:
    """The value of ``loss``; raises unless it is finite."""
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingError(f"non-finite {model} loss at step {step}")
    return value


def _update(tensors: dict[str, Tensor], opt: AdamState, cfg: TrainConfig, lr: float) -> None:
    """Clip and apply one model's gradients, then clear them."""
    clip_gradients(tensors, cfg.clip_norm)
    adam_update(tensors, opt, lr)
    for p in tensors.values():
        p.zero_grad()


@np.errstate(over="ignore", invalid="ignore")
def lm_pass(
    state: TrainerState,
    batch: SentencePairBatch,
    cfg: TrainConfig,
    step: int,
    lr: float,
    publish: Callable[[np.ndarray], None],
) -> float:
    """The language model's part of a train step: forward, plain-CE
    backward, clip and Adam on ``lm.*``. Hands the LM's [B*T, V] log-probs
    to ``publish`` as soon as its loss is known to be finite, before the
    backward; returns the loss. Reads and writes no NMT parameter."""
    rng = _stream_rng(cfg.seed, _STREAM_LM_DROPOUT, step)
    with Tape() as tape:
        rows = lm_forward(state.params, batch.tgt_in, training=True, rng=rng,
                          rows=_every_position(batch))
        loss = _mean_token_ce(rows, batch, batch.tgt_mask.astype(np.float64), cfg.label_smoothing)
        value = _finite_value(loss, "LM", step)
        publish(rows.data)
        tape.backward(loss)
    _update(state.params.named("lm."), state.opt_lm, cfg, lr)
    return value


@np.errstate(over="ignore", invalid="ignore")
def nmt_pass(
    state: TrainerState,
    batch: SentencePairBatch,
    cfg: TrainConfig,
    step: int,
    lr: float,
    lm_log_probs: Callable[[], np.ndarray | None],
    id_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, W.CbmiBatch | None]:
    """The translation model's part of a train step: forward, the scheme's
    weights, weighted-CE backward, clip and Adam on ``nmt.*``. Calls
    ``lm_log_probs`` once, after the forward, for the LM's log-probs (None
    when the scheme needs no LM). Returns the loss, the per-token weights
    and the CBMI schedule, if the scheme computed one."""
    phase = 1 if step <= cfg.phase1_steps else 2
    rng = _stream_rng(cfg.seed, _STREAM_NMT_DROPOUT, step)
    with Tape() as tape:
        rows = nmt_forward(state.params, batch.src, batch.tgt_in, training=True, rng=rng,
                           rows=_every_position(batch))
        weights, cbmi_batch, prior = compute_scheme_weights(
            cfg.scheme, batch, rows, lm_log_probs(), id_weights, phase
        )
        loss = _mean_token_ce(rows, batch, weights, cfg.label_smoothing, prior)
        value = _finite_value(loss, "NMT", step)
        tape.backward(loss)
    _update(state.params.named("nmt."), state.opt_nmt, cfg, lr)
    return value, weights, cbmi_batch


# Below this many token-dimensions (token budget times model width) a pass
# is mostly Python dispatch of small ops, which holds the interpreter lock,
# so the two passes take turns instead of running at once. Measured with one
# BLAS thread on a 2-vCPU host: at a 1024-token budget the overlapped cbmi
# step was 6% slower than the serial one at width 16 and 7-8% faster at
# widths 32, 64 and 128; at width 64 with a 256-token budget it was 14% slower.
_MIN_OVERLAP_WORK = 32 * 1024


def _overlap_lm(cfg: TrainConfig, model: M.ModelConfig) -> bool:
    """Whether ``train_step`` runs the LM pass on its own thread: the scheme
    trains an LM, a batch's ops are large enough to run outside the
    interpreter lock, and the process may run on more cores than the BLAS
    thread count it set, so the LM pass gets a core that no BLAS worker
    keeps busy. Where the count cannot be read, the passes run in order.
    Where the LM pass shared a core with a spinning BLAS worker (OpenBLAS's
    default pool on a 2-core host), the overlapped cbmi steps of acceptance
    criterion 09 took 12-27% longer than the serial ones. Both answers give
    the same numbers."""
    if not (cfg.scheme.needs_lm and cfg.token_budget * model.embed_dim >= _MIN_OVERLAP_WORK):
        return False
    threads = runtime.blas_threads()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return threads is not None and (cores or 1) > threads


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the wall seconds the call took."""
    started = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - started


def train_step(
    state: TrainerState,
    batch: SentencePairBatch,
    cfg: TrainConfig,
    step: int,
    id_weights: np.ndarray | None = None,
    dump_sink=None,
) -> StepMetrics:
    """One optimization step: ``nmt_pass`` and, when the scheme needs an LM,
    ``lm_pass``. The NMT's weights are gradient-opaque functions of both
    models' log-probs; the NMT trains on weighted CE, the LM on plain CE.

    The LM pass runs on a worker thread, overlapping the NMT pass, when
    ``_overlap_lm`` says it pays; otherwise it runs first on this thread and
    its result fills an already-completed future. Either way the NMT pass
    takes the LM's log-probs from one slot, and the numbers are the same:
    the passes touch disjoint parameters, Adam states and dropout streams,
    and each thread records on its own tape. numpy's matmul, ufuncs and
    ``Generator.random`` release the GIL, so overlapped passes use two cores.

    numpy's floating-point error state (``np.errstate``) belongs to a
    thread, so each pass ignores overflow and invalid values itself: the
    finite checks already end a diverging run with one error line.

    Phase 1 (steps <= phase1_steps) forces unit weights; the LM trains in
    both phases whenever the configured scheme needs it, and never sees the
    weighting scheme itself.

    Failures end as they would with the LM pass run first: an error of the
    LM pass wins over one of the NMT pass, and the LM worker has ended
    whenever this returns or raises. Run serially, a failing LM pass stops
    the step before the NMT pass starts; overlapped, the NMT pass may
    already have updated the NMT's parameters.
    """
    phase = 1 if step <= cfg.phase1_steps else 2
    lr = lr_schedule(step, cfg.base_lr, cfg.warmup_steps)
    started = time.perf_counter()

    # the NMT pass empties the slot; as a future's result, the LM's [B*T, V]
    # log-probs would stay alive through the NMT backward and Adam
    slot: list[np.ndarray | None] = []
    published: Future = Future()
    waited = 0.0

    def publish(log_probs: np.ndarray | None) -> None:
        slot.append(log_probs)
        published.set_result(None)

    def lm_log_probs() -> np.ndarray | None:
        nonlocal waited
        _, waited = _timed(wait, (published, lm), return_when=FIRST_COMPLETED)
        if not slot:  # the LM pass failed before it published
            raise lm.exception()
        return slot.pop()

    worker = None
    if _overlap_lm(cfg, state.params.config):
        worker = ThreadPoolExecutor(1, thread_name_prefix=f"lm-pass-{step}")
        lm = worker.submit(_timed, lm_pass, state, batch, cfg, step, lr, publish)
    else:
        lm = Future()
        if cfg.scheme.needs_lm:
            lm.set_result(_timed(lm_pass, state, batch, cfg, step, lr, publish))
        else:
            publish(None)
            lm.set_result((None, None))
    try:
        (loss_value, weights, cbmi_batch), nmt_seconds = _timed(
            nmt_pass, state, batch, cfg, step, lr, lm_log_probs, id_weights
        )
    finally:
        if worker is not None:
            worker.shutdown()
        lm_loss, lm_seconds = lm.result()

    if dump_sink is not None and cbmi_batch is not None:
        for line in W.weight_dump_lines(step, cbmi_batch, batch.tgt_mask, batch.tgt_out):
            dump_sink.write(line + "\n")

    metrics = StepMetrics.of_step(step, phase, batch, loss_value, lm_loss, weights, cbmi_batch)
    elapsed = time.perf_counter() - started
    metrics.tokens_per_sec = (batch.n_tokens / elapsed) if elapsed > 0 else 0.0
    metrics.lm_s = lm_seconds
    metrics.nmt_s = nmt_seconds - waited
    return metrics


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


def _logged_step(line: str) -> int | None:
    # metrics lines are JSON (the config echo has no step and counts as 0);
    # timing and weight-dump lines start with the step; None marks a line
    # torn by a crash mid-write
    try:
        if line.startswith("{"):
            return json.loads(line).get("step", 0)
        return int(line.split("\t", 1)[0])
    except ValueError:
        return None


def _drop_steps_after(path: Path, step: int) -> None:
    """Remove the lines a run logged after ``step``, so that a run resumed
    from that step's checkpoint continues its logs instead of repeating them."""
    if not path.exists():
        return
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if (logged := _logged_step(line)) is not None and logged <= step]
    if len(kept) < len(lines):
        path.write_text("".join(kept), encoding="utf-8")


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
        id_weights: np.ndarray | None = None,
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
        self.id_weights = id_weights
        self.config_echo = config_echo
        self.checkpoint_meta = dict(checkpoint_meta or {})
        self.dump_weights_path = Path(dump_weights_path) if dump_weights_path else None
        self._epoch_cache: tuple[int, Batches] | None = None

        if resume is not None:
            params, extras, meta = M.load_checkpoint(resume)
            M.check_compatible(params, meta, self.checkpoint_meta, cfg.scheme.needs_lm,
                               model_config)
            step = int(meta["step"])
        else:
            params = M.init_params(model_config, cfg.seed, dtype=dtype, with_lm=cfg.scheme.needs_lm)
            extras, step = {}, 0
        self.state = TrainerState(params, *self._optimizers(params, extras), step=step)
        self.out_dir.mkdir(parents=True, exist_ok=True)

        self.batches_per_epoch = len(self._batches_for_epoch(0))

    def _optimizers(
        self, params: ModelParams, extras: dict[str, np.ndarray]
    ) -> tuple[AdamState, AdamState | None]:
        """Adam state for the NMT and, when the scheme trains one, the LM:
        the moments held in checkpoint ``extras``, or zeros if it holds none."""

        def adam(model: str) -> AdamState:
            m, v = (
                {k.removeprefix(prefix): a.copy() for k, a in extras.items() if k.startswith(prefix)}
                for prefix in (f"opt.{model}.m.", f"opt.{model}.v.")
            )
            if not m:
                return AdamState.for_params(params.named(f"{model}."))
            return AdamState(m=m, v=v, t=int(extras[f"opt.{model}.t"][0]))

        return adam("nmt"), adam("lm") if self.cfg.scheme.needs_lm else None

    def _batches_for_epoch(self, epoch: int) -> Batches:
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
        and wall-time records to timing.log; a resumed run first drops the
        lines these logs and the weight dump hold for later steps."""
        cfg = self.cfg
        metrics_path = self.out_dir / "metrics.jsonl"
        timing_path = self.out_dir / "timing.log"
        if self.state.step > 0:
            for path in (metrics_path, timing_path, self.dump_weights_path):
                if path is not None:
                    _drop_steps_after(path, self.state.step)
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
                    if cfg.reset_optimizer_phase2 and step == cfg.phase1_steps + 1:
                        self.state.opt_nmt, self.state.opt_lm = self._optimizers(self.state.params, {})
                    batch = self.batch_for_step(step)
                    try:
                        metrics = train_step(
                            self.state, batch, cfg, step, id_weights=self.id_weights, dump_sink=dump_fh
                        )
                    except (TrainingError, ValueError, FloatingPointError) as exc:
                        dump = _dump_divergent_batch(self.out_dir, step, batch)
                        raise TrainingError(
                            f"aborted at step {step} ({exc}); offending batch dumped to {dump}"
                        ) from exc
                    self.state.step = step
                    metrics_fh.write(metrics.log_line() + "\n")
                    timing_fh.write(metrics.timing_line() + "\n")
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


def teacher_forced_accuracy(params: ModelParams, batches: Sequence[SentencePairBatch]) -> float:
    """Fraction of non-pad target positions whose argmax prediction matches
    the gold token under teacher forcing (evaluation mode)."""
    correct = 0
    total = 0
    for batch in batches:
        # only the live positions are projected
        log_probs = nmt_forward(params, batch.src, batch.tgt_in, rows=batch.tgt_mask).data
        correct += int((log_probs.argmax(axis=-1) == batch.tgt_out[batch.tgt_mask]).sum())
        total += batch.n_tokens
    return correct / total if total else 0.0
