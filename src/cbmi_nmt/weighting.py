"""Token- and sentence-level CBMI weighting plus the baseline weighting
schemes and prior-distribution objectives.

CBMI (conditional bilingual mutual information) of a target token given its
gold prefix is the log quotient of the translation-model and language-model
probabilities of that token, ``log(p_nmt / p_lm)``. Token values are
normalized within each sentence and scaled into token weights; their
per-sentence mean is normalized across the mini-batch and scaled into a
sentence weight; the final per-token weight is the product of the two.

The frequency and BMI baselines are context-free: a token's weight is a
function of its target id alone, so ``id_weight_table`` builds it once a
run, for training to look up. CBMI depends on the target context, so
``cbmi_schedule`` runs at each step, on both models' gold-token
probabilities, padded [sentences, positions] or of the live positions
alone; ``analyze-cbmi`` and ``dump-weights`` read their CBMI from it too.

Everything here is a pure function of value inputs. Weights never carry
gradients: callers feed probabilities read off the forward pass, and the
loss treats the resulting weights as constants.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import EOS_ID, FrequencyTable, SentencePair
from .tensor import Tensor


@dataclass(frozen=True)
class CbmiConfig:
    """Scales and ablation switches for the CBMI weight schedule."""

    scale_t: float = 0.1
    scale_s: float = 0.3
    use_token: bool = True
    use_sentence: bool = True
    sigma_floor: float = 1e-6

    def __post_init__(self):
        for name in ("scale_t", "scale_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"invalid value for {name}: must be non-negative")
        if self.sigma_floor <= 0:
            raise ValueError("invalid value for sigma_floor: must be positive")


@dataclass(frozen=True)
class BaselineConfig:
    """Hyperparameters of the baseline weighting schemes."""

    freq_a: float = 1.0
    freq_t: float = 1.75
    bmi_s: float = 0.15
    bmi_b: float = 0.8
    alpha: float = 0.1
    gamma: float = 1.0
    lam: float = 0.1
    tau: float = 2.0
    th1: float = 0.0
    th2: float = 8.0
    soften_teacher_only: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("invalid value for tau: must be positive")
        if self.th1 >= self.th2:
            raise ValueError("invalid value for th1: must be below th2")


SCHEME_KINDS = (
    "none",
    "cbmi",
    "freq_exp",
    "freq_chi",
    "bmi",
    "focal",
    "anti_focal",
    "lm_prior",
    "prior_select",
)

# schemes whose weights or prior term need language-model probabilities
LM_SCHEMES = frozenset({"cbmi", "lm_prior", "prior_select"})
# schemes whose weight is a function of the target token id alone
ID_SCHEMES = frozenset({"freq_exp", "freq_chi", "bmi"})


@dataclass(frozen=True)
class WeightScheme:
    """Tagged selection of one weighting scheme with its hyperparameters."""

    kind: str = "none"
    cbmi: CbmiConfig = field(default_factory=CbmiConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown weighting scheme {self.kind!r}")

    @property
    def needs_lm(self) -> bool:
        return self.kind in LM_SCHEMES


@dataclass
class CbmiRecord:
    """Per-sentence CBMI values, normalization results, and weights."""

    token_cbmi: np.ndarray
    sent_cbmi: float
    norm_token_cbmi: np.ndarray
    token_weights: np.ndarray
    sentence_weight: float
    final_weights: np.ndarray


# ---------------------------------------------------------------------------
# CBMI core


def gold_token_probs(log_probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """exp of the gold-token log-probabilities in float64, shaped like
    ``targets``, of log-probs with one row per target, flat or not."""
    rows = log_probs.reshape(-1, log_probs.shape[-1])
    gold = rows[np.arange(rows.shape[0]), targets.reshape(-1)]
    return np.exp(gold.astype(np.float64)).reshape(targets.shape)


@dataclass
class CbmiBatch:
    """Vectorized CBMI schedule over one padded batch; the [B, T] arrays hold
    zeros at pad positions."""

    token_cbmi: np.ndarray
    sent_cbmi: np.ndarray
    norm_token_cbmi: np.ndarray
    token_weights: np.ndarray
    sentence_weights: np.ndarray
    final_weights: np.ndarray

    def record(self, i: int) -> CbmiRecord:
        return CbmiRecord(
            token_cbmi=self.token_cbmi[i],
            sent_cbmi=float(self.sent_cbmi[i]),
            norm_token_cbmi=self.norm_token_cbmi[i],
            token_weights=self.token_weights[i],
            sentence_weight=float(self.sentence_weights[i]),
            final_weights=self.final_weights[i],
        )


def cbmi_schedule(
    p_nmt: np.ndarray,
    p_lm: np.ndarray,
    mask: np.ndarray,
    config: CbmiConfig,
) -> CbmiBatch:
    """Full CBMI weight schedule for a padded batch of gold-token probability
    pairs, given [sentences, positions] like ``mask`` (pad entries ignored)
    or as the [n] values of its live positions in ``np.nonzero`` order."""
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    if (counts < 1).any():
        raise ValueError("every sentence needs at least one non-pad position")
    probs = [np.asarray(p, dtype=np.float64) for p in (p_nmt, p_lm)]
    p_nmt, p_lm = (p[mask] if p.shape == mask.shape else p for p in probs)
    if (p_nmt <= 0).any() or (p_lm <= 0).any():
        raise ValueError("zero probability fed to CBMI; upstream softmax is broken")
    values = np.zeros(mask.shape)
    values[mask] = np.log(p_nmt) - np.log(p_lm)
    sent = values.sum(axis=1) / counts
    var = np.where(mask, (values - sent[:, None]) ** 2, 0.0).sum(axis=1) / counts
    std = np.maximum(np.sqrt(var), config.sigma_floor)
    norm_tok = np.where(mask, (values - sent[:, None]) / std[:, None], 0.0)
    w_t = np.where(mask, np.maximum(0.0, config.scale_t * norm_tok + 1.0), 0.0)

    mu_s = sent.mean()
    std_s = max(float(sent.std()), config.sigma_floor)
    w_s = np.maximum(0.0, config.scale_s * (sent - mu_s) / std_s + 1.0)

    eff_t = w_t if config.use_token else mask.astype(np.float64)
    eff_s = w_s if config.use_sentence else np.ones_like(w_s)
    final = eff_t * eff_s[:, None]
    return CbmiBatch(
        token_cbmi=values,
        sent_cbmi=sent,
        norm_token_cbmi=norm_tok,
        token_weights=w_t,
        sentence_weights=w_s,
        final_weights=final,
    )


def cbmi_records_for_batch(
    p_nmt: np.ndarray,
    p_lm: np.ndarray,
    mask: np.ndarray,
    config: CbmiConfig,
) -> list[CbmiRecord]:
    batch = cbmi_schedule(p_nmt, p_lm, mask, config)
    return [batch.record(i) for i in range(batch.token_cbmi.shape[0])]


# ---------------------------------------------------------------------------
# baseline schemes


def freq_exponential_weight(count: int | np.ndarray, a: float, t: float):
    """A * exp(-T * count) + 1; boosts rare tokens, asymptotes to 1."""
    return a * np.exp(-t * np.asarray(count, dtype=np.float64)) + 1.0


def freq_chi_square_weight(count: int | np.ndarray, a: float, t: float):
    """A * count^2 * exp(-T * count) + 1; additionally damps the rarest tokens."""
    c = np.asarray(count, dtype=np.float64)
    return a * c * c * np.exp(-t * c) + 1.0


def bmi_weight(bmi: float | np.ndarray, s: float, b: float):
    """Affine rescaling S * BMI + B of the precomputed table value."""
    return s * np.asarray(bmi, dtype=np.float64) + b


def id_weight_table(
    scheme: WeightScheme,
    pairs: Sequence[SentencePair],
    vocab_size: int,
    bmi_values: np.ndarray | None = None,
) -> np.ndarray | None:
    """The float64 loss weight of each target id under a context-free
    scheme, built once a run; None for other schemes and for ``bmi``
    without ``bmi_values``. The freq schemes map the target counts of
    ``pairs``, with ``</s>`` once a pair, as it is trained on; ``bmi``
    clamps at 0, as a negative weight would flip the gradient. The maps are
    element-wise, so a looked-up weight has the bits of a per-position map."""
    base = scheme.baseline
    if scheme.kind == "bmi" and bmi_values is not None:
        return np.maximum(bmi_weight(bmi_values, base.bmi_s, base.bmi_b), 0.0)
    if scheme.kind not in ("freq_exp", "freq_chi"):
        return None
    counts = FrequencyTable.from_pairs(pairs, "tgt", vocab_size).counts
    counts[EOS_ID] = len(pairs)
    fn = freq_exponential_weight if scheme.kind == "freq_exp" else freq_chi_square_weight
    return fn(counts, base.freq_a, base.freq_t)


def focal_loss(p: float | np.ndarray, alpha: float, gamma: float):
    """-(1 - alpha * p)^gamma * log(p): down-weights confident tokens."""
    p = np.asarray(p, dtype=np.float64)
    return -((1.0 - alpha * p) ** gamma) * np.log(p)


def anti_focal_loss(p: float | np.ndarray, alpha: float, gamma: float):
    """-(1 + alpha * p)^gamma * log(p): up-weights confident tokens."""
    p = np.asarray(p, dtype=np.float64)
    return -((1.0 + alpha * p) ** gamma) * np.log(p)


def focal_weight(p: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    return (1.0 - alpha * np.asarray(p, dtype=np.float64)) ** gamma


def anti_focal_weight(p: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    return (1.0 + alpha * np.asarray(p, dtype=np.float64)) ** gamma


def _softened_probs(logits: np.ndarray, tau: float) -> np.ndarray:
    """Softmax of ``logits / tau`` over the last axis, computed in
    ``logits``' own storage: callers pass an array they allocated."""
    if tau != 1.0:
        logits /= tau
    logits -= T._row_max(logits)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def lm_prior_loss(
    nmt_log_probs: Tensor,
    lm_log_probs: np.ndarray,
    lam: float,
    tau: float,
    mask: np.ndarray | None = None,
    soften_teacher_only: bool = False,
) -> tuple[Tensor, np.ndarray, float, float]:
    """The prior term of ``T.weighted_cross_entropy`` for the distillation
    loss ``lam * KL(q_lm || p_nmt)``, mean over non-pad rows.

    The language-model distribution is the gradient-opaque teacher. Both
    distributions are softened by ``tau`` unless ``soften_teacher_only``.
    The teacher may be logits (softmax ignores a per-row shift); the student
    must be log-probabilities, which unsoftened (``tau`` 1 or
    ``soften_teacher_only``) are its term as they are.
    """
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    q = _softened_probs(np.array(lm_log_probs, dtype=np.float64), tau)
    if soften_teacher_only or tau == 1.0:
        student_log = nmt_log_probs
    else:
        student_log = T.log_softmax(T.mul(nmt_log_probs, 1.0 / tau))
    # KL(q||p) = sum q log q - sum q log p; the first term is the constant k
    return prior_cross_entropy_loss(student_log, q, lam, mask, q * np.where(q > 0, np.log(q), 0.0))


class Prior(enum.Enum):
    LM = "lm"
    TM = "tm"
    CBMI = "cbmi"


def select_prior(cbmi: float, th1: float, th2: float) -> Prior:
    """Partition the raw token-CBMI line into three prior regimes:
    LM for cbmi <= th1, TM for th1 < cbmi <= th2, CBMI above th2."""
    if th1 >= th2:
        raise ValueError(f"thresholds must satisfy th1 < th2, got {th1} >= {th2}")
    if cbmi <= th1:
        return Prior.LM
    if cbmi <= th2:
        return Prior.TM
    return Prior.CBMI


def cbmi_prior_distribution(nmt_log_probs_row: np.ndarray, lm_log_probs_row: np.ndarray) -> np.ndarray:
    """Softmax over full-vocabulary CBMI values (raw, not normalized)."""
    diff = np.asarray(nmt_log_probs_row, dtype=np.float64) - np.asarray(
        lm_log_probs_row, dtype=np.float64
    )
    diff = diff - diff.max(axis=-1, keepdims=True)
    exp = np.exp(diff)
    return exp / exp.sum(axis=-1, keepdims=True)


def selected_prior_rows(
    nmt_log_probs: np.ndarray,
    lm_log_probs: np.ndarray,
    token_cbmi_rows: np.ndarray,
    th1: float,
    th2: float,
) -> np.ndarray:
    """Per-row teacher distribution chosen by raw token CBMI: the LM
    distribution, the (detached) TM distribution, or the softmax-normalized
    full-vocabulary CBMI distribution (row regimes as in ``select_prior``)."""
    if th1 >= th2:
        raise ValueError(f"thresholds must satisfy th1 < th2, got {th1} >= {th2}")
    nmt, lm = np.asarray(nmt_log_probs), np.asarray(lm_log_probs)
    cbmi = np.asarray(token_cbmi_rows, dtype=np.float64)
    lm_rows = cbmi <= th1
    cbmi_rows = ~(cbmi <= th2)  # not `> th2`: as in select_prior, NaN picks CBMI
    logits = nmt.astype(np.float64)
    logits[lm_rows] = lm[lm_rows]
    logits[cbmi_rows] -= lm[cbmi_rows]  # the regimes are disjoint: these rows hold nmt
    return _softened_probs(logits, 1.0)


def prior_cross_entropy_loss(
    nmt_log_probs: Tensor,
    prior_rows: np.ndarray,
    lam: float,
    mask: np.ndarray | None = None,
    q_log_q: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray, float, float]:
    """The prior term ``(p, q, c, k)`` of ``T.weighted_cross_entropy`` for
    ``lam * mean_rows(-sum_v q(v) log p(v))`` against gradient-opaque
    per-row prior distributions ``q``; given the rows' ``q_log_q``, the
    constant ``k`` adds ``lam * mean_rows(sum_v q_log_q)``."""
    rows = nmt_log_probs.data.shape[0]
    if mask is None:
        mask = np.ones(rows, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.sum())
    if n == 0:
        raise ValueError("prior loss needs at least one non-pad row")
    q_masked = (np.asarray(prior_rows, dtype=np.float64) * mask[:, None]).astype(
        nmt_log_probs.data.dtype
    )
    k = 0.0 if q_log_q is None else lam * float((q_log_q * mask[:, None]).sum()) / n
    return nmt_log_probs, q_masked, -lam / n, k


def weight_dump_lines(
    step: int,
    schedule: CbmiBatch,
    mask: np.ndarray,
    token_ids: np.ndarray,
) -> list[str]:
    """One analysis line per non-pad token position, in row-major order:
    step, sentence, position, token id, raw CBMI, the two weights, final."""
    rows, cols = np.nonzero(mask)
    columns = zip(
        rows.tolist(),
        cols.tolist(),
        token_ids[rows, cols].tolist(),
        schedule.token_cbmi[rows, cols].tolist(),
        schedule.token_weights[rows, cols].tolist(),
        schedule.sentence_weights[rows].tolist(),
        schedule.final_weights[rows, cols].tolist(),
    )
    return [
        f"{step}\t{i}\t{j}\t{tok}\t{cbmi:.6f}\t{w_t:.6f}\t{w_s:.6f}\t{w:.6f}"
        for i, j, tok, cbmi, w_t, w_s, w in columns
    ]
