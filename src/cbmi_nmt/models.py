"""Translation model (transformer encoder-decoder) and target-side language
model (the same decoder stack without cross-attention), built on the tape
autodiff engine.

Both models consume teacher-forced inputs and emit per-position
log-probability rows; ``DecoderState`` runs the translation model one
position at a time for decoding, through the same layer functions. The LM
has no source input anywhere in its graph, so source-independence holds
structurally. Layer placement is PostNorm;
positional encodings are sinusoidal; embeddings are never shared between
the two models.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .corpus import PAD_ID, read_lines
from .tensor import Tensor

NEG_INF = -1e9


@dataclass(frozen=True)
class ModelConfig:
    vocab_size_src: int
    vocab_size_tgt: int
    embed_dim: int = 64
    ff_dim: int = 128
    enc_layers: int = 2
    dec_layers: int = 2
    lm_layers: int = 2
    heads: int = 4
    dropout_residual: float = 0.1
    dropout_attention: float = 0.1
    dropout_activation: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size_src", "vocab_size_tgt", "embed_dim", "ff_dim", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"invalid value for {name}: must be positive")
        for name in ("enc_layers", "dec_layers", "lm_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"invalid value for {name}: must be non-negative")
        for name in ("dropout_residual", "dropout_attention", "dropout_activation"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"invalid value for {name}: must lie in [0, 1)")
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"invalid value for heads: embed_dim {self.embed_dim} must be divisible by "
                f"heads {self.heads}"
            )


# model-shape values of each named preset; "desk" is the ModelConfig default,
# small enough to keep the whole test suite CPU-friendly while preserving
# every structural property of the full-size presets
MODEL_PRESETS: dict[str, dict[str, object]] = {
    "desk": {},
    "base": dict(embed_dim=512, ff_dim=2048, enc_layers=6, dec_layers=6, lm_layers=6,
                 heads=8, dropout_residual=0.1),
    "big": dict(embed_dim=1024, ff_dim=4096, enc_layers=6, dec_layers=6, lm_layers=6,
                heads=16, dropout_residual=0.3),
}


@dataclass
class ModelParams:
    """Named parameter tensors for both models, flat dict keyed by
    'nmt.*' / 'lm.*' paths."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {k: v for k, v in self.tensors.items() if k.startswith(prefix)}

    def count(self, prefix: str = "") -> int:
        return sum(t.size for k, t in self.tensors.items() if k.startswith(prefix))

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype

    @property
    def has_lm(self) -> bool:
        return any(k.startswith("lm.") for k in self.tensors)


# ---------------------------------------------------------------------------
# initialization


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def _embed_init(rng: np.random.Generator, vocab: int, dim: int, dtype) -> np.ndarray:
    return rng.normal(0.0, dim**-0.5, size=(vocab, dim)).astype(dtype)


def _add_attention(out, rng, prefix: str, dim: int, dtype) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{name}"] = _xavier(rng, dim, dim, dtype)
    for name in ("bq", "bk", "bv", "bo"):
        out[f"{prefix}.{name}"] = np.zeros(dim, dtype=dtype)


def _add_ff(out, rng, prefix: str, dim: int, ff_dim: int, dtype) -> None:
    out[f"{prefix}.w1"] = _xavier(rng, dim, ff_dim, dtype)
    out[f"{prefix}.b1"] = np.zeros(ff_dim, dtype=dtype)
    out[f"{prefix}.w2"] = _xavier(rng, ff_dim, dim, dtype)
    out[f"{prefix}.b2"] = np.zeros(dim, dtype=dtype)


def _add_layer_norm(out, prefix: str, dim: int, dtype) -> None:
    out[f"{prefix}.g"] = np.ones(dim, dtype=dtype)
    out[f"{prefix}.b"] = np.zeros(dim, dtype=dtype)


def _add_stack(out, rng, prefix: str, n_layers: int, d: int, f: int, dtype, cross: bool = False) -> None:
    # PostNorm layers: self-attention, then cross-attention when asked, then
    # feed-forward; layer norm ln<k> follows the k-th sublayer
    for i in range(n_layers):
        layer = f"{prefix}.{i}"
        _add_attention(out, rng, f"{layer}.self", d, dtype)
        _add_layer_norm(out, f"{layer}.ln1", d, dtype)
        if cross:
            _add_attention(out, rng, f"{layer}.cross", d, dtype)
            _add_layer_norm(out, f"{layer}.ln2", d, dtype)
        _add_ff(out, rng, f"{layer}.ff", d, f, dtype)
        _add_layer_norm(out, f"{layer}.ln{3 if cross else 2}", d, dtype)


def init_params(config: ModelConfig, seed: int, dtype=np.float32, with_lm: bool = True) -> ModelParams:
    """Deterministic initialization. The NMT and LM draws come from
    independent seed streams, so NMT parameters are bitwise identical whether
    or not an LM is instantiated alongside."""
    nmt_seq, lm_seq = np.random.SeedSequence(seed).spawn(2)
    d, f = config.embed_dim, config.ff_dim
    arrays: dict[str, np.ndarray] = {}

    rng = np.random.default_rng(nmt_seq)
    arrays["nmt.src_embed"] = _embed_init(rng, config.vocab_size_src, d, dtype)
    arrays["nmt.tgt_embed"] = _embed_init(rng, config.vocab_size_tgt, d, dtype)
    _add_stack(arrays, rng, "nmt.enc", config.enc_layers, d, f, dtype)
    _add_stack(arrays, rng, "nmt.dec", config.dec_layers, d, f, dtype, cross=True)
    arrays["nmt.out.w"] = _xavier(rng, d, config.vocab_size_tgt, dtype)
    arrays["nmt.out.b"] = np.zeros(config.vocab_size_tgt, dtype=dtype)

    if with_lm:
        rng = np.random.default_rng(lm_seq)
        arrays["lm.embed"] = _embed_init(rng, config.vocab_size_tgt, d, dtype)
        _add_stack(arrays, rng, "lm.layer", config.lm_layers, d, f, dtype)
        arrays["lm.out.w"] = _xavier(rng, d, config.vocab_size_tgt, dtype)
        arrays["lm.out.b"] = np.zeros(config.vocab_size_tgt, dtype=dtype)

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    return ModelParams(config=config, tensors=tensors)


# closed-form parameter counts, used as an oracle against actual tensors


def attention_param_count(d: int) -> int:
    return 4 * d * d + 4 * d


def ff_param_count(d: int, f: int) -> int:
    return d * f + f + f * d + d


def decoder_layer_param_count(d: int, f: int) -> int:
    return 2 * attention_param_count(d) + ff_param_count(d, f) + 3 * (2 * d)


def lm_layer_param_count(d: int, f: int) -> int:
    # an encoder layer has the same shape: self-attention, then feed-forward
    return attention_param_count(d) + ff_param_count(d, f) + 2 * (2 * d)


def nmt_param_count(config: ModelConfig) -> int:
    d, f = config.embed_dim, config.ff_dim
    return (
        config.vocab_size_src * d
        + config.vocab_size_tgt * d
        + config.enc_layers * lm_layer_param_count(d, f)
        + config.dec_layers * decoder_layer_param_count(d, f)
        + d * config.vocab_size_tgt
        + config.vocab_size_tgt
    )


def lm_param_count(config: ModelConfig) -> int:
    d, f = config.embed_dim, config.ff_dim
    return (
        config.vocab_size_tgt * d
        + config.lm_layers * lm_layer_param_count(d, f)
        + d * config.vocab_size_tgt
        + config.vocab_size_tgt
    )


# ---------------------------------------------------------------------------
# forward passes


# (width, dtype) -> table; threads that grow one at once only compute it twice
_SINUSOID_TABLES: dict[tuple[int, str], np.ndarray] = {}


def _sinusoid_rows(length: int, dim: int, dtype_str: str) -> np.ndarray:
    positions = np.arange(length, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, dim, 2, dtype=np.float64) * (-math.log(10000.0) / dim))
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div)
    return table.astype(np.dtype(dtype_str))


def _sinusoid_table(length: int, dim: int, dtype_str: str) -> np.ndarray:
    """The first ``length`` rows of the position table: a read-only slice of
    one table per width and dtype, which grows (at least doubling) to the
    longest length asked for. A row does not depend on the table's length."""
    table = _SINUSOID_TABLES.get((dim, dtype_str))
    if table is None or len(table) < length:
        grown = max(length, 2 * len(table)) if table is not None else length
        table = _sinusoid_rows(grown, dim, dtype_str)
        table.flags.writeable = False
        _SINUSOID_TABLES[(dim, dtype_str)] = table
    return table[:length]


def _pad_key_mask(ids: np.ndarray, dtype) -> np.ndarray:
    # additive [B, 1, 1, Tk] mask hiding pad keys from every query
    return np.where(ids == PAD_ID, NEG_INF, 0.0).astype(dtype)[:, None, None, :]


@functools.lru_cache(maxsize=64)
def _causal_mask(length: int, dtype_str: str) -> np.ndarray:
    mask = (np.triu(np.ones((length, length)), k=1) * NEG_INF).astype(np.dtype(dtype_str))
    return mask[None, None, :, :]


@dataclass
class _KV:
    """Keys and values of one attention sublayer in a forward-only decoder,
    split into heads as [rows, heads, positions, head_dim]. Self-attention
    (``grows``) appends the keys and values of each new position to those
    held; cross-attention holds the memory's, computed once."""

    grows: bool
    k: Tensor | None = None
    v: Tensor | None = None

    def store(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        if self.k is not None:
            k = Tensor(np.concatenate((self.k.data, k.data), axis=2))
            v = Tensor(np.concatenate((self.v.data, v.data), axis=2))
        self.k, self.v = k, v
        return k, v

    def reorder(self, rows: np.ndarray) -> None:
        if self.k is not None:
            self.k, self.v = Tensor(self.k.data[rows]), Tensor(self.v.data[rows])


def _linear(x2d: Tensor, p: dict[str, Tensor], w: str, b: str) -> Tensor:
    return T.linear(x2d, p[w], p[b])


def _split_heads(x2d: Tensor, batch: int, length: int, heads: int, head_dim: int) -> Tensor:
    x = T.reshape(x2d, (batch, length, heads, head_dim))
    return T.transpose(x, (0, 2, 1, 3))


def _keys_values(p: dict[str, Tensor], prefix: str, kv_in: Tensor, heads: int
                 ) -> tuple[Tensor, Tensor]:
    batch, t_k, d = kv_in.shape
    size = (batch, t_k, heads, d // heads)
    kv2d = T.reshape(kv_in, (batch * t_k, d))
    k = _split_heads(_linear(kv2d, p, f"{prefix}.wk", f"{prefix}.bk"), *size)
    v = _split_heads(_linear(kv2d, p, f"{prefix}.wv", f"{prefix}.bv"), *size)
    return k, v


def _attention(
    p: dict[str, Tensor],
    prefix: str,
    q_in: Tensor,
    kv_in: Tensor | None,
    mask_add: np.ndarray | None,
    config: ModelConfig,
    rng,
    cache: _KV | None = None,
) -> Tensor:
    batch, t_q, d = q_in.shape
    heads, head_dim = config.heads, d // config.heads
    q2d = T.reshape(q_in, (batch * t_q, d))
    q = _split_heads(_linear(q2d, p, f"{prefix}.wq", f"{prefix}.bq"), batch, t_q, heads, head_dim)
    if cache is not None and not cache.grows:
        k, v = cache.k, cache.v
    else:
        k, v = _keys_values(p, prefix, kv_in, heads)
        if cache is not None:
            k, v = cache.store(k, v)
    ctx = T.attention(q, k, v, mask_add, 1.0 / math.sqrt(head_dim), config.dropout_attention, rng)
    ctx2d = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (batch * t_q, d))
    out = _linear(ctx2d, p, f"{prefix}.wo", f"{prefix}.bo")
    return T.reshape(out, (batch, t_q, d))


def _feed_forward(p, prefix: str, x: Tensor, config: ModelConfig, rng) -> Tensor:
    batch, length, d = x.shape
    h = T.relu(_linear(T.reshape(x, (batch * length, d)), p, f"{prefix}.w1", f"{prefix}.b1"))
    h = T.dropout(h, config.dropout_activation, rng)
    out = _linear(h, p, f"{prefix}.w2", f"{prefix}.b2")
    return T.reshape(out, (batch, length, d))


def _residual_norm(p, ln_prefix: str, x: Tensor, sublayer: Tensor, config, rng) -> Tensor:
    # PostNorm: normalize after the residual add
    return T.residual_norm(x, sublayer, p[f"{ln_prefix}.g"], p[f"{ln_prefix}.b"],
                           config.dropout_residual, rng)


def _embed_positions(p, name: str, ids: np.ndarray, config: ModelConfig, rng, offset: int = 0
                     ) -> Tensor:
    # ``offset``: the position of the first column of ``ids``
    weight = p[name]
    d = config.embed_dim
    x = T.mul(T.embedding(weight, ids), math.sqrt(d))
    table = _sinusoid_table(offset + ids.shape[1], d, weight.dtype.str)[None, offset:, :]
    x = T.add(x, table)
    return T.dropout(x, config.dropout_residual, rng)


def _stack(
    p, prefix: str, n_layers: int, x: Tensor, self_mask: np.ndarray, cfg: ModelConfig, rng,
    memory: Tensor | None = None, memory_mask: np.ndarray | None = None,
    caches: list[tuple[_KV, _KV]] | None = None,
) -> Tensor:
    # the layers _add_stack initializes; ``caches`` holds each layer's (self,
    # cross) keys and values; cross-attention runs over a memory, or over the
    # memory keys and values the caches hold
    has_cross = memory is not None or caches is not None
    for i in range(n_layers):
        layer = f"{prefix}.{i}"
        self_kv, cross_kv = caches[i] if caches else (None, None)
        attn = _attention(p, f"{layer}.self", x, x, self_mask, cfg, rng, self_kv)
        x = _residual_norm(p, f"{layer}.ln1", x, attn, cfg, rng)
        if has_cross:
            cross = _attention(p, f"{layer}.cross", x, memory, memory_mask, cfg, rng, cross_kv)
            x = _residual_norm(p, f"{layer}.ln2", x, cross, cfg, rng)
        ff = _feed_forward(p, f"{layer}.ff", x, cfg, rng)
        x = _residual_norm(p, f"{layer}.ln{3 if has_cross else 2}", x, ff, cfg, rng)
    return x


def _project_log_probs(p, prefix: str, x2d: Tensor) -> Tensor:
    return T.linear_log_softmax(x2d, p[f"{prefix}.w"], p[f"{prefix}.b"])


def _live_positions(rows, tgt_in) -> np.ndarray | None:
    """Flat indices of the true entries of the ``rows`` mask, which is
    shaped like ``tgt_in``, in row-major order; None when ``rows`` is."""
    if rows is None:
        return None
    mask = np.asarray(rows, dtype=bool)
    if mask.shape != np.shape(tgt_in):
        raise ValueError(f"rows mask of shape {mask.shape} for targets of shape {np.shape(tgt_in)}")
    return np.flatnonzero(mask)


def _target_side(
    params: ModelParams, model: str, embed: str, stack: str, n_layers: int, tgt_ids: np.ndarray,
    rng, memory: Tensor | None = None, memory_mask: np.ndarray | None = None,
    live: np.ndarray | None = None,
) -> Tensor:
    """Causally masked target-side stack from embedding to log-probs; with no
    memory it is the language model. [B, T, vocab] log-probs, or the [n,
    vocab] rows of the ``live`` flat positions only; when those are every
    position, the rows are the projection's own, with no gather."""
    p, cfg, dtype = params.tensors, params.config, params.dtype
    self_mask = _causal_mask(tgt_ids.shape[1], dtype.str) + _pad_key_mask(tgt_ids, dtype)
    x = _embed_positions(p, f"{model}.{embed}", tgt_ids, cfg, rng)
    x = _stack(p, f"{model}.{stack}", n_layers, x, self_mask, cfg, rng, memory, memory_mask)
    batch, length, d = x.shape
    x2d = T.reshape(x, (batch * length, d))
    if live is not None:
        if live.size < batch * length:
            x2d = T.embedding(x2d, live)
        return _project_log_probs(p, f"{model}.out", x2d)
    log_probs = _project_log_probs(p, f"{model}.out", x2d)
    return T.reshape(log_probs, (batch, length, cfg.vocab_size_tgt))


def _as_batch(ids) -> tuple[np.ndarray, bool]:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError("token ids must be 1-D (one sentence) or 2-D (a batch)")


def _check_ids(ids: np.ndarray, vocab: int, side: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(f"{side} token id out of range for vocab size {vocab}")


def _dropout_rng(training: bool, rng) -> np.random.Generator | None:
    # the layers draw dropout masks exactly when handed a generator
    if training and rng is None:
        raise ValueError("training mode requires an rng for the dropout draws")
    return rng if training else None


def nmt_forward(
    params: ModelParams,
    src,
    tgt_in,
    training: bool = False,
    rng: np.random.Generator | None = None,
    rows=None,
) -> Tensor:
    """Teacher-forced translation forward pass.

    Row ``j`` of the output is ``log p(y_j | y_<j, x)``; the decoder
    self-attention is causally masked. 1-D inputs give a [N, vocab] tensor,
    2-D padded batches give [B, N, vocab]. ``rows``, a bool mask shaped
    like ``tgt_in``, projects only the masked positions: the output is then
    their [n, vocab] rows, in row-major order (that of ``np.nonzero``).
    """
    cfg = params.config
    rng = _dropout_rng(training, rng)
    src_ids, squeeze = _as_batch(src)
    tgt_ids, _ = _as_batch(tgt_in)
    _check_ids(src_ids, cfg.vocab_size_src, "source")
    _check_ids(tgt_ids, cfg.vocab_size_tgt, "target")
    live = _live_positions(rows, tgt_in)
    p = params.tensors
    src_mask = _pad_key_mask(src_ids, params.dtype)
    x = _embed_positions(p, "nmt.src_embed", src_ids, cfg, rng)
    memory = _stack(p, "nmt.enc", cfg.enc_layers, x, src_mask, cfg, rng)
    out = _target_side(params, "nmt", "tgt_embed", "dec", cfg.dec_layers, tgt_ids, rng, memory,
                       src_mask, live)
    return T.reshape(out, out.shape[1:]) if squeeze and live is None else out


class DecoderState:
    """Forward-only incremental decoding of a group of source sentences,
    after the incremental decoder state of fairseq.

    The encoder runs once over the ``[sentences, length]`` group (a 1-D
    source is a group of one; shorter sources are padded with ``<pad>``),
    and each decoder layer computes the cross-attention keys and values of
    every sentence's memory once. The state holds rows, one per hypothesis:
    before the first step, one per sentence. Each row keeps its sentence's
    memory keys, values and pad mask, gathered through the row index of each
    step, and the self-attention keys and values of every target position it
    was fed. The mask gives a pad key exactly zero attention in the encoder
    and in cross-attention, so a row's arithmetic is that of a one-sentence
    decode of the unpadded source and its output equals the ``nmt_forward``
    row at that position of its whole prefix; only the rounding of a matmul
    may depend on how many rows or padded keys share it.
    """

    def __init__(self, params: ModelParams, src):
        cfg, p = params.config, params.tensors
        src_ids = np.asarray(src, dtype=np.int64)
        if src_ids.ndim == 1:
            src_ids = src_ids[None, :]
        if src_ids.ndim != 2:
            raise ValueError("a decoder state holds a [sentences, length] group of token ids")
        _check_ids(src_ids, cfg.vocab_size_src, "source")
        self.params = params
        self.memory_mask = _pad_key_mask(src_ids, params.dtype)
        x = _embed_positions(p, "nmt.src_embed", src_ids, cfg, None)
        memory = _stack(p, "nmt.enc", cfg.enc_layers, x, self.memory_mask, cfg, None)
        self.caches = [
            (_KV(grows=True), _KV(False, *_keys_values(p, f"nmt.dec.{i}.cross", memory, cfg.heads)))
            for i in range(cfg.dec_layers)
        ]
        self.length = 0

    def advance(self, tokens, parents) -> np.ndarray:
        """Feed ``tokens[r]`` as the next position of row ``r``, which
        continues row ``parents[r]`` of the previous call; before the first
        call the rows are the sentences, so there ``parents[r]`` names the
        sentence row ``r`` starts. Returns the [rows, vocab]
        log-probabilities of the position after it."""
        cfg, p = self.params.config, self.params.tensors
        rows = np.asarray(parents, dtype=np.int64)
        ids = np.asarray(tokens, dtype=np.int64)[:, None]
        if ids.shape[0] != rows.size:
            raise ValueError(f"{ids.shape[0]} tokens for {rows.size} decoder rows")
        _check_ids(ids, cfg.vocab_size_tgt, "target")
        self.memory_mask = self.memory_mask[rows]
        for self_kv, cross_kv in self.caches:
            self_kv.reorder(rows)
            cross_kv.reorder(rows)
        x = _embed_positions(p, "nmt.tgt_embed", ids, cfg, None, offset=self.length)
        # one query per row sees only keys up to its own position: no causal
        # mask, and prefixes hold no <pad>, so no pad mask either
        x = _stack(p, "nmt.dec", cfg.dec_layers, x, None, cfg, None, None, self.memory_mask,
                   self.caches)
        self.length += 1
        return _project_log_probs(p, "nmt.out", T.reshape(x, (rows.size, cfg.embed_dim))).data


def lm_forward(
    params: ModelParams,
    tgt_in,
    training: bool = False,
    rng: np.random.Generator | None = None,
    rows=None,
) -> Tensor:
    """Target-side language model: row ``j`` is ``log p(y_j | y_<j)``.

    The stack has no cross-attention, so the output cannot depend on any
    source sentence. ``rows`` selects output rows as in ``nmt_forward``.
    """
    cfg = params.config
    rng = _dropout_rng(training, rng)
    if not params.has_lm:
        raise ValueError("these parameters were initialized without a language model")
    tgt_ids, squeeze = _as_batch(tgt_in)
    _check_ids(tgt_ids, cfg.vocab_size_tgt, "target")
    live = _live_positions(rows, tgt_in)
    out = _target_side(params, "lm", "embed", "layer", cfg.lm_layers, tgt_ids, rng, live=live)
    return T.reshape(out, out.shape[1:]) if squeeze and live is None else out


# ---------------------------------------------------------------------------
# checkpoints


# fields ModelConfig dropped, which older manifests still hold: their hash
# covers these ``name=value`` items (``legacy``), in this order, after the rest
_LEGACY_FIELDS = ("share_vocab", "max_len")


def config_hash(config: ModelConfig, precision: str, legacy: tuple[str, ...] = ()) -> str:
    payload = ";".join([*(f"{f.name}={getattr(config, f.name)}" for f in fields(config)), *legacy])
    return hashlib.sha256(f"{payload};precision={precision}".encode()).hexdigest()[:16]


def _precision_name(dtype) -> str:
    return "fp64" if np.dtype(dtype) == np.float64 else "fp32"


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    step: int,
    extra_arrays: dict[str, np.ndarray] | None = None,
    meta: dict[str, str] | None = None,
) -> Path:
    """Write a checkpoint directory: a key=value manifest, a (name, shape,
    offset) table, and one little-endian binary blob per tensor concatenated
    into ``tensors.bin``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    precision = _precision_name(params.dtype)
    arrays: dict[str, np.ndarray] = {k: t.data for k, t in params.tensors.items()}
    if extra_arrays:
        arrays.update(extra_arrays)

    offset = 0
    index_lines = []
    with open(path / "tensors.bin", "wb") as fh:
        # parameter order, not sorted: a loaded model then sums its gradient
        # norm in the same order as a fresh one, which keeps fp64 resumes bitwise
        for name in arrays:
            arr = np.ascontiguousarray(arrays[name], dtype="<" + arrays[name].dtype.str[1:])
            fh.write(arr.tobytes())
            shape = ",".join(str(s) for s in arr.shape)
            index_lines.append(f"{name}\t{arr.dtype.str}\t{shape}\t{offset}")
            offset += arr.nbytes
    (path / "tensors.idx").write_text("\n".join(index_lines) + "\n", encoding="utf-8")

    manifest: dict[str, str] = {
        "format_version": "1",
        "config_hash": config_hash(params.config, precision),
        "step": str(step),
        "precision": precision,
    }
    for f in fields(params.config):
        manifest[f"config.{f.name}"] = str(getattr(params.config, f.name))
    if meta:
        manifest.update({str(k): str(v) for k, v in meta.items()})
    lines = [f"{k}={manifest[k]}" for k in sorted(manifest)]
    (path / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class CheckpointError(ValueError):
    pass


def check_compatible(
    params: ModelParams, meta: dict[str, str], vocab_hashes: dict[str, str], need_lm: bool,
    config: ModelConfig | None = None,
) -> None:
    """Raise ``CheckpointError`` unless a loaded checkpoint fits the caller:
    its model config equals ``config`` when one is given, every vocabulary
    hash that both the manifest ``meta`` and ``vocab_hashes`` hold agrees,
    and the checkpoint has a language model when ``need_lm``."""
    if config is not None and params.config != config:
        name = next(f.name for f in fields(ModelConfig)
                    if getattr(params.config, f.name) != getattr(config, f.name))
        raise CheckpointError(
            f"checkpoint {name}={getattr(params.config, name)} does not match "
            f"the requested {name}={getattr(config, name)}"
        )
    for key in ("vocab_src_hash", "vocab_tgt_hash"):
        stored, current = meta.get(key), vocab_hashes.get(key)
        if stored and current and stored != current:
            raise CheckpointError(f"checkpoint {key} does not match the current vocabulary")
    if need_lm and not params.has_lm:
        raise CheckpointError("this checkpoint has no language model")


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict[str, np.ndarray], dict[str, str]]:
    """Read a checkpoint directory back into parameters (requires_grad
    leaves), extra arrays (optimizer state), and the manifest key=value map."""
    path = Path(path)
    manifest_file = path / "manifest.txt"
    if not manifest_file.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_file}")
    meta: dict[str, str] = {}
    for line in read_lines(manifest_file, CheckpointError):
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        meta[key] = value

    try:
        config = ModelConfig(**{
            f.name: (int if f.type == "int" else float)(meta[f"config.{f.name}"])
            for f in fields(ModelConfig)
        })
        legacy = tuple(f"{name}={meta['config.' + name]}" for name in _LEGACY_FIELDS
                       if "config." + name in meta)
        expected = config_hash(config, meta["precision"], legacy)
        stored = meta["config_hash"]
        int(meta["step"])  # checked here: a resumed run continues from this step
    except KeyError as exc:
        raise CheckpointError(f"{manifest_file} has no {exc.args[0]} entry") from exc
    except ValueError as exc:
        raise CheckpointError(f"{manifest_file}: {exc}") from exc
    if stored != expected:
        raise CheckpointError("manifest config hash does not match its own config fields")

    blob_file, index_file = path / "tensors.bin", path / "tensors.idx"
    blob_error = f"{blob_file} does not hold the tensors {index_file} lists"
    try:
        index = read_lines(index_file, CheckpointError)
        blob_size = blob_file.stat().st_size
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint file at {exc.filename}") from exc
    # parameters and extras each fill one writable buffer, read at once from
    # the run of the blob that holds them, every array a view into its own,
    # so a caller that drops the extras frees their bytes
    groups: tuple[list, list] = ([], [])
    arrays: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] = ({}, {})
    for number, line in enumerate(index, 1):
        try:
            name, dtype_str, shape_str, offset_str = line.split("\t")
            shape = tuple(int(s) for s in shape_str.split(",")) if shape_str else ()
            dtype, offset = np.dtype(dtype_str), int(offset_str)
            if offset < 0 or min(shape, default=0) < 0:
                raise ValueError("negative offset or dimension")
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"line {number} of {index_file} is malformed: {exc}") from exc
        end = offset + dtype.itemsize * math.prod(shape)
        if end > blob_size:
            raise CheckpointError(f"{blob_error}: {name} lies outside the file")
        groups[not name.startswith(("nmt.", "lm."))].append((name, dtype, shape, offset, end))
    try:
        with open(blob_file, "rb") as fh:
            for entries, out in zip(groups, arrays):
                start = min((entry[3] for entry in entries), default=0)
                buffer = bytearray(max((entry[4] for entry in entries), default=start) - start)
                fh.seek(start)
                fh.readinto(buffer)
                for name, dtype, shape, offset, _ in entries:
                    out[name] = np.frombuffer(buffer, dtype, math.prod(shape), offset - start).reshape(shape)
    except ValueError as exc:
        raise CheckpointError(f"{blob_error}: {exc}") from exc

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays[0].items()}
    return ModelParams(config=config, tensors=tensors), arrays[1], meta
