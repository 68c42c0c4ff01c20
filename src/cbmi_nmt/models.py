"""Translation model (transformer encoder-decoder) and target-side language
model (the same decoder stack without cross-attention), built on the tape
autodiff engine.

Both models consume teacher-forced inputs and emit per-position
log-probability rows. The LM has no source input anywhere in its graph, so
source-independence holds structurally. Layer placement is PostNorm;
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
from .corpus import PAD_ID
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
    share_vocab: bool = False
    max_len: int = 512

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )
        for name in ("vocab_size_src", "vocab_size_tgt", "embed_dim", "ff_dim", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


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


def preset_config(
    preset: str, vocab_size_src: int, vocab_size_tgt: int, **overrides
) -> ModelConfig:
    """ModelConfig of a named preset, with keyword overrides on top."""
    return ModelConfig(vocab_size_src, vocab_size_tgt, **{**MODEL_PRESETS[preset], **overrides})


base_config = functools.partial(preset_config, "base")
big_config = functools.partial(preset_config, "big")


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
    for i in range(config.enc_layers):
        _add_attention(arrays, rng, f"nmt.enc.{i}.self", d, dtype)
        _add_layer_norm(arrays, f"nmt.enc.{i}.ln1", d, dtype)
        _add_ff(arrays, rng, f"nmt.enc.{i}.ff", d, f, dtype)
        _add_layer_norm(arrays, f"nmt.enc.{i}.ln2", d, dtype)
    for i in range(config.dec_layers):
        _add_attention(arrays, rng, f"nmt.dec.{i}.self", d, dtype)
        _add_layer_norm(arrays, f"nmt.dec.{i}.ln1", d, dtype)
        _add_attention(arrays, rng, f"nmt.dec.{i}.cross", d, dtype)
        _add_layer_norm(arrays, f"nmt.dec.{i}.ln2", d, dtype)
        _add_ff(arrays, rng, f"nmt.dec.{i}.ff", d, f, dtype)
        _add_layer_norm(arrays, f"nmt.dec.{i}.ln3", d, dtype)
    arrays["nmt.out.w"] = _xavier(rng, d, config.vocab_size_tgt, dtype)
    arrays["nmt.out.b"] = np.zeros(config.vocab_size_tgt, dtype=dtype)

    if with_lm:
        rng = np.random.default_rng(lm_seq)
        arrays["lm.embed"] = _embed_init(rng, config.vocab_size_tgt, d, dtype)
        for i in range(config.lm_layers):
            _add_attention(arrays, rng, f"lm.layer.{i}.self", d, dtype)
            _add_layer_norm(arrays, f"lm.layer.{i}.ln1", d, dtype)
            _add_ff(arrays, rng, f"lm.layer.{i}.ff", d, f, dtype)
            _add_layer_norm(arrays, f"lm.layer.{i}.ln2", d, dtype)
        arrays["lm.out.w"] = _xavier(rng, d, config.vocab_size_tgt, dtype)
        arrays["lm.out.b"] = np.zeros(config.vocab_size_tgt, dtype=dtype)

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    return ModelParams(config=config, tensors=tensors)


# closed-form parameter counts, used as an oracle against actual tensors


def attention_param_count(d: int) -> int:
    return 4 * d * d + 4 * d


def ff_param_count(d: int, f: int) -> int:
    return d * f + f + f * d + d


def encoder_layer_param_count(d: int, f: int) -> int:
    return attention_param_count(d) + ff_param_count(d, f) + 2 * (2 * d)


def decoder_layer_param_count(d: int, f: int) -> int:
    return 2 * attention_param_count(d) + ff_param_count(d, f) + 3 * (2 * d)


def lm_layer_param_count(d: int, f: int) -> int:
    return attention_param_count(d) + ff_param_count(d, f) + 2 * (2 * d)


def nmt_param_count(config: ModelConfig) -> int:
    d, f = config.embed_dim, config.ff_dim
    return (
        config.vocab_size_src * d
        + config.vocab_size_tgt * d
        + config.enc_layers * encoder_layer_param_count(d, f)
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


@functools.lru_cache(maxsize=8)
def _sinusoid_table(length: int, dim: int, dtype_str: str) -> np.ndarray:
    positions = np.arange(length, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, dim, 2, dtype=np.float64) * (-math.log(10000.0) / dim))
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div)
    return table.astype(np.dtype(dtype_str))


def _pad_key_mask(ids: np.ndarray, dtype) -> np.ndarray:
    # additive [B, 1, 1, Tk] mask hiding pad keys from every query
    return np.where(ids == PAD_ID, NEG_INF, 0.0).astype(dtype)[:, None, None, :]


@functools.lru_cache(maxsize=64)
def _causal_mask(length: int, dtype_str: str) -> np.ndarray:
    mask = (np.triu(np.ones((length, length)), k=1) * NEG_INF).astype(np.dtype(dtype_str))
    return mask[None, None, :, :]


def _maybe_dropout(x: Tensor, rate: float, training: bool, rng) -> Tensor:
    if not training or rate <= 0.0:
        return x
    return T.dropout(x, rate, rng)


def _linear(x2d: Tensor, p: dict[str, Tensor], w: str, b: str) -> Tensor:
    return T.add(T.matmul(x2d, p[w]), p[b])


def _split_heads(x2d: Tensor, batch: int, length: int, heads: int, head_dim: int) -> Tensor:
    x = T.reshape(x2d, (batch, length, heads, head_dim))
    return T.transpose(x, (0, 2, 1, 3))


def _attention(
    p: dict[str, Tensor],
    prefix: str,
    q_in: Tensor,
    kv_in: Tensor,
    mask_add: np.ndarray,
    config: ModelConfig,
    training: bool,
    rng,
) -> Tensor:
    batch, t_q, d = q_in.shape
    t_k = kv_in.shape[1]
    heads, head_dim = config.heads, d // config.heads
    q2d = T.reshape(q_in, (batch * t_q, d))
    kv2d = T.reshape(kv_in, (batch * t_k, d))
    q = _split_heads(_linear(q2d, p, f"{prefix}.wq", f"{prefix}.bq"), batch, t_q, heads, head_dim)
    k = _split_heads(_linear(kv2d, p, f"{prefix}.wk", f"{prefix}.bk"), batch, t_k, heads, head_dim)
    v = _split_heads(_linear(kv2d, p, f"{prefix}.wv", f"{prefix}.bv"), batch, t_k, heads, head_dim)
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(head_dim))
    scores = T.add(scores, mask_add)
    attn = T.softmax(scores)
    attn = _maybe_dropout(attn, config.dropout_attention, training, rng)
    ctx = T.matmul(attn, v)
    ctx2d = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (batch * t_q, d))
    out = _linear(ctx2d, p, f"{prefix}.wo", f"{prefix}.bo")
    return T.reshape(out, (batch, t_q, d))


def _feed_forward(p, prefix: str, x: Tensor, config: ModelConfig, training: bool, rng) -> Tensor:
    batch, length, d = x.shape
    h = T.relu(_linear(T.reshape(x, (batch * length, d)), p, f"{prefix}.w1", f"{prefix}.b1"))
    h = _maybe_dropout(h, config.dropout_activation, training, rng)
    out = _linear(h, p, f"{prefix}.w2", f"{prefix}.b2")
    return T.reshape(out, (batch, length, d))


def _residual_norm(p, ln_prefix: str, x: Tensor, sublayer: Tensor, config, training, rng) -> Tensor:
    # PostNorm: normalize after the residual add
    added = T.add(x, _maybe_dropout(sublayer, config.dropout_residual, training, rng))
    return T.layer_norm(added, p[f"{ln_prefix}.g"], p[f"{ln_prefix}.b"])


def _embed_positions(p, name: str, ids: np.ndarray, config: ModelConfig, training, rng) -> Tensor:
    weight = p[name]
    d = config.embed_dim
    x = T.mul(T.embedding(weight, ids), math.sqrt(d))
    table = _sinusoid_table(ids.shape[1], d, weight.dtype.str)[None, :, :]
    x = T.add(x, table)
    return _maybe_dropout(x, config.dropout_residual, training, rng)


def _encode(params: ModelParams, src: np.ndarray, training: bool, rng) -> tuple[Tensor, np.ndarray]:
    p, cfg = params.tensors, params.config
    dtype = params.dtype
    key_mask = _pad_key_mask(src, dtype)
    x = _embed_positions(p, "nmt.src_embed", src, cfg, training, rng)
    for i in range(cfg.enc_layers):
        attn = _attention(p, f"nmt.enc.{i}.self", x, x, key_mask, cfg, training, rng)
        x = _residual_norm(p, f"nmt.enc.{i}.ln1", x, attn, cfg, training, rng)
        ff = _feed_forward(p, f"nmt.enc.{i}.ff", x, cfg, training, rng)
        x = _residual_norm(p, f"nmt.enc.{i}.ln2", x, ff, cfg, training, rng)
    return x, key_mask


def _project_log_probs(p, prefix: str, x: Tensor, vocab: int) -> Tensor:
    batch, length, d = x.shape
    logits = _linear(T.reshape(x, (batch * length, d)), p, f"{prefix}.w", f"{prefix}.b")
    return T.reshape(T.log_softmax(logits), (batch, length, vocab))


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


def _check_training_rng(training: bool, rng) -> None:
    if training and rng is None:
        raise ValueError("training mode requires an rng for the dropout draws")


def nmt_forward(
    params: ModelParams,
    src,
    tgt_in,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced translation forward pass.

    Row ``j`` of the output is ``log p(y_j | y_<j, x)``; the decoder
    self-attention is causally masked. 1-D inputs give a [N, vocab] tensor,
    2-D padded batches give [B, N, vocab].
    """
    cfg = params.config
    _check_training_rng(training, rng)
    src_ids, squeeze = _as_batch(src)
    tgt_ids, _ = _as_batch(tgt_in)
    _check_ids(src_ids, cfg.vocab_size_src, "source")
    _check_ids(tgt_ids, cfg.vocab_size_tgt, "target")
    p = params.tensors
    dtype = params.dtype
    memory, src_key_mask = _encode(params, src_ids, training, rng)
    t_len = tgt_ids.shape[1]
    self_mask = _causal_mask(t_len, dtype.str) + _pad_key_mask(tgt_ids, dtype)
    x = _embed_positions(p, "nmt.tgt_embed", tgt_ids, cfg, training, rng)
    for i in range(cfg.dec_layers):
        attn = _attention(p, f"nmt.dec.{i}.self", x, x, self_mask, cfg, training, rng)
        x = _residual_norm(p, f"nmt.dec.{i}.ln1", x, attn, cfg, training, rng)
        cross = _attention(p, f"nmt.dec.{i}.cross", x, memory, src_key_mask, cfg, training, rng)
        x = _residual_norm(p, f"nmt.dec.{i}.ln2", x, cross, cfg, training, rng)
        ff = _feed_forward(p, f"nmt.dec.{i}.ff", x, cfg, training, rng)
        x = _residual_norm(p, f"nmt.dec.{i}.ln3", x, ff, cfg, training, rng)
    out = _project_log_probs(p, "nmt.out", x, cfg.vocab_size_tgt)
    return T.reshape(out, out.shape[1:]) if squeeze else out


def lm_forward(
    params: ModelParams,
    tgt_in,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Target-side language model: row ``j`` is ``log p(y_j | y_<j)``.

    The stack has no cross-attention, so the output cannot depend on any
    source sentence.
    """
    cfg = params.config
    _check_training_rng(training, rng)
    if not params.has_lm:
        raise ValueError("these parameters were initialized without a language model")
    tgt_ids, squeeze = _as_batch(tgt_in)
    _check_ids(tgt_ids, cfg.vocab_size_tgt, "target")
    p = params.tensors
    dtype = params.dtype
    t_len = tgt_ids.shape[1]
    self_mask = _causal_mask(t_len, dtype.str) + _pad_key_mask(tgt_ids, dtype)
    x = _embed_positions(p, "lm.embed", tgt_ids, cfg, training, rng)
    for i in range(cfg.lm_layers):
        attn = _attention(p, f"lm.layer.{i}.self", x, x, self_mask, cfg, training, rng)
        x = _residual_norm(p, f"lm.layer.{i}.ln1", x, attn, cfg, training, rng)
        ff = _feed_forward(p, f"lm.layer.{i}.ff", x, cfg, training, rng)
        x = _residual_norm(p, f"lm.layer.{i}.ln2", x, ff, cfg, training, rng)
    out = _project_log_probs(p, "lm.out", x, cfg.vocab_size_tgt)
    return T.reshape(out, out.shape[1:]) if squeeze else out


# ---------------------------------------------------------------------------
# checkpoints


def config_hash(config: ModelConfig, precision: str) -> str:
    payload = ";".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config))
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
        for name in sorted(arrays):
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


def _parse_bool(text: str) -> bool:
    return text == "True" or text == "true"


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict[str, np.ndarray], dict[str, str]]:
    """Read a checkpoint directory back into parameters (requires_grad
    leaves), extra arrays (optimizer state), and the manifest key=value map."""
    path = Path(path)
    manifest_file = path / "manifest.txt"
    if not manifest_file.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_file}")
    meta: dict[str, str] = {}
    for line in manifest_file.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        meta[key] = value

    kwargs = {}
    for f in fields(ModelConfig):
        raw = meta[f"config.{f.name}"]
        if f.type in ("int", int):
            kwargs[f.name] = int(raw)
        elif f.type in ("float", float):
            kwargs[f.name] = float(raw)
        elif f.type in ("bool", bool):
            kwargs[f.name] = _parse_bool(raw)
        else:
            kwargs[f.name] = raw
    config = ModelConfig(**kwargs)

    blob = (path / "tensors.bin").read_bytes()
    arrays: dict[str, np.ndarray] = {}
    for line in (path / "tensors.idx").read_text(encoding="utf-8").splitlines():
        name, dtype_str, shape_str, offset_str = line.split("\t")
        shape = tuple(int(s) for s in shape_str.split(",")) if shape_str else ()
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape)) if shape else 1
        offset = int(offset_str)
        arrays[name] = np.frombuffer(
            blob, dtype=dtype, count=count, offset=offset
        ).reshape(shape).copy()

    tensors = {
        k: Tensor(v, requires_grad=True)
        for k, v in arrays.items()
        if k.startswith(("nmt.", "lm."))
    }
    extras = {k: v for k, v in arrays.items() if not k.startswith(("nmt.", "lm."))}
    params = ModelParams(config=config, tensors=tensors)
    expected = config_hash(config, meta["precision"])
    if meta["config_hash"] != expected:
        raise CheckpointError("manifest config hash does not match its own config fields")
    return params, extras, meta
