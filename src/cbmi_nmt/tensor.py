"""Dense tensors with tape-based reverse-mode automatic differentiation.

Deliberately small: exactly the operations the translation and language
models need, on row-major numpy storage. Training runs in float32 by
default; numerical oracles (gradient checks) use float64.

A ``Tape`` records operations in execution order, which is already a
topological order: every operand of a node was created before the node.
``Tape.backward`` therefore walks the node list once, in reverse, and
accumulates gradients into the ``grad`` field of leaf tensors that were
created with ``requires_grad=True``.

Tensors are treated as immutable values after construction, so a tensor
may hold a view into a shared buffer: ``models.load_checkpoint`` returns
every parameter as a view into one buffer. The optimizer rebinds a
parameter's ``data`` rather than writing into it; only the Adam moments,
which the trainer owns (it copies them out of a checkpoint), are updated in
place. The ops follow one rule: they work in place only on arrays they
allocated themselves. An op never writes into an input's ``data``, and a
backward function never writes into its incoming gradient, because ``add``
and ``residual_norm`` hand one gradient array to two parents.

Besides the primitives, five fused ops each record one node: ``linear``
(``x @ w + b``), ``linear_log_softmax`` (``log_softmax(x @ w + b)``),
``attention`` (scores, scale, mask, softmax, dropout, context),
``residual_norm`` (dropout, residual add, ``layer_norm``) and
``weighted_cross_entropy`` (a train step's whole loss). Each runs the numpy
expressions of the primitives it replaces in the same order, so its output
and gradients are bit-for-bit those of the composition. Where a fused op
works in place (``linear_log_softmax`` shifts and normalizes its logits,
``attention`` its scores), it does so on an intermediate it allocated, so
the in-place rule above holds.

Short sums run on BLAS: a sum over the last axis (softmax's row sums and
its backward, layer norm's mean, variance and backward sums) is one
matrix-vector product with a ones vector, and a sum over the leading axes
(the bias and gain gradients) one vector-matrix product. numpy's own
reduction along a short contiguous axis is several times slower. BLAS may
round a row's sum differently depending on the rows beside it, so the
log-softmax of ``log_softmax`` and ``linear_log_softmax`` keeps numpy's row
sum, and the output projection pads its rows to a whole block (see
``_PROJECTION_ROW_BLOCK``): a projected row then comes out the same
whichever rows share the call, within one BLAS kernel regime.

``dropout``, ``attention`` and ``residual_norm`` drop elements only when
given a generator: with ``rng=None`` they draw no mask and return the bits
of a zero rate, whatever ``rate`` is. Each element's draw is a 16-bit lane
of the generator's raw words (see ``_keep``), so a rate is exact to 2**-16.

Each thread has at most one active tape, and that tape records only the
operations run on its own thread, so two threads can each run a forward and
backward pass at once as long as they share no tensor that either updates.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense float array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _Node:
    __slots__ = ("out", "parents", "grad_fn")

    def __init__(self, out: Tensor, parents: tuple[Tensor, ...], grad_fn: Callable):
        self.out = out
        self.parents = parents
        self.grad_fn = grad_fn


class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around a forward pass; once the loss is built,
    call :meth:`backward` (inside or outside the ``with`` block).
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        global _LIVE_TAPES
        if _ACTIVE.tape is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        with _LIVE_LOCK:
            _LIVE_TAPES += 1
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        global _LIVE_TAPES
        _ACTIVE.tape = None
        with _LIVE_LOCK:
            _LIVE_TAPES -= 1

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``leaf.grad`` for every
        requires-grad leaf reachable from ``loss``.

        Each recorded node is visited exactly once. Raises if ``loss`` is not
        a scalar or was not produced by operations recorded on this tape.
        """
        if loss.data.shape != ():
            raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        produced = {id(node.out) for node in self.nodes}
        if id(loss) not in produced:
            raise ValueError("loss was not produced by operations recorded on this tape")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
        for node in reversed(self.nodes):
            out_grad = grads.pop(id(node.out), None)
            if out_grad is None:
                continue
            parent_grads = node.grad_fn(out_grad)
            for parent, pgrad in zip(node.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if id(parent) in produced:
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad
                elif parent.grad is None:
                    # a copy in the leaf's dtype; +0 maps -0 to +0, as zeros + pgrad did
                    parent.grad = np.add(pgrad, 0, out=np.empty_like(parent.data))
                else:
                    parent.grad += pgrad


class _ActiveTape(threading.local):
    """The calling thread's active tape; None in a thread that has none."""

    tape: Tape | None = None


_ACTIVE = _ActiveTape()
# How many threads have an active tape. ``_record`` reads its own thread's
# slot only while some thread has one, so code that runs with no tape at all
# (decoding, evaluation) pays one global read per op, not a thread-local
# lookup (about 150 ns more per op on a 2-vCPU host).
_LIVE_TAPES = 0
_LIVE_LOCK = threading.Lock()


def _record(out: Tensor, parents: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    tape = _ACTIVE.tape if _LIVE_TAPES else None
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.nodes.append(_Node(out, tuple(parents), grad_fn))
    return out


def _const(x, dtype) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    return arr


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``x``, kept as an axis of length 1: one
    matrix-vector product with a ones vector."""
    dim = x.shape[-1]
    return np.matmul(x.reshape(-1, dim), np.ones(dim, x.dtype)).reshape(*x.shape[:-1], 1)


def _row_means(x: np.ndarray) -> np.ndarray:
    means = _row_sums(x)
    means /= x.shape[-1]
    return means


def _col_sums(x: np.ndarray, ndim: int) -> np.ndarray:
    """Sums of ``x`` over all but its last ``ndim`` axes: one vector-matrix
    product with a ones vector."""
    tail = x.shape[x.ndim - ndim:]
    x2d = x.reshape(-1, math.prod(tail))
    return np.matmul(np.ones(x2d.shape[0], x.dtype), x2d).reshape(tail)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along axes that were broadcast."""
    if grad.ndim > len(shape):
        grad = _col_sums(grad, len(shape))
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        out = Tensor(a.data + b.data)

        def grad_fn(g):
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return _record(out, (a, b), grad_fn)
    bconst = _const(b, a.data.dtype)
    out = Tensor(a.data + bconst)

    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape),)

    return _record(out, (a,), grad_fn)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        out = Tensor(a.data * b.data)

        def grad_fn(g):
            return (
                _unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape),
            )

        return _record(out, (a, b), grad_fn)
    bconst = _const(b, a.data.dtype)
    out = Tensor(a.data * bconst)

    def grad_fn(g):
        return (_unbroadcast(g * bconst, a.data.shape),)

    return _record(out, (a,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    out = Tensor(np.matmul(a.data, b.data))

    def grad_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _record(out, (a, b), grad_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old_shape = a.data.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(old_shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(a.data, axes))
    # the inverse permutation is needed only when a backward pass runs
    return _record(out, (a,), lambda g: (np.transpose(g, np.argsort(axes)),))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]``; gradients scatter-add into ``weight``."""
    ids = np.asarray(ids)
    vocab = weight.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids.max() if ids.max() >= vocab else ids.min())
        raise ValueError(f"token id {bad} out of range for vocab size {vocab}")
    out = Tensor(weight.data[ids])

    def grad_fn(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, weight.data.shape[1]))
        return (gw,)

    return _record(out, (weight,), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a [rows, in] ``x``, as one node."""
    if x.data.ndim != 2:
        raise ValueError("linear expects a [rows, features] input")
    out = np.matmul(x.data, w.data)
    out += b.data

    def grad_fn(g):
        return np.matmul(g, w.data.T), np.matmul(x.data.T, g), _col_sums(g, 1)

    return _record(Tensor(out), (x, w, b), grad_fn)


def relu(a: Tensor) -> Tensor:
    # fmax maps NaN to 0, and adding +0 maps -0 to +0: the bits of
    # np.where(a > 0, a, 0) without its data-dependent branch
    out = np.fmax(a.data, 0)
    out += 0
    return _record(Tensor(out), (a,), lambda g: (g * (a.data > 0),))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).astype(a.data.dtype),))


def _keep(shape: tuple[int, ...], dtype, rate: float, rng: np.random.Generator) -> np.ndarray:
    """The inverted-dropout multiplier: 0 where an element is dropped and
    ``1 / (1 - rate)`` (rounded to ``dtype``) where it is kept.

    Element ``i`` reads lane ``i`` of the generator's raw 64-bit words
    (``bit_generator.random_raw``) taken as 16-bit lanes, four a word, low
    lane first whatever the host's byte order, and is dropped when its lane
    is below ``ceil(rate * 2**16)``. So it is dropped with probability
    ``ceil(rate * 2**16) / 2**16``, at most 2**-16 above ``rate``, and a draw
    of ``n`` elements advances the generator by exactly ``ceil(n / 4)``
    words; the unused lanes of a last partial word are discarded. One path
    serves every bit generator and both dtypes. The scale stays
    ``1 / (1 - rate)`` rather than the reciprocal of the lanes' exact keep
    probability, which is infinite for a rate above ``1 - 2**-16``.
    """
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-n // 4))
    lanes = words.astype("<u8", copy=False).view("<u2")[:n]
    mask = lanes >= math.ceil(rate * 2**16)
    return np.multiply(mask.reshape(shape), 1.0 / (1.0 - rate), dtype=dtype)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or ``rng`` is None. ``rng``
    draws are part of the run's deterministic stream, so call order matters."""
    if rate <= 0.0 or rng is None:
        return a
    return mul(a, _keep(a.data.shape, a.data.dtype, rate, rng))


# ---------------------------------------------------------------------------
# normalization and loss ops


def _check_finite_rows(x: np.ndarray, op: str) -> None:
    finite = np.isfinite(x)
    if finite.all():
        return
    rows = np.argwhere(~finite.all(axis=-1))
    row = tuple(int(i) for i in rows[0])
    raise ValueError(f"{op}: non-finite input at row {row}")


def _row_max(x: np.ndarray) -> np.ndarray:
    """Maxima over the last axis of ``x``, kept as an axis of length 1. They
    are taken across the rows of a contiguous transposed copy, which numpy
    reduces much faster than a short contiguous axis; a max is exact."""
    dim = x.shape[-1]
    return np.ascontiguousarray(x.reshape(-1, dim).T).max(axis=0).reshape(*x.shape[:-1], 1)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``x``, computed in ``x``'s own storage."""
    x -= _row_max(x)
    np.exp(x, out=x)
    x /= _row_sums(x)
    return x


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out * (g - sum(g * out))`` over the last axis, computed in ``g``'s
    storage: callers pass a gradient they allocated."""
    g -= _row_sums(g * out)
    g *= out
    return g


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max-subtraction."""
    _check_finite_rows(a.data, "softmax")
    out_data = _softmax_rows(a.data.copy())
    return _record(Tensor(out_data), (a,), lambda g: (_softmax_grad(g.copy(), out_data),))


def _log_softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``g - exp(out) * sum(g)`` over the last axis, in a new array."""
    probs = np.exp(out)
    probs *= g.sum(axis=-1, keepdims=True)
    return np.subtract(g, probs, out=probs)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of ``x``, computed in ``x``'s own
    storage. Its sums are numpy's, so each row's bits depend on that row
    alone."""
    x -= x.max(axis=-1, keepdims=True)
    x -= np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return x


def log_softmax(a: Tensor) -> Tensor:
    _check_finite_rows(a.data, "log_softmax")
    out_data = _log_softmax_rows(a.data.copy())
    return _record(Tensor(out_data), (a,), lambda g: (_log_softmax_grad(g, out_data),))


# OpenBLAS rounds the rows of a partial block of a small matrix product
# differently from those of a full block, so a projected row's bits depend
# on how many rows share the call. Projecting a multiple of this many rows
# (zero rows fill the last block) keeps them mostly the same. With OpenBLAS
# 0.3.31 on an AVX-512 Xeon, over inputs 16 to 128 wide, vocabularies of 11
# to 5000 and every row count below about 2**20 multiply-adds, where its
# small-matrix kernel runs, a row took one value in 19 of 20 shapes and
# dtypes, against 2 of 20 unpadded. Above that size its large-matrix kernel
# runs, which rounds differently again.
_PROJECTION_ROW_BLOCK = 8


def linear_log_softmax(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``log_softmax(x @ w + b)`` for a [rows, in] ``x``, as one node; the
    logits are its own, so they are normalized in place. A row's output is
    the same whichever rows share the call, within one BLAS kernel regime
    (see ``_PROJECTION_ROW_BLOCK``)."""
    if x.data.ndim != 2:
        raise ValueError("linear_log_softmax expects a [rows, features] input")
    rows, dim = x.data.shape
    padded = -(-rows // _PROJECTION_ROW_BLOCK) * _PROJECTION_ROW_BLOCK
    x_in = x.data
    if padded != rows:
        x_in = np.zeros((padded, dim), x.data.dtype)
        x_in[:rows] = x.data
    out = np.matmul(x_in, w.data)[:rows]
    out += b.data
    _check_finite_rows(out, "log_softmax")
    _log_softmax_rows(out)

    def grad_fn(g):
        glogits = _log_softmax_grad(g, out)
        return np.matmul(glogits, w.data.T), np.matmul(x.data.T, glogits), _col_sums(glogits, 1)

    return _record(Tensor(out), (x, w, b), grad_fn)


def attention(
    q: Tensor, k: Tensor, v: Tensor, mask_add: np.ndarray | None, scale: float, rate: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Scaled dot-product attention over [..., positions, head_dim] queries,
    keys and values, as one node: ``dropout(softmax(q @ k^T * scale +
    mask_add)) @ v``. ``mask_add`` is an additive constant (or None) that
    broadcasts to the scores; a ``rate`` of 0 or a ``rng`` of None draws no
    dropout mask."""
    dtype = q.data.dtype
    scale_c = _const(scale, dtype)
    attn = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    attn *= scale_c
    if mask_add is not None:
        attn += _const(mask_add, dtype)
    _check_finite_rows(attn, "softmax")
    _softmax_rows(attn)
    keep = _keep(attn.shape, dtype, rate, rng) if rate > 0.0 and rng is not None else None
    dropped = attn * keep if keep is not None else attn
    out = Tensor(np.matmul(dropped, v.data))

    def grad_fn(g):
        gattn = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gv = np.matmul(np.swapaxes(dropped, -1, -2), g)
        if keep is not None:
            gattn *= keep
        gscores = _softmax_grad(gattn, attn)
        gscores *= scale_c
        gq = np.matmul(gscores, k.data)
        gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gscores), -1, -2)
        return gq, gk, gv

    return _record(out, (q, k, v), grad_fn)


LAYER_NORM_EPS = 1e-5


def _normalize(centered: np.ndarray, gain: Tensor, bias: Tensor, eps: float):
    """Layer norm of rows whose mean is already subtracted (``centered``,
    which it keeps). Returns the output and a function of its incoming
    gradient that returns the gradients of the input, gain and bias."""
    dim = centered.shape[-1]
    if gain.data.shape != (dim,) or bias.data.shape != (dim,):
        raise ValueError("layer_norm gain/bias must match the last axis")
    var = _row_means(centered * centered)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=centered.dtype))
    xhat = centered * inv_std
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        gx = g * gain.data
        # d/dx of (x - mu) / sqrt(var + eps), var and mu both row statistics
        gvar = _row_sums(gx * centered) * (-0.5) * inv_std**3
        gx *= inv_std
        gmu = -_row_sums(gx) + gvar * (-2.0) * _row_means(centered)
        gvar_x = gvar * 2.0 * centered
        gvar_x /= dim
        gx += gvar_x
        gx += gmu / dim
        return gx, _col_sums(g * xhat, 1), _col_sums(g, 1)

    return out, backward


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Per-row normalization over the last axis with affine output.

    Uses population variance with ``eps`` inside the square root, so a
    constant row maps to zeros (then ``bias``) instead of dividing by zero.
    """
    out, backward = _normalize(x.data - _row_means(x.data), gain, bias, eps)
    return _record(Tensor(out), (x, gain, bias), backward)


def residual_norm(
    x: Tensor, sub: Tensor, gain: Tensor, bias: Tensor, rate: float,
    rng: np.random.Generator | None, eps: float = LAYER_NORM_EPS,
) -> Tensor:
    """The post-norm residual ``layer_norm(x + dropout(sub))`` as one node;
    a ``rate`` of 0 or a ``rng`` of None draws no dropout mask."""
    if rate > 0.0 and rng is not None:
        keep = _keep(sub.data.shape, sub.data.dtype, rate, rng)
        added = sub.data * keep
        added += x.data
    else:
        keep = None
        added = x.data + sub.data
    added -= _row_means(added)
    out, backward = _normalize(added, gain, bias, eps)

    def grad_fn(g):
        gx, ggain, gbias = backward(g)
        return gx, (gx * keep if keep is not None else gx), ggain, gbias

    return _record(Tensor(out), (x, sub, gain, bias), grad_fn)


def weighted_cross_entropy(
    log_probs: Tensor,
    targets: np.ndarray,
    weights: np.ndarray,
    smoothing: float = 0.0,
    scale: float = 1.0,
    prior: tuple[Tensor, np.ndarray, float, float] | None = None,
) -> Tensor:
    """``scale`` times the sum over rows of ``w_j * loss_j``, where ``loss_j``
    is the (optionally label-smoothed) negative log-likelihood of the gold
    token, plus an optional prior term: the whole loss of a train step.

    ``weights`` are constants: no gradient flows into them. Smoothing ``eps``
    mixes the gold NLL with the uniform distribution over the whole vocab,
    ``(1 - eps) * nll_j + (eps / V) * sum_v(-log p_v)``, and the weight
    multiplies the whole smoothed per-row loss. Pad rows are handled by the
    caller passing weight 0. Reduces to the plain summed NLL when all
    weights and ``scale`` are 1 and smoothing is 0.

    ``prior = (p, q, c, k)`` adds ``c * sum(q * p) + k`` for constant
    [rows, vocab] distributions ``q``; ``p`` is ``log_probs`` itself or
    another tensor of its shape. The bits are those of ``add(mul(ce,
    scale), add(mul(sum_all(mul(p, q)), c), k))``.
    """
    if log_probs.data.ndim != 2:
        raise ValueError("weighted_cross_entropy expects [rows, vocab] log-probs")
    rows, vocab = log_probs.data.shape
    dtype = log_probs.data.dtype
    targets = np.asarray(targets)
    if targets.shape != (rows,):
        raise ValueError(f"targets shape {targets.shape} does not match {rows} rows")
    w = np.asarray(weights)
    if w.shape != (rows,):
        raise ValueError(f"weights shape {w.shape} does not match {rows} rows")
    w = w.astype(dtype)
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError("target id out of vocabulary range")
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")

    row_idx = np.arange(rows)
    nll = -log_probs.data[row_idx, targets]
    if smoothing > 0.0:
        smooth = -log_probs.data.sum(axis=-1)
        per_row = (1.0 - smoothing) * nll + (smoothing / vocab) * smooth
    else:
        per_row = nll
    scale_c = _const(scale, dtype)
    value = (w * per_row).sum() * scale_c
    if prior is not None:
        p, q, c, k = prior
        q, c = _const(q, dtype), _const(c, dtype)
        value = value + ((p.data * q).sum() * c + _const(k, dtype))

    def grad_fn(g):
        glp = np.zeros_like(log_probs.data)
        glp[row_idx, targets] = -(1.0 - smoothing) * w
        if smoothing > 0.0:
            glp -= (smoothing / vocab) * w[:, None]
        glp *= g * scale_c
        # the tape sums the two when p is log_probs
        return (glp,) if prior is None else (glp, (g * c) * q)

    return _record(Tensor(value), (log_probs,) if prior is None else (log_probs, p), grad_fn)
