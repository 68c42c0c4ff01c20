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

Besides the primitives, four fused ops each record one node for a whole
layer piece: ``linear`` (``x @ w + b``), ``linear_log_softmax`` (the output
projection, ``log_softmax(x @ w + b)``), ``attention`` (scores, scale,
mask, softmax, attention dropout and context) and ``residual_norm``
(dropout, residual add and ``layer_norm``). Each runs the numpy
expressions of the primitives it replaces in the same order, so its output
and gradients are bit-for-bit those of the composition. Where a fused op
works in place (``linear_log_softmax`` shifts and normalizes its logits,
``attention`` its scores), it does so on an intermediate it allocated, so
the in-place rule above holds.

``dropout``, ``attention`` and ``residual_norm`` drop elements only when
given a generator: with ``rng=None`` they draw no mask and return the bits
of a zero rate, whatever ``rate`` is.

Each thread has at most one active tape, and that tape records only the
operations run on its own thread, so two threads can each run a forward and
backward pass at once as long as they share no tensor that either updates.
"""

from __future__ import annotations

import math
import sys
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along axes that were broadcast."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
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
        return np.matmul(g, w.data.T), np.matmul(x.data.T, g), g.sum(axis=0)

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


_LITTLE_ENDIAN = sys.byteorder == "little"


def _keep(shape: tuple[int, ...], dtype, rate: float, rng: np.random.Generator) -> np.ndarray:
    """The inverted-dropout multiplier ``(u >= rate) / (1 - rate)`` for the
    uniforms ``u = rng.random(shape, dtype)``, leaving ``rng`` in the state
    that draw leaves it in.

    A PCG64 ``random`` of float32 turns each 32-bit half of a raw word, low
    half first, into ``(half >> 8) * 2**-24``, and a float64 draw turns a
    raw word into ``(word >> 11) * 2**-53`` and ignores a buffered half. So
    ``u >= rate`` is a threshold on the raw bits, read without building the
    floats. A float32 draw of an odd size, or one after a draw that left
    half a word buffered, falls back to ``rng.random``, and so does any
    other bit generator.
    """
    n = math.prod(shape)
    bitgen = rng.bit_generator
    mask = None
    if _LITTLE_ENDIAN and type(bitgen) is np.random.PCG64:
        if dtype == np.float64:
            mask = bitgen.random_raw(n) >= math.ceil(rate * 2**53) << 11
        elif n and n % 2 == 0 and not bitgen.state["has_uint32"]:
            raw = bitgen.random_raw(n // 2)
            mask = raw.view(np.uint32) >= math.ceil(float(np.float32(rate)) * 2**24) << 8
            # a float32 draw leaves the high half of its last word behind,
            # already used, in the state
            state = bitgen.state
            state["uinteger"] = int(raw[-1] >> 32)
            bitgen.state = state
    if mask is None:
        mask = rng.random(shape, dtype=dtype) >= rate
    keep = mask.reshape(shape).astype(dtype)
    keep /= np.asarray(1.0 - rate, dtype=dtype)
    return keep


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


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``x``, computed in ``x``'s own storage."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out * (g - sum(g * out))`` over the last axis, computed in ``g``'s
    storage: callers pass a gradient they allocated."""
    g -= (g * out).sum(axis=-1, keepdims=True)
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


def log_softmax(a: Tensor) -> Tensor:
    _check_finite_rows(a.data, "log_softmax")
    out_data = a.data - a.data.max(axis=-1, keepdims=True)
    out_data -= np.log(np.exp(out_data).sum(axis=-1, keepdims=True))
    return _record(Tensor(out_data), (a,), lambda g: (_log_softmax_grad(g, out_data),))


def linear_log_softmax(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``log_softmax(x @ w + b)`` for a [rows, in] ``x``, as one node; the
    logits are its own, so they are normalized in place."""
    if x.data.ndim != 2:
        raise ValueError("linear_log_softmax expects a [rows, features] input")
    out = np.matmul(x.data, w.data)
    out += b.data
    _check_finite_rows(out, "log_softmax")
    out -= out.max(axis=-1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))

    def grad_fn(g):
        glogits = _log_softmax_grad(g, out)
        return np.matmul(glogits, w.data.T), np.matmul(x.data.T, glogits), glogits.sum(axis=0)

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
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=centered.dtype))
    xhat = centered * inv_std
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        gx = g * gain.data
        # d/dx of (x - mu) / sqrt(var + eps), var and mu both row statistics
        gvar = (gx * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv_std**3
        gx *= inv_std
        gmu = -gx.sum(axis=-1, keepdims=True) + gvar * (-2.0) * centered.mean(axis=-1, keepdims=True)
        gvar_x = gvar * 2.0 * centered
        gvar_x /= dim
        gx += gvar_x
        gx += gmu / dim
        reduce_axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes)

    return out, backward


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Per-row normalization over the last axis with affine output.

    Uses population variance with ``eps`` inside the square root, so a
    constant row maps to zeros (then ``bias``) instead of dividing by zero.
    """
    out, backward = _normalize(x.data - x.data.mean(axis=-1, keepdims=True), gain, bias, eps)
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
    added -= added.mean(axis=-1, keepdims=True)
    out, backward = _normalize(added, gain, bias, eps)

    def grad_fn(g):
        gx, ggain, gbias = backward(g)
        return gx, (gx * keep if keep is not None else gx), ggain, gbias

    return _record(Tensor(out), (x, sub, gain, bias), grad_fn)


def weighted_cross_entropy(
    log_probs: Tensor,
    targets: np.ndarray,
    weights,
    smoothing: float = 0.0,
) -> Tensor:
    """Sum over rows of ``w_j * loss_j`` where ``loss_j`` is the (optionally
    label-smoothed) negative log-likelihood of the gold token.

    ``weights`` are constants: no gradient flows into them. Smoothing ``eps``
    mixes the gold NLL with the uniform distribution over the whole vocab,
    ``(1 - eps) * nll_j + (eps / V) * sum_v(-log p_v)``, and the weight
    multiplies the whole smoothed per-row loss. Pad rows are handled by the
    caller passing weight 0. Reduces to the plain summed NLL when all
    weights are 1 and smoothing is 0.
    """
    if log_probs.data.ndim != 2:
        raise ValueError("weighted_cross_entropy expects [rows, vocab] log-probs")
    rows, vocab = log_probs.data.shape
    targets = np.asarray(targets)
    if targets.shape != (rows,):
        raise ValueError(f"targets shape {targets.shape} does not match {rows} rows")
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    if w.shape != (rows,):
        raise ValueError(f"weights shape {w.shape} does not match {rows} rows")
    w = w.astype(log_probs.data.dtype)
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
    out = Tensor((w * per_row).sum())

    def grad_fn(g):
        glp = np.zeros_like(log_probs.data)
        glp[row_idx, targets] = -(1.0 - smoothing) * w
        if smoothing > 0.0:
            glp -= (smoothing / vocab) * w[:, None]
        return (g * glp,)

    return _record(out, (log_probs,), grad_fn)
