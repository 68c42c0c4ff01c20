import numpy as np
import pytest

from cbmi_nmt import runtime
from cbmi_nmt.cli import FullConfig
from cbmi_nmt.corpus import bmi_value, build_cooccurrence
from cbmi_nmt.tensor import Tape, Tensor
from cbmi_nmt.weighting import CbmiConfig, cbmi_schedule


def pytest_configure(config):
    """Apply the runtime policy of ``cli.run`` once for the session, so no
    test's numbers depend on which test first runs a command."""
    runtime.malloc_policy()
    runtime.set_blas_threads(FullConfig.blas_threads)


def eval_loss(make_loss, arrays):
    """Evaluate a loss builder on plain (non-tracked) tensors."""
    return make_loss(*[Tensor(a) for a in arrays]).item()


def fd_check(
    make_loss,
    arrays,
    rng,
    samples_per_tensor=8,
    h=1e-5,
    tol=1e-3,
    min_pass_rate=0.99,
):
    """Compare tape gradients of a scalar loss against central finite
    differences on randomly sampled coordinates of each input array.

    Returns the pass rate; asserts it meets ``min_pass_rate``. Inputs must be
    float64 for the tolerance to be meaningful.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = make_loss(*tensors)
        tape.backward(loss)

    checks = []
    for t_idx, tensor in enumerate(tensors):
        grad = tensor.grad
        assert grad is not None, f"input {t_idx} received no gradient"
        flat_size = grad.size
        n = min(samples_per_tensor, flat_size)
        coords = rng.choice(flat_size, size=n, replace=False)
        for coord in coords:
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[t_idx].reshape(-1)[coord] += h
            minus[t_idx].reshape(-1)[coord] -= h
            fd = (eval_loss(make_loss, plus) - eval_loss(make_loss, minus)) / (2 * h)
            g = grad.reshape(-1)[coord]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            checks.append(rel < tol)
    rate = float(np.mean(checks))
    assert rate >= min_pass_rate, f"finite-difference pass rate {rate:.3f} < {min_pass_rate}"
    return rate


def schedule_of(sentences, width=None, **config):
    """``cbmi_schedule`` over sentences given as token-CBMI values: a value
    ``v`` is fed as ``p_nmt = 1``, ``p_lm = exp(-v)``. Each sentence is
    padded to ``width`` (default: the longest) with placeholders the
    schedule must ignore. Returns the schedule and the mask."""
    width = width or max(len(values) for values in sentences)
    mask = np.zeros((len(sentences), width), dtype=bool)
    p_lm = np.full(mask.shape, 0.5)
    for i, values in enumerate(sentences):
        mask[i, : len(values)] = True
        p_lm[i, : len(values)] = np.exp(-np.asarray(values, dtype=np.float64))
    return cbmi_schedule(np.ones(mask.shape), p_lm, mask, CbmiConfig(**config)), mask


def normalized_sentence_cbmi(schedule, scale_s):
    """The batch-normalized sentence CBMI, read off the sentence weights;
    valid only where no sentence weight clamps at zero."""
    assert (schedule.sentence_weights > 0).all()
    return (schedule.sentence_weights - 1.0) / scale_s


def scalar_bmi_values(pairs, src_freq, tgt_freq, vocab_size):
    """The BMI table by the scalar reference: per target type, the mean of
    ``bmi_value`` over the pairs containing it, summed in pair order with
    plain float addition (no pairwise or compensated summation)."""
    cooc = build_cooccurrence(pairs)
    sums, hits = [0.0] * vocab_size, [0] * vocab_size
    for pair in pairs:
        for t in set(pair.tgt):
            sums[t] += bmi_value(pair.src, t, src_freq, tgt_freq, cooc, len(pairs))
            hits[t] += 1
    return np.array([total / n if n else 0.0 for total, n in zip(sums, hits)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
