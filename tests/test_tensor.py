import json
import math
import sys
import threading

import numpy as np
import pytest

from cbmi_nmt import tensor as T
from cbmi_nmt.tensor import Tape, Tensor

from conftest import fd_check


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_max_subtraction_stability(self):
        out = T.softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_exp_normalize(self):
        out = T.softmax(Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_are_distributions(self, rng):
        x = Tensor(rng.normal(size=(40, 17)))
        out = T.softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert (out > 0).all() and (out < 1).all()

    def test_non_finite_input_names_row(self):
        x = np.zeros((3, 4))
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"row \(2,\)"):
            T.softmax(Tensor(x))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(5, 9)))
        np.testing.assert_allclose(
            T.log_softmax(x).data, np.log(T.softmax(x).data), atol=1e-12
        )


class TestWeightedCrossEntropy:
    def _row(self):
        return Tensor(np.log([[0.5, 0.5]]))

    def test_unit_weight(self):
        loss = T.weighted_cross_entropy(self._row(), np.array([0]), np.array([1.0]))
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)

    def test_zero_weight(self):
        loss = T.weighted_cross_entropy(self._row(), np.array([0]), np.array([0.0]))
        assert loss.item() == 0.0

    def test_linear_in_weight(self):
        loss = T.weighted_cross_entropy(self._row(), np.array([0]), np.array([2.0]))
        assert loss.item() == pytest.approx(1.3863, abs=1e-4)

    def test_reduces_to_plain_ce(self, rng):
        logits = rng.normal(size=(12, 7))
        log_probs = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        targets = rng.integers(0, 7, size=12)
        loss = T.weighted_cross_entropy(
            Tensor(log_probs), targets, np.ones(12), smoothing=0.0
        )
        plain = -log_probs[np.arange(12), targets].sum()
        assert loss.item() == pytest.approx(plain, abs=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="weights"):
            T.weighted_cross_entropy(self._row(), np.array([0]), np.ones(3))

    def test_weights_are_gradient_opaque(self, rng):
        # gradient of the weighted loss must equal w_j times the gradient of
        # each per-row loss computed in isolation
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        weights = rng.uniform(0.2, 2.0, size=4)

        x = Tensor(logits.copy(), requires_grad=True)
        with Tape() as tape:
            loss = T.weighted_cross_entropy(T.log_softmax(x), targets, weights, 0.1)
            tape.backward(loss)
        combined = x.grad.copy()

        expected = np.zeros_like(logits)
        for j in range(4):
            xj = Tensor(logits.copy(), requires_grad=True)
            row_only = np.zeros(4)
            row_only[j] = 1.0
            with Tape() as tape:
                lj = T.weighted_cross_entropy(T.log_softmax(xj), targets, row_only, 0.1)
                tape.backward(lj)
            expected[j] = weights[j] * xj.grad[j]
        np.testing.assert_allclose(combined, expected, atol=1e-6)

    def test_smoothing_interacts_multiplicatively_with_weight(self, rng):
        log_probs = Tensor(np.log(T.softmax(Tensor(rng.normal(size=(3, 5)))).data))
        targets = np.array([1, 0, 4])
        base = T.weighted_cross_entropy(log_probs, targets, np.ones(3), 0.2).item()
        scaled = T.weighted_cross_entropy(log_probs, targets, 3.0 * np.ones(3), 0.2).item()
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(x)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_ce_closed_form_gradient(self, rng):
        logits = rng.normal(size=(1, 5))
        w = 1.7
        x = Tensor(logits.copy(), requires_grad=True)
        with Tape() as tape:
            loss = T.weighted_cross_entropy(T.log_softmax(x), np.array([2]), np.array([w]))
            tape.backward(loss)
        probs = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
        onehot = np.zeros(5)
        onehot[2] = 1.0
        np.testing.assert_allclose(x.grad[0], w * (probs[0] - onehot), atol=1e-10)

    def test_backward_non_scalar_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_backward_off_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = Tensor(1.0)
        with Tape() as tape:
            T.sum_all(x)
            with pytest.raises(ValueError, match="tape"):
                tape.backward(loss)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            y = T.sum_all(T.add(T.mul(x, 3.0), T.mul(x, 4.0)))
            tape.backward(y)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deterministic(self, rng):
        logits = rng.normal(size=(6, 8))

        def run():
            x = Tensor(logits.copy(), requires_grad=True)
            with Tape() as tape:
                loss = T.weighted_cross_entropy(
                    T.log_softmax(x), np.arange(6) % 8, np.ones(6)
                )
                tape.backward(loss)
            return x.grad

        a, b = run(), run()
        assert (a == b).all()

    @pytest.mark.parametrize("dtype, contributions", [
        (np.float32, [np.array([-0.0, 1.5, -2.0], np.float32)]),
        (np.float32, [np.array([1 / 3, 1e-50, 2.0**-149 * 1.5, 1 + 2.0**-30])]),
        (np.float64, [np.array([-0.0, 0.1, 0.7]), np.array([-0.0, 0.2, 1e-17])]),
    ], ids=["negative_zero", "float64_into_float32", "two_contributions"])
    def test_leaf_gradient_is_the_sum_into_zeros(self, dtype, contributions):
        # the bits of adding each contribution, in order, into zeros of the
        # leaf's dtype and shape, in an array of its own
        leaf = Tensor(np.ones(contributions[0].shape, dtype=dtype), requires_grad=True)
        with Tape() as tape:
            loss = T._record(Tensor(np.zeros((), dtype)), (leaf,) * len(contributions),
                             lambda g: contributions)
            tape.backward(loss)
        expected = np.zeros_like(leaf.data)
        for contribution in contributions:
            expected += contribution
        assert _bits(leaf.grad) == _bits(expected)
        assert not any(np.shares_memory(leaf.grad, c) for c in contributions)


class TestTapePerThread:
    def test_other_threads_ops_are_not_recorded(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        other = {}

        def thread_b():
            # runs while the main thread's tape is active
            y = Tensor(np.ones(3), requires_grad=True)
            other["untaped"] = T.sum_all(T.mul(y, 2.0))
            with Tape() as tape_b:  # a tape of its own does not clash with A's
                other["loss"] = T.sum_all(T.mul(y, 3.0))
                tape_b.backward(other["loss"])
            other["nodes"] = len(tape_b.nodes)
            other["grad"] = y.grad

        with Tape() as tape_a:
            worker = threading.Thread(target=thread_b)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            loss = T.sum_all(T.mul(x, 4.0))
            tape_a.backward(loss)
        assert [node.out for node in tape_a.nodes][-1] is loss and len(tape_a.nodes) == 2
        assert not other["untaped"].requires_grad
        assert other["nodes"] == 2
        np.testing.assert_array_equal(other["grad"], np.full(3, 3.0))
        np.testing.assert_array_equal(x.grad, np.full(3, 4.0))

    def test_concurrent_tapes_keep_their_own_gradients(self):
        # more threads than cores, switching as often as the interpreter can
        results = {}

        def work(k):
            x = Tensor(np.arange(4.0), requires_grad=True)
            sizes = set()
            for _ in range(200):
                x.grad = None
                with Tape() as tape:
                    tape.backward(T.sum_all(T.mul(T.mul(x, float(k)), x)))
                sizes.add(len(tape.nodes))
            results[k] = (x.grad, sizes)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(1, 5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(1, 5):
            grad, sizes = results[k]
            assert sizes == {3}
            np.testing.assert_array_equal(grad, 2.0 * k * np.arange(4.0))

    def test_untaped_thread_records_nothing_while_another_has_a_tape(self):
        entered, done = threading.Event(), threading.Event()

        def thread_b():
            with Tape():
                entered.set()
                assert done.wait(timeout=30)

        worker = threading.Thread(target=thread_b)
        worker.start()
        try:
            assert entered.wait(timeout=30)
            x = Tensor(np.arange(3.0), requires_grad=True)
            assert not T.mul(x, 2.0).requires_grad
        finally:
            done.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert T._LIVE_TAPES == 0

    def test_nested_tape_in_one_thread_raises(self):
        with Tape():
            with pytest.raises(RuntimeError, match="do not nest"):
                with Tape():
                    pass
        assert T._LIVE_TAPES == 0


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_hand_mean_variance(self):
        out = T.layer_norm(Tensor([[0.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gain_collapses_to_bias(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        b = rng.normal(size=6)
        out = T.layer_norm(x, Tensor(np.zeros(6)), Tensor(b))
        np.testing.assert_allclose(out.data, np.broadcast_to(b, (4, 6)), atol=1e-12)


class TestFiniteDifferences:
    """Central finite-difference oracle for every differentiable op."""

    def test_add_broadcast(self, rng):
        c = rng.normal(size=(5, 4))
        fd_check(
            lambda a, b: T.sum_all(T.mul(T.add(a, b), c)),
            [rng.normal(size=(5, 4)), rng.normal(size=4)],
            rng,
        )

    def test_mul(self, rng):
        c = rng.normal(size=(3, 4))
        fd_check(
            lambda a, b: T.sum_all(T.mul(T.mul(a, b), c)),
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
            rng,
        )

    def test_matmul_2d(self, rng):
        c = rng.normal(size=(3, 5))
        fd_check(
            lambda a, b: T.sum_all(T.mul(T.matmul(a, b), c)),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))],
            rng,
        )

    def test_matmul_batched(self, rng):
        c = rng.normal(size=(2, 3, 3, 6))
        fd_check(
            lambda a, b: T.sum_all(T.mul(T.matmul(a, b), c)),
            [rng.normal(size=(2, 3, 3, 4)), rng.normal(size=(2, 3, 4, 6))],
            rng,
        )

    def test_reshape_transpose(self, rng):
        c = rng.normal(size=(4, 2, 3))
        fd_check(
            lambda a: T.sum_all(T.mul(T.transpose(T.reshape(a, (2, 3, 4)), (2, 0, 1)), c)),
            [rng.normal(size=(6, 4))],
            rng,
        )

    def test_embedding(self, rng):
        ids = np.array([[0, 2, 2], [1, 0, 3]])
        c = rng.normal(size=(2, 3, 5))
        fd_check(
            lambda w: T.sum_all(T.mul(T.embedding(w, ids), c)),
            [rng.normal(size=(4, 5))],
            rng,
        )

    @pytest.mark.parametrize("ids", [
        np.array([3, 1, 3, 3, 0, 1, 3, 3, 3, 3, 3, 1]),  # an id nine times, ids 2, 4, 5 unused
        np.array([2]),
        np.array([[5, 0, 5], [0, 4, 5]]),
        np.zeros((2, 0), dtype=np.int64),
    ], ids=["repeated", "single", "2d", "empty"])
    def test_embedding_backward(self, rng, ids):
        c = rng.normal(size=(*ids.shape, 4))
        fd_check(lambda w: T.sum_all(T.mul(T.embedding(w, ids), c)),
                 [rng.normal(size=(6, 4))], rng, samples_per_tensor=24)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.sum_all(T.mul(T.embedding(w, ids), c)))
        unused = np.setdiff1d(np.arange(6), ids)
        assert not w.grad[unused].any()

    def test_relu(self, rng):
        c = rng.normal(size=(5, 5))
        fd_check(
            lambda a: T.sum_all(T.mul(T.relu(a), c)),
            [rng.normal(size=(5, 5)) + 0.05],
            rng,
        )

    def test_dropout(self, rng):
        # a fresh generator per evaluation draws the same mask each time
        c = rng.normal(size=(6, 7))
        fd_check(
            lambda a: T.sum_all(T.mul(T.dropout(a, 0.3, np.random.default_rng(5)), c)),
            [rng.normal(size=(6, 7))],
            rng,
            samples_per_tensor=16,
        )

    def test_softmax(self, rng):
        c = rng.normal(size=(4, 7))
        fd_check(
            lambda a: T.sum_all(T.mul(T.softmax(a), c)),
            [rng.normal(size=(4, 7))],
            rng,
            samples_per_tensor=16,
        )

    def test_log_softmax(self, rng):
        c = rng.normal(size=(4, 7))
        fd_check(
            lambda a: T.sum_all(T.mul(T.log_softmax(a), c)),
            [rng.normal(size=(4, 7))],
            rng,
            samples_per_tensor=16,
        )

    def test_layer_norm(self, rng):
        c = rng.normal(size=(5, 8))
        fd_check(
            lambda x, g, b: T.sum_all(T.mul(T.layer_norm(x, g, b), c)),
            [rng.normal(size=(5, 8)), rng.normal(size=8), rng.normal(size=8)],
            rng,
            samples_per_tensor=12,
        )

    def test_weighted_cross_entropy_through_log_softmax(self, rng):
        targets = rng.integers(0, 9, size=6)
        weights = rng.uniform(0.1, 2.0, size=6)
        fd_check(
            lambda a: T.weighted_cross_entropy(T.log_softmax(a), targets, weights, 0.1),
            [rng.normal(size=(6, 9))],
            rng,
            samples_per_tensor=16,
        )


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _run_bits(build, arrays, dtype, cotangent):
    """The raw bits of ``build``'s output and of the gradient of every input
    under the loss ``sum(out * cotangent)``."""
    leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*leaves)
        tape.backward(T.sum_all(T.mul(out, cotangent.astype(dtype))))
    return [_bits(out.data)] + [_bits(t.grad) for t in leaves]


B, TQ, TK, HEADS, HEAD_DIM = 2, 4, 6, 3, 8
D = HEADS * HEAD_DIM


def _split(x2d: Tensor, length: int) -> Tensor:
    # the model's head split: a transposed view of the projection's rows
    return T.transpose(T.reshape(x2d, (B, length, HEADS, HEAD_DIM)), (0, 2, 1, 3))


def _attention_mask() -> np.ndarray:
    mask = np.zeros((B, 1, TQ, TK))
    mask[0, :, :, 4:] = -1e9
    mask[1] = np.triu(np.full((TQ, TK), -1e9), k=3)
    return mask


class TestFusedOpsMatchPrimitives:
    """Each fused op gives the bits of the primitive ops it replaces, in its
    output and in every gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear(self, rng, dtype):
        arrays = [rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)]
        cot = rng.normal(size=(7, 3))
        fused = _run_bits(T.linear, arrays, dtype, cot)
        prim = _run_bits(lambda x, w, b: T.add(T.matmul(x, w), b), arrays, dtype, cot)
        assert fused == prim

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_attention(self, rng, dtype, masked, rate):
        arrays = [rng.normal(size=(B * TQ, D)), rng.normal(size=(B * TK, D)),
                  rng.normal(size=(B * TK, D))]
        cot = rng.normal(size=(B, HEADS, TQ, HEAD_DIM))
        mask = _attention_mask().astype(dtype) if masked else None
        scale = 1.0 / math.sqrt(HEAD_DIM)

        def fused(q, k, v):
            drop_rng = np.random.default_rng(5)
            return T.attention(_split(q, TQ), _split(k, TK), _split(v, TK), mask, scale, rate,
                               drop_rng)

        def primitives(q, k, v):
            drop_rng = np.random.default_rng(5)
            q, k, v = _split(q, TQ), _split(k, TK), _split(v, TK)
            scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale)
            if mask is not None:
                scores = T.add(scores, mask)
            attn = T.dropout(T.softmax(scores), rate, drop_rng)
            return T.matmul(attn, v)

        assert _run_bits(fused, arrays, dtype, cot) == _run_bits(primitives, arrays, dtype, cot)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_residual_norm(self, rng, dtype, rate):
        arrays = [rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 5, 8)),
                  rng.normal(size=8), rng.normal(size=8)]
        cot = rng.normal(size=(2, 5, 8))

        def fused(x, sub, gain, bias):
            return T.residual_norm(x, sub, gain, bias, rate, np.random.default_rng(5))

        def primitives(x, sub, gain, bias):
            dropped = T.dropout(sub, rate, np.random.default_rng(5))
            return T.layer_norm(T.add(x, dropped), gain, bias)

        assert _run_bits(fused, arrays, dtype, cot) == _run_bits(primitives, arrays, dtype, cot)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_log_softmax(self, rng, dtype):
        # logits far from zero, so a missing max shift changes the bits
        arrays = [3 * rng.normal(size=(7, 5)), rng.normal(size=(5, 11)), rng.normal(size=11) + 20]
        cot = rng.normal(size=(7, 11))
        fused = _run_bits(T.linear_log_softmax, arrays, dtype, cot)
        prim = _run_bits(lambda x, w, b: T.log_softmax(T.linear(x, w, b)), arrays, dtype, cot)
        assert fused == prim

    def test_fused_ops_record_one_node(self, rng):
        x = Tensor(rng.normal(size=(B * TQ, D)), requires_grad=True)
        g, b = Tensor(np.ones(D), requires_grad=True), Tensor(np.zeros(D), requires_grad=True)
        with Tape() as tape:
            q = _split(x, TQ)
            n = len(tape.nodes)
            T.attention(q, q, q, _attention_mask()[:, :, :, :TQ], 0.5, 0.1, rng)
            T.linear(x, Tensor(np.ones((D, 2)), requires_grad=True), Tensor(np.zeros(2)))
            T.linear_log_softmax(x, Tensor(np.ones((D, 2)), requires_grad=True),
                                 Tensor(np.zeros(2)))
            T.residual_norm(x, x, g, b, 0.1, rng)
            assert len(tape.nodes) == n + 4


def test_linear_log_softmax_names_a_non_finite_row(rng):
    x = rng.normal(size=(4, 3))
    x[2, 1] = np.nan
    w, b = Tensor(rng.normal(size=(3, 5))), Tensor(np.zeros(5))
    with pytest.raises(ValueError, match=r"^log_softmax: non-finite input at row \(2,\)$"):
        T.linear_log_softmax(Tensor(x), w, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["dropout", "attention", "residual_norm"])
def test_no_generator_draws_no_dropout_mask(rng, op, dtype):
    # with rng=None a positive rate gives the bits of a zero rate
    if op == "dropout":
        arrays, cot = [rng.normal(size=(3, 5))], rng.normal(size=(3, 5))

        def build(rate):
            return lambda x: T.dropout(x, rate, None)
    elif op == "attention":
        arrays = [rng.normal(size=(B * TQ, D)), rng.normal(size=(B * TK, D)),
                  rng.normal(size=(B * TK, D))]
        cot = rng.normal(size=(B, HEADS, TQ, HEAD_DIM))

        def build(rate):
            return lambda q, k, v: T.attention(_split(q, TQ), _split(k, TK), _split(v, TK),
                                               _attention_mask().astype(dtype), 0.5, rate, None)
    else:
        arrays = [rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 5, 8)),
                  rng.normal(size=8), rng.normal(size=8)]
        cot = rng.normal(size=(2, 5, 8))

        def build(rate):
            return lambda x, sub, gain, bias: T.residual_norm(x, sub, gain, bias, rate, None)
    assert _run_bits(build(0.3), arrays, dtype, cot) == _run_bits(build(0.0), arrays, dtype, cot)


class TestFusedFiniteDifferences:
    def test_linear(self, rng):
        c = rng.normal(size=(6, 3))
        fd_check(
            lambda x, w, b: T.sum_all(T.mul(T.linear(x, w, b), c)),
            [rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)],
            rng,
        )

    def test_attention(self, rng):
        c = rng.normal(size=(B, HEADS, TQ, HEAD_DIM))
        mask = _attention_mask()

        def loss(q, k, v):
            out = T.attention(_split(q, TQ), _split(k, TK), _split(v, TK), mask,
                              1.0 / math.sqrt(HEAD_DIM), 0.2, np.random.default_rng(5))
            return T.sum_all(T.mul(out, c))

        fd_check(
            loss,
            [rng.normal(size=(B * TQ, D)), rng.normal(size=(B * TK, D)),
             rng.normal(size=(B * TK, D))],
            rng,
            samples_per_tensor=16,
        )

    def test_linear_log_softmax(self, rng):
        c = rng.normal(size=(6, 7))
        fd_check(
            lambda x, w, b: T.sum_all(T.mul(T.linear_log_softmax(x, w, b), c)),
            [rng.normal(size=(6, 4)), rng.normal(size=(4, 7)), rng.normal(size=7)],
            rng,
            samples_per_tensor=16,
        )

    def test_residual_norm(self, rng):
        c = rng.normal(size=(3, 4, 8))
        fd_check(
            lambda x, sub, g, b: T.sum_all(
                T.mul(T.residual_norm(x, sub, g, b, 0.3, np.random.default_rng(5)), c)
            ),
            [rng.normal(size=(3, 4, 8)), rng.normal(size=(3, 4, 8)), rng.normal(size=8),
             rng.normal(size=8)],
            rng,
            samples_per_tensor=12,
        )


class TestLossHead:
    """``weighted_cross_entropy`` with ``scale`` and a prior term ``(p, q, c,
    k)`` is the whole train-step loss: one node, with the bits of the
    composition it replaced."""

    ROWS, VOCAB = 6, 9

    def _inputs(self, rng):
        targets = rng.integers(0, self.VOCAB, size=self.ROWS)
        weights = rng.uniform(0.1, 2.0, size=self.ROWS)
        weights[1] = 0.0  # a pad row
        q = rng.dirichlet(np.ones(self.VOCAB), size=self.ROWS)
        return targets, weights, q

    @staticmethod
    def _prior_source(kind: str, rows: Tensor):
        # None, the CE rows themselves (prior_select), or a student
        # log_softmax(rows / tau) of its own (lm_prior)
        if kind == "none":
            return None
        return rows if kind == "rows" else T.log_softmax(T.mul(rows, 0.5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, k", [  # prior_select's k is 0
        ("none", 0.0), ("rows", 0.0), ("rows", 1.7), ("rows", -2.9), ("student", 0.0),
        ("student", 1.7), ("student", -2.9),
    ])
    def test_bits_of_the_composition(self, rng, dtype, kind, k):
        targets, weights, q = self._inputs(rng)
        logits = 3 * rng.normal(size=(self.ROWS, self.VOCAB))
        scale, c = 1.0 / 17, -0.1 / 5

        def run(fused: bool):
            x = Tensor(logits.astype(dtype), requires_grad=True)
            with Tape() as tape:
                rows = T.log_softmax(x)
                p = self._prior_source(kind, rows)
                prior = None if p is None else (p, q.astype(dtype), c, k)
                if fused:
                    n = len(tape.nodes)
                    loss = T.weighted_cross_entropy(rows, targets, weights, 0.1, scale, prior)
                    assert len(tape.nodes) == n + 1
                else:  # the reference: the primitives the head stands for
                    loss = T.mul(T.weighted_cross_entropy(rows, targets, weights, 0.1), scale)
                    if p is not None:
                        term = T.mul(T.sum_all(T.mul(p, q.astype(dtype))), c)
                        loss = T.add(loss, T.add(term, k))
                tape.backward(loss)
            return _bits(loss.data), _bits(x.grad)

        assert run(fused=True) == run(fused=False)

    def test_fd_without_prior(self, rng):
        targets, weights, _ = self._inputs(rng)
        fd_check(
            lambda a: T.weighted_cross_entropy(T.log_softmax(a), targets, weights, 0.1, 0.25),
            [rng.normal(size=(self.ROWS, self.VOCAB))],
            rng,
            samples_per_tensor=16,
        )

    def test_fd_prior_on_the_ce_rows(self, rng):
        targets, weights, q = self._inputs(rng)

        def loss(a):
            rows = T.log_softmax(a)
            return T.weighted_cross_entropy(rows, targets, weights, 0.1, 0.25, (rows, q, -0.3, 0.7))

        fd_check(loss, [rng.normal(size=(self.ROWS, self.VOCAB))], rng, samples_per_tensor=16)

    def test_fd_prior_on_a_separate_tensor(self, rng):
        targets, weights, q = self._inputs(rng)

        def loss(a, b):
            prior = (T.log_softmax(b), q, -0.3, 0.7)
            return T.weighted_cross_entropy(T.log_softmax(a), targets, weights, 0.1, 0.25, prior)

        fd_check(loss, [rng.normal(size=(self.ROWS, self.VOCAB)),
                        rng.normal(size=(self.ROWS, self.VOCAB))], rng, samples_per_tensor=16)


def _generator(kind: str) -> np.random.Generator:
    if kind == "philox":
        return np.random.Generator(np.random.Philox(11))
    rng = np.random.default_rng(11)
    if kind == "pcg64_buffered":
        rng.random(1, dtype=np.float32)  # leaves the high half of a word buffered
        assert rng.bit_generator.state["has_uint32"]
    return rng


def _state(rng: np.random.Generator) -> str:
    # Philox keeps numpy arrays in its state
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


def _lanes(words: np.ndarray) -> np.ndarray:
    # the 16-bit lanes of 64-bit words, low lane first, by arithmetic on the
    # words, whatever the host's byte order
    return ((words[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)).reshape(-1)


class TestDropoutDraws:
    """``dropout`` drops element ``i`` when 16-bit lane ``i`` of the
    generator's raw 64-bit words (four a word, low lane first) is below
    ``ceil(rate * 2**16)``, scales the others by ``1 / (1 - rate)``, and
    advances the generator by exactly ``ceil(n / 4)`` words, for every bit
    generator."""

    @staticmethod
    def check(kind: str, shape, dtype, rate: float) -> np.ndarray:
        rng, ref = _generator(kind), _generator(kind)
        out = T.dropout(Tensor(np.ones(shape, dtype=dtype)), rate, rng).data
        n = math.prod(shape)
        lanes = _lanes(ref.bit_generator.random_raw(-(-n // 4)))
        kept = lanes[:n].reshape(shape) >= math.ceil(rate * 2**16)
        want = np.where(kept, np.asarray(1.0 / (1.0 - rate), dtype=dtype), np.zeros((), dtype))
        assert _bits(out) == _bits(want)
        assert _state(rng) == _state(ref)
        assert _bits(rng.random(3, dtype=dtype)) == _bits(ref.random(3, dtype=dtype))
        return out

    @pytest.mark.parametrize("kind", ["pcg64", "pcg64_buffered", "philox"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # sizes 15, 24, 2112, 1, 18 and 2145: every remainder of four
    @pytest.mark.parametrize("shape", [(3, 5), (4, 6), (33, 64), (1,), (2, 3, 3), (33, 65)])
    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9, 1e-7, 0.999999])
    def test_mask_is_the_uniform_draw(self, kind, dtype, shape, rate):
        self.check(kind, shape, dtype, rate)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rate_on_a_drawn_value(self, dtype):
        # a lane equal to rate * 2**16 is kept; with the rate one step of
        # the float above it, the lane is dropped
        words = _generator("pcg64").bit_generator.random_raw(16)
        lane = int(words[4] >> np.uint64(48))  # element (2, 3) of an (8, 8) draw
        assert 0 < lane
        rate = lane / 2**16
        assert self.check("pcg64", (8, 8), dtype, rate)[2, 3] != 0
        assert self.check("pcg64", (8, 8), dtype, math.nextafter(rate, 1.0))[2, 3] == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_rates(self, dtype):
        # 1e-7 drops exactly the zero lanes; 0.999999 rounds up to 2**16
        # and drops every element, with a finite scale
        n = 4 * 4096
        zeros = int((_lanes(_generator("philox").bit_generator.random_raw(n // 4)) == 0).sum())
        out = self.check("philox", (n,), dtype, 1e-7)
        assert int((out == 0).sum()) == zeros
        assert not self.check("philox", (n,), dtype, 0.999999).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_where_bitwise(self, dtype):
        info = np.finfo(dtype)
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5,
                            info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max],
                           dtype=dtype)
        # every value at every position of arrays of many sizes: numpy's
        # vector loops and their scalar tails order the operands differently
        for n in range(1, 2 * special.size + 9):
            for shift in range(special.size):
                a = np.resize(np.roll(special, shift), n)
                assert _bits(T.relu(Tensor(a)).data) == _bits(np.where(a > 0, a, 0).astype(dtype))


class TestInPlaceKeepsExpressions:
    """The ops that work in their own temporaries give the bits of the plain
    numpy expressions, evaluated in the same order."""

    @staticmethod
    def grads(op, x, cot):
        xs = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = op(xs)
            tape.backward(T.sum_all(T.mul(out, cot)))
        return out.data, xs.grad

    @staticmethod
    def row_sums(a: np.ndarray) -> np.ndarray:
        # one matrix-vector product with a ones vector over the flattened rows
        return (a.reshape(-1, a.shape[-1]) @ np.ones(a.shape[-1], a.dtype)).reshape(
            *a.shape[:-1], 1
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_and_log_softmax(self, rng, dtype):
        x, g = rng.normal(size=(2, 5, 7)).astype(dtype), rng.normal(size=(2, 5, 7)).astype(dtype)
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / self.row_sums(exp)
        out, grad = self.grads(T.softmax, x, g)
        assert _bits(out) == _bits(probs)
        assert _bits(grad) == _bits(probs * (g - self.row_sums(g * probs)))

        # the log-softmax keeps numpy's row sums, which see one row at a time
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out, grad = self.grads(T.log_softmax, x, g)
        assert _bits(out) == _bits(logp)
        assert _bits(grad) == _bits(g - np.exp(logp) * g.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, rng, dtype):
        x, g = rng.normal(size=(3, 4, 8)).astype(dtype), rng.normal(size=(3, 4, 8)).astype(dtype)
        gain, bias = rng.normal(size=8).astype(dtype), rng.normal(size=8).astype(dtype)
        centered = x - self.row_sums(x) / 8
        var = self.row_sums(centered * centered) / 8
        inv_std = 1.0 / np.sqrt(var + np.asarray(T.LAYER_NORM_EPS, dtype=dtype))
        gxhat = g * gain
        gvar = self.row_sums(gxhat * centered) * (-0.5) * inv_std**3
        gmu = -self.row_sums(gxhat * inv_std) + gvar * (-2.0) * (self.row_sums(centered) / 8)
        want = gxhat * inv_std + gvar * 2.0 * centered / 8 + gmu / 8
        gain_t, bias_t = Tensor(gain, requires_grad=True), Tensor(bias, requires_grad=True)
        out, grad = self.grads(lambda t: T.layer_norm(t, gain_t, bias_t), x, g)
        assert _bits(out) == _bits(centered * inv_std * gain + bias)
        assert _bits(grad) == _bits(want)
        # the gain and bias gradients: one vector-matrix product each
        ones = np.ones(12, dtype)
        assert _bits(gain_t.grad) == _bits(ones @ (g * (centered * inv_std)).reshape(12, 8))
        assert _bits(bias_t.grad) == _bits(ones @ g.reshape(12, 8))
