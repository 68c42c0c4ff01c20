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

    def test_relu(self, rng):
        c = rng.normal(size=(5, 5))
        fd_check(
            lambda a: T.sum_all(T.mul(T.relu(a), c)),
            [rng.normal(size=(5, 5)) + 0.05],
            rng,
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
