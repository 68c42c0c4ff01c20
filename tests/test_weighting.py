import math
from dataclasses import fields

import numpy as np
import pytest

from cbmi_nmt import tensor as T
from cbmi_nmt import weighting as W
from cbmi_nmt.tensor import Tensor
from cbmi_nmt.weighting import (
    BaselineConfig,
    CbmiConfig,
    Prior,
    WeightScheme,
    cbmi_records_for_batch,
    cbmi_schedule,
    select_prior,
)

from conftest import fd_check, normalized_sentence_cbmi, schedule_of


def _token_cbmi(p_nmt, p_lm):
    """The schedule's token CBMI of one gold-token probability pair."""
    mask = np.ones((1, 1), dtype=bool)
    schedule = cbmi_schedule(np.array([[p_nmt]]), np.array([[p_lm]]), mask, CbmiConfig())
    return schedule.token_cbmi[0, 0]


def test_gold_token_probs_of_live_rows():
    # [n, V] rows with [n] targets read what [B, T, V] with [B, T] reads there
    rng = np.random.default_rng(3)
    log_probs = np.log(rng.dirichlet(np.ones(7), size=(3, 4))).astype(np.float32)
    targets = rng.integers(0, 7, size=(3, 4))
    mask = rng.random((3, 4)) < 0.6
    full = W.gold_token_probs(log_probs, targets)
    live = W.gold_token_probs(log_probs[mask], targets[mask])
    assert full.shape == (3, 4) and live.shape == (mask.sum(),)
    assert live.dtype == np.float64 and live.tobytes() == full[mask].tobytes()
    assert np.array_equal(full, np.exp(np.take_along_axis(
        log_probs, targets[..., None], axis=-1)[..., 0].astype(np.float64)))


class TestTokenCbmi:
    def test_equal_probabilities_give_zero(self):
        assert _token_cbmi(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_source_helps(self):
        assert _token_cbmi(0.5, 0.25) == pytest.approx(math.log(2), abs=1e-12)

    def test_source_hurts(self):
        assert _token_cbmi(0.1, 0.5) == pytest.approx(math.log(0.2), abs=1e-12)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="zero probability"):
            _token_cbmi(0.0, 0.5)
        with pytest.raises(ValueError, match="zero probability"):
            cbmi_schedule(np.array([0.5]), np.array([0.0]), np.ones((1, 1), dtype=bool),
                          CbmiConfig())


class TestScheduleInputForms:
    """``cbmi_schedule`` reads [B, T] probabilities, whose pads it ignores,
    and the [n] probabilities of the mask's live positions alike."""

    @staticmethod
    def _placeholders(rng, p, mask, value=None):
        """``p`` with random positive values (or ``value``) at the pads."""
        p = p.copy()
        pads = ~mask
        assert pads.any()
        p[pads] = rng.uniform(1e-6, 5.0, size=pads.sum()) if value is None else value
        return p

    @pytest.mark.parametrize("config", [
        CbmiConfig(), CbmiConfig(use_token=False), CbmiConfig(use_sentence=False),
        CbmiConfig(scale_t=0.5, scale_s=0.7),
    ])
    def test_live_form_is_padded_form_bit_for_bit(self, rng, config):
        p_nmt, p_lm, mask = _random_batch(rng)
        live = cbmi_schedule(p_nmt[mask], p_lm[mask], mask, config)
        padded = cbmi_schedule(self._placeholders(rng, p_nmt, mask),
                               self._placeholders(rng, p_lm, mask), mask, config)
        for f in fields(W.CbmiBatch):
            a, b = getattr(live, f.name), getattr(padded, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name

    def test_zero_at_pad_is_ignored(self, rng):
        p_nmt, p_lm, mask = _random_batch(rng)
        live = cbmi_schedule(p_nmt[mask], p_lm[mask], mask, CbmiConfig())
        padded = cbmi_schedule(self._placeholders(rng, p_nmt, mask, 0.0),
                               self._placeholders(rng, p_lm, mask, 0.0), mask, CbmiConfig())
        assert padded.final_weights.tobytes() == live.final_weights.tobytes()

    @pytest.mark.parametrize("model", ["nmt", "lm"])
    def test_zero_at_live_position_raises_in_both_forms(self, rng, model):
        p_nmt, p_lm, mask = _random_batch(rng)
        zeroed = p_nmt if model == "nmt" else p_lm
        rows, cols = np.nonzero(mask)
        zeroed[rows[-1], cols[-1]] = 0.0
        messages = []
        for form in (lambda p: p, lambda p: p[mask]):
            with pytest.raises(ValueError) as raised:
                cbmi_schedule(form(p_nmt), form(p_lm), mask, CbmiConfig())
            messages.append(str(raised.value))
        assert messages == ["zero probability fed to CBMI; upstream softmax is broken"] * 2


class TestIntraSentenceNormalization:
    def test_constant_sentence_floored(self):
        schedule, _ = schedule_of([[2.0, 2.0, 2.0]])
        np.testing.assert_allclose(schedule.norm_token_cbmi, 0.0, atol=1e-12)
        # a spread below sigma_floor is divided by the floor, not by itself
        schedule, _ = schedule_of([[0.0, 1e-8]])
        np.testing.assert_allclose(schedule.norm_token_cbmi[0], [-5e-3, 5e-3], atol=1e-9)

    def test_hand_mean_std(self):
        schedule, _ = schedule_of([[0.0, 2.0, 4.0]])
        np.testing.assert_allclose(schedule.norm_token_cbmi[0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_single_token_sentence(self):
        schedule, _ = schedule_of([[5.0]])
        np.testing.assert_allclose(schedule.norm_token_cbmi[0], [0.0], atol=1e-12)

    def test_pads_excluded_and_zeroed(self):
        p_lm = np.exp(-np.array([[0.0, 2.0, 4.0, 99.0]]))
        mask = np.array([[True, True, True, False]])
        schedule = cbmi_schedule(np.ones((1, 4)), p_lm, mask, CbmiConfig())
        norm = schedule.norm_token_cbmi[0]
        np.testing.assert_allclose(norm[:3], [-1.2247, 0.0, 1.2247], atol=1e-4)
        assert norm[3] == 0.0
        assert schedule.token_cbmi[0, 3] == 0.0 and schedule.final_weights[0, 3] == 0.0
        assert schedule.sent_cbmi[0] == pytest.approx(2.0)

    def test_population_std_used(self, rng):
        values = rng.normal(size=12)
        schedule, _ = schedule_of([values])
        norm = schedule.norm_token_cbmi[0]
        # ddof=1 would leave a std of sqrt(11/12) here
        np.testing.assert_allclose(norm * values.std() + values.mean(), values, atol=1e-12)
        assert abs(norm.mean()) < 1e-10
        assert abs(norm.std() - 1.0) < 1e-10


class TestTokenWeight:
    def test_centered_value_gives_one(self):
        schedule, _ = schedule_of([[5.0]], scale_t=0.7)
        assert schedule.token_weights[0, 0] == 1.0

    def test_linear_form(self):
        # the outlier of n values with n - 1 equal ones lies sqrt(n - 1) std out
        schedule, _ = schedule_of([[0.0, 0.0, 0.0, 0.0, 1.0]], scale_t=0.1)
        assert schedule.norm_token_cbmi[0, 4] == pytest.approx(2.0, abs=1e-12)
        assert schedule.token_weights[0, 4] == pytest.approx(1.2, abs=1e-12)

    def test_clamp_at_zero(self):
        schedule, _ = schedule_of([[0.0] * 400 + [-1.0]], scale_t=0.1)
        assert schedule.norm_token_cbmi[0, 400] == pytest.approx(-20.0, abs=1e-9)
        assert schedule.token_weights[0, 400] == 0.0
        assert schedule.final_weights[0, 400] == 0.0


class TestSentenceCbmi:
    def test_mean(self):
        schedule, _ = schedule_of([[-1.0, 0.0, 4.0]])
        assert schedule.sent_cbmi[0] == pytest.approx(1.0, abs=1e-12)

    def test_singleton(self):
        schedule, _ = schedule_of([[3.7]])
        assert schedule.sent_cbmi[0] == pytest.approx(3.7, abs=1e-12)

    def test_definitional_identity(self, rng):
        values = rng.normal(size=9)
        schedule, _ = schedule_of([values, values[:4]])
        assert schedule.sent_cbmi[0] == pytest.approx(values.sum() / 9, abs=1e-9)
        assert schedule.sent_cbmi[1] == pytest.approx(values[:4].sum() / 4, abs=1e-9)


class TestInterSentenceNormalization:
    def test_single_sentence_batch(self):
        schedule, _ = schedule_of([[3.0]])
        np.testing.assert_allclose(normalized_sentence_cbmi(schedule, 0.3), [0.0], atol=1e-12)

    def test_hand_values(self):
        schedule, _ = schedule_of([[1.0], [3.0, 3.0]])
        np.testing.assert_allclose(normalized_sentence_cbmi(schedule, 0.3), [-1.0, 1.0], atol=1e-12)

    def test_constant_batch(self):
        schedule, _ = schedule_of([[2.0], [2.0, 2.0], [2.0]])
        np.testing.assert_allclose(normalized_sentence_cbmi(schedule, 0.3), 0.0, atol=1e-12)


class TestSentenceWeight:
    def test_center(self):
        schedule, _ = schedule_of([[0.4, 1.2]], scale_s=0.3)
        assert schedule.sentence_weights[0] == 1.0

    def test_linear(self):
        schedule, _ = schedule_of([[1.0], [3.0]], scale_s=0.3)
        assert schedule.sentence_weights[1] == pytest.approx(1.3, abs=1e-12)

    def test_clamp(self):
        # one low sentence among 16 equal ones lies 4 std below their mean
        schedule, _ = schedule_of([[0.0]] * 16 + [[-1.0]], scale_s=0.3)
        assert schedule.sentence_weights[16] == 0.0
        assert (schedule.final_weights[16] == 0.0).all()


def _random_batch(rng, n_sent=6, n_pos=10):
    p_nmt = rng.uniform(0.01, 0.99, size=(n_sent, n_pos))
    p_lm = rng.uniform(0.01, 0.99, size=(n_sent, n_pos))
    lengths = rng.integers(2, n_pos + 1, size=n_sent)
    mask = np.arange(n_pos)[None, :] < lengths[:, None]
    return p_nmt, p_lm, mask


class TestFinalWeights:
    def test_product(self):
        # token weight 1.2 (2 std above its sentence) times sentence weight
        # 0.9 (1 std below the batch at scale_s 0.1)
        schedule, _ = schedule_of([[0.0, 0.0, 0.0, 0.0, 1.0], [3.0]], scale_t=0.1, scale_s=0.1)
        assert schedule.token_weights[0, 4] == pytest.approx(1.2, abs=1e-12)
        assert schedule.sentence_weights[0] == pytest.approx(0.9, abs=1e-12)
        assert schedule.final_weights[0, 4] == pytest.approx(1.08, abs=1e-12)

    def test_zero_scales_collapse_to_exactly_one(self, rng):
        p_nmt, p_lm, mask = _random_batch(rng)
        cfg = CbmiConfig(scale_t=0.0, scale_s=0.0)
        records = cbmi_records_for_batch(p_nmt, p_lm, mask, cfg)
        for i, rec in enumerate(records):
            assert (rec.final_weights[mask[i]] == 1.0).all()

    def test_token_only_and_sentence_only_ablations(self, rng):
        p_nmt, p_lm, mask = _random_batch(rng)
        both = cbmi_records_for_batch(p_nmt, p_lm, mask, CbmiConfig())
        tok_only = cbmi_records_for_batch(
            p_nmt, p_lm, mask, CbmiConfig(use_sentence=False)
        )
        sent_only = cbmi_records_for_batch(p_nmt, p_lm, mask, CbmiConfig(use_token=False))
        for i, rec in enumerate(sent_only):
            live = mask[i]
            np.testing.assert_allclose(rec.final_weights[live], rec.sentence_weight)
        for i, rec in enumerate(tok_only):
            np.testing.assert_allclose(
                rec.final_weights[mask[i]], rec.token_weights[mask[i]]
            )
        for i, rec in enumerate(both):
            np.testing.assert_allclose(
                rec.final_weights[mask[i]],
                rec.token_weights[mask[i]] * rec.sentence_weight,
                atol=1e-12,
            )


class TestScheduleInvariants:
    def test_sentence_cbmi_is_mean_of_token_cbmi(self, rng):
        p_nmt, p_lm, mask = _random_batch(rng, n_sent=20)
        records = cbmi_records_for_batch(p_nmt, p_lm, mask, CbmiConfig())
        for i, rec in enumerate(records):
            assert rec.sent_cbmi == pytest.approx(
                rec.token_cbmi[mask[i]].mean(), abs=1e-9
            )

    def test_normalized_stats(self, rng):
        for _ in range(20):
            values = rng.normal(scale=rng.uniform(0.5, 3.0), size=rng.integers(2, 30))
            if values.std() <= 1e-6:
                continue
            schedule, _ = schedule_of([values])
            norm = schedule.norm_token_cbmi[0]
            assert abs(norm.mean()) < 1e-5
            assert abs(norm.std() - 1.0) < 1e-4
            # each value as the CBMI of its own sentence; at scale_s 0.1 no
            # weight clamps, since no value among at most 29 lies more than
            # sqrt(28) std from their mean
            schedule, _ = schedule_of([[v] for v in values], scale_s=0.1)
            norm2 = normalized_sentence_cbmi(schedule, 0.1)
            assert abs(norm2.mean()) < 1e-5
            assert abs(norm2.std() - 1.0) < 1e-4

    def test_mean_one_weight_property(self, rng):
        # within a sentence where nothing clamps, token weights average to 1
        p_nmt, p_lm, mask = _random_batch(rng, n_sent=30)
        records = cbmi_records_for_batch(p_nmt, p_lm, mask, CbmiConfig(scale_t=0.1))
        for i, rec in enumerate(records):
            live = rec.token_weights[mask[i]]
            if (live > 0).all():
                assert live.mean() == pytest.approx(1.0, abs=1e-5)

    def test_non_negativity(self, rng):
        p_nmt, p_lm, mask = _random_batch(rng)
        records = cbmi_records_for_batch(
            p_nmt, p_lm, mask, CbmiConfig(scale_t=5.0, scale_s=5.0)
        )
        for rec in records:
            assert (rec.final_weights >= 0).all()
            assert (rec.token_weights >= 0).all()
            assert rec.sentence_weight >= 0

    def test_context_sensitivity_vs_context_free_bmi(self):
        # same token type, different probability pairs -> different CBMI;
        # a corpus-statistic table can only give them one shared value
        mask = np.ones((1, 2), dtype=bool)
        schedule = cbmi_schedule(np.array([[0.6, 0.2]]), np.array([[0.2, 0.6]]), mask, CbmiConfig())
        a, b = schedule.token_cbmi[0]
        assert a != b
        assert W.bmi_weight(1.5, 0.15, 0.8) == W.bmi_weight(1.5, 0.15, 0.8)


class TestBaselineFormulas:
    def test_freq_exponential(self):
        assert W.freq_exponential_weight(0, 1.0, 1.75) == pytest.approx(2.0, abs=1e-12)
        assert W.freq_exponential_weight(10_000, 1.0, 1.75) == pytest.approx(1.0, abs=1e-12)
        assert W.freq_exponential_weight(1, 1.0, 1.75) == pytest.approx(1.1738, abs=1e-4)

    def test_freq_chi_square(self):
        assert W.freq_chi_square_weight(0, 1.0, 2.5) == pytest.approx(1.0, abs=1e-12)
        assert W.freq_chi_square_weight(10_000, 1.0, 2.5) == pytest.approx(1.0, abs=1e-12)
        assert W.freq_chi_square_weight(1, 1.0, 2.5) == pytest.approx(1.0821, abs=1e-4)

    def test_bmi_weight(self):
        assert W.bmi_weight(0.0, 0.15, 0.8) == pytest.approx(0.8, abs=1e-12)
        assert W.bmi_weight(2.0, 0.15, 0.8) == pytest.approx(1.1, abs=1e-12)
        assert W.bmi_weight(123.0, 0.0, 0.8) == pytest.approx(0.8, abs=1e-12)

    def test_focal_and_anti_focal(self):
        assert W.focal_loss(1.0, 0.1, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert W.anti_focal_loss(1.0, 0.1, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert W.focal_loss(0.5, 0.1, 1.0) == pytest.approx(0.6585, abs=1e-4)
        assert W.anti_focal_loss(0.5, 0.1, 1.0) == pytest.approx(0.7278, abs=1e-4)

    def test_focal_weight_factor_matches_loss(self, rng):
        p = rng.uniform(0.05, 0.95, size=20)
        np.testing.assert_allclose(
            W.focal_weight(p, 0.1, 1.0) * (-np.log(p)), W.focal_loss(p, 0.1, 1.0), atol=1e-12
        )
        np.testing.assert_allclose(
            W.anti_focal_weight(p, 0.1, 1.0) * (-np.log(p)),
            W.anti_focal_loss(p, 0.1, 1.0),
            atol=1e-12,
        )


def lm_prior_kl(nmt: Tensor, lm: np.ndarray, **kwargs) -> Tensor:
    """``lm_prior_loss``'s term alone, read through the loss head that the
    trainer runs: every cross-entropy weight is 0."""
    rows = nmt.shape[0]
    prior = W.lm_prior_loss(nmt, lm, **kwargs)
    return T.weighted_cross_entropy(nmt, np.zeros(rows, dtype=int), np.zeros(rows), prior=prior)


class TestLmPrior:
    def test_identical_distributions_zero(self):
        log_probs = np.log(np.array([[0.4, 0.6], [0.25, 0.75]]))
        kl = lm_prior_kl(Tensor(log_probs), log_probs, lam=0.1, tau=1.0)
        assert kl.item() == pytest.approx(0.0, abs=1e-12)

    def test_lambda_zero_switches_off(self, rng):
        nmt = Tensor(rng.normal(size=(3, 5)))
        lm = rng.normal(size=(3, 5))
        assert lm_prior_kl(nmt, lm, lam=0.0, tau=2.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_kl(self):
        nmt = Tensor(np.log(np.array([[0.5, 0.5]])))
        lm = np.log(np.array([[0.75, 0.25]]))
        kl = lm_prior_kl(nmt, lm, lam=0.1, tau=1.0)
        expected = 0.1 * (0.75 * math.log(1.5) + 0.25 * math.log(0.5))
        assert kl.item() == pytest.approx(expected, abs=1e-6)
        assert kl.item() == pytest.approx(0.01308, abs=1e-5)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError, match="tau"):
            W.lm_prior_loss(Tensor(np.zeros((1, 2))), np.zeros((1, 2)), 0.1, 0.0)

    @pytest.mark.parametrize("tau", [1.0, 0.7, 2.0])
    def test_teacher_rows_keep_the_out_of_place_bits(self, rng, tau):
        # the teacher is softened in a copy: the bits of the plain formula,
        # and the language model's own array is left as it was
        lm = rng.normal(size=(6, 9))
        before = lm.copy()
        scaled = lm / tau
        exp = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
        _, q, _, _ = W.lm_prior_loss(Tensor(lm.copy()), lm, 0.5, tau)
        np.testing.assert_array_equal(q, exp / exp.sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(lm, before)

    @pytest.mark.parametrize("tau, teacher_only", [(1.0, False), (2.0, True)])
    def test_unsoftened_student_gradient(self, rng, tau, teacher_only):
        # the student's normalized rows are its term as they are, with no
        # second log_softmax: the loss head's gradient through them is checked
        lm = rng.normal(size=(3, 6))
        fd_check(lambda x: lm_prior_kl(T.log_softmax(x), lm, lam=0.5, tau=tau,
                                       soften_teacher_only=teacher_only),
                 [rng.normal(size=(3, 6))], rng, samples_per_tensor=18)

    def test_gradient_flows_to_student_only(self, rng):
        logits = rng.normal(size=(2, 4))
        x = Tensor(logits, requires_grad=True)
        lm = rng.normal(size=(2, 4))
        with T.Tape() as tape:
            tape.backward(lm_prior_kl(x, lm, lam=0.5, tau=2.0))
        assert x.grad is not None and np.abs(x.grad).sum() > 0


class TestPriorSelection:
    def test_partition_examples(self):
        assert select_prior(-5.0, 0.0, 8.0) is Prior.LM
        assert select_prior(4.0, 0.0, 8.0) is Prior.TM
        assert select_prior(10.0, 0.0, 8.0) is Prior.CBMI

    def test_boundaries_half_open(self):
        assert select_prior(0.0, 0.0, 8.0) is Prior.LM
        assert select_prior(8.0, 0.0, 8.0) is Prior.TM

    def test_partitions_real_line(self, rng):
        for value in rng.uniform(-50, 50, size=200):
            assert select_prior(float(value), 0.0, 8.0) in (Prior.LM, Prior.TM, Prior.CBMI)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError, match="th1"):
            select_prior(1.0, 8.0, 0.0)

    def test_cbmi_prior_distribution(self, rng):
        row = rng.normal(size=12)
        uniform = W.cbmi_prior_distribution(row, row)
        np.testing.assert_allclose(uniform, 1.0 / 12, atol=1e-12)
        nmt, lm = rng.normal(size=12), rng.normal(size=12)
        dist = W.cbmi_prior_distribution(nmt, lm)
        assert dist.sum() == pytest.approx(1.0, abs=1e-6)
        shifted = W.cbmi_prior_distribution(nmt + 3.3, lm)
        np.testing.assert_allclose(dist, shifted, atol=1e-12)

    def test_selected_prior_rows(self, rng):
        nmt = np.log(np.full((3, 4), 0.25))
        lm = rng.normal(size=(3, 4))
        lm = lm - np.log(np.exp(lm).sum(-1, keepdims=True))
        cbmi_rows = np.array([-3.0, 4.0, 11.0])
        q = W.selected_prior_rows(nmt, lm, cbmi_rows, 0.0, 8.0)
        np.testing.assert_allclose(q[0], np.exp(lm[0]), atol=1e-12)
        np.testing.assert_allclose(q[1], 0.25, atol=1e-12)
        np.testing.assert_allclose(q[2], W.cbmi_prior_distribution(nmt[2], lm[2]), atol=1e-12)
        # a mixed fp32 batch matches the per-row select_prior loop bit for bit
        nmt = rng.normal(size=(40, 7)).astype(np.float32)
        lm = rng.normal(size=(40, 7)).astype(np.float32)
        cbmi_rows = rng.normal(scale=3.0, size=40)
        q = W.selected_prior_rows(nmt, lm, cbmi_rows, -1.0, 1.0)
        for j, value in enumerate(cbmi_rows):
            which = select_prior(float(value), -1.0, 1.0)
            if which is Prior.CBMI:
                expected = W.cbmi_prior_distribution(nmt[j], lm[j])
            else:
                rows = lm if which is Prior.LM else nmt
                expected = W._softened_probs(rows.astype(np.float64), 1.0)[j]
            np.testing.assert_array_equal(q[j], expected)


class TestWeightScheme:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            WeightScheme(kind="bogus")

    def test_lm_requirements(self):
        assert WeightScheme("cbmi").needs_lm
        assert WeightScheme("lm_prior").needs_lm
        assert WeightScheme("prior_select").needs_lm
        assert not WeightScheme("none").needs_lm
        assert not WeightScheme("freq_exp").needs_lm

    def test_baseline_defaults(self):
        cfg = BaselineConfig()
        assert (cfg.freq_a, cfg.freq_t) == (1.0, 1.75)
        assert (cfg.bmi_s, cfg.bmi_b) == (0.15, 0.8)
        assert (cfg.alpha, cfg.gamma) == (0.1, 1.0)
        assert (cfg.lam, cfg.tau) == (0.1, 2.0)
        assert (cfg.th1, cfg.th2) == (0.0, 8.0)

    def test_cbmi_defaults(self):
        cfg = CbmiConfig()
        assert (cfg.scale_t, cfg.scale_s) == (0.1, 0.3)


def test_weight_dump_lines(rng):
    p_nmt, p_lm, mask = _random_batch(rng, n_sent=2, n_pos=4)
    schedule = W.cbmi_schedule(p_nmt, p_lm, mask, CbmiConfig())
    ids = rng.integers(4, 9, size=(2, 4))
    lines = W.weight_dump_lines(7, schedule, mask, ids)
    assert len(lines) == int(mask.sum())
    first = lines[0].split("\t")
    assert first[0] == "7" and len(first) == 8
