import math

import numpy as np
import pytest

from cbmi_nmt import tensor as T
from cbmi_nmt import weighting as W
from cbmi_nmt.tensor import Tensor
from cbmi_nmt.weighting import (
    BaselineConfig,
    CbmiConfig,
    Prior,
    TokenProbPair,
    WeightScheme,
    cbmi_records_for_batch,
    normalize_inter_sentence,
    normalize_intra_sentence,
    select_prior,
    sentence_cbmi,
    sentence_weight,
    token_cbmi,
    token_weight,
)


class TestTokenCbmi:
    def test_equal_probabilities_give_zero(self):
        assert token_cbmi(TokenProbPair(0.3, 0.3)) == pytest.approx(0.0, abs=1e-15)

    def test_source_helps(self):
        assert token_cbmi(TokenProbPair(0.5, 0.25)) == pytest.approx(math.log(2), abs=1e-12)

    def test_source_hurts(self):
        assert token_cbmi(TokenProbPair(0.1, 0.5)) == pytest.approx(math.log(0.2), abs=1e-12)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            TokenProbPair(0.0, 0.5)
        with pytest.raises(ValueError):
            W.token_cbmi_values(np.array([0.5]), np.array([0.0]))


class TestIntraSentenceNormalization:
    def test_constant_sentence_floored(self):
        norm, stats = normalize_intra_sentence(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_allclose(norm, 0.0, atol=1e-12)
        assert stats.std == 1e-6

    def test_hand_mean_std(self):
        norm, _ = normalize_intra_sentence(np.array([0.0, 2.0, 4.0]))
        np.testing.assert_allclose(norm, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_single_token_sentence(self):
        norm, _ = normalize_intra_sentence(np.array([5.0]))
        np.testing.assert_allclose(norm, [0.0], atol=1e-12)

    def test_pads_excluded_and_zeroed(self):
        values = np.array([0.0, 2.0, 4.0, 99.0])
        mask = np.array([True, True, True, False])
        norm, stats = normalize_intra_sentence(values, mask)
        np.testing.assert_allclose(norm[:3], [-1.2247, 0.0, 1.2247], atol=1e-4)
        assert norm[3] == 0.0
        assert stats.mean == pytest.approx(2.0)

    def test_population_std_used(self, rng):
        values = rng.normal(size=12)
        norm, stats = normalize_intra_sentence(values)
        assert stats.std == pytest.approx(values.std(), abs=1e-12)  # not ddof=1
        assert abs(norm.mean()) < 1e-10
        assert abs(norm.std() - 1.0) < 1e-10


class TestTokenWeight:
    def test_centered_value_gives_one(self):
        assert token_weight(0.0, 0.7) == 1.0

    def test_linear_form(self):
        assert token_weight(2.0, 0.1) == pytest.approx(1.2, abs=1e-12)

    def test_clamp_at_zero(self):
        assert token_weight(-20.0, 0.1) == 0.0


class TestSentenceCbmi:
    def test_mean(self):
        assert sentence_cbmi(np.array([-1.0, 0.0, 4.0])) == pytest.approx(1.0, abs=1e-12)

    def test_singleton(self):
        assert sentence_cbmi(np.array([3.7])) == pytest.approx(3.7, abs=1e-12)

    def test_definitional_identity(self, rng):
        values = rng.normal(size=9)
        assert sentence_cbmi(values) == pytest.approx(values.sum() / 9, abs=1e-9)


class TestInterSentenceNormalization:
    def test_single_sentence_batch(self):
        norm, _ = normalize_inter_sentence(np.array([3.0]))
        np.testing.assert_allclose(norm, [0.0], atol=1e-12)

    def test_hand_values(self):
        norm, _ = normalize_inter_sentence(np.array([1.0, 3.0]))
        np.testing.assert_allclose(norm, [-1.0, 1.0], atol=1e-12)

    def test_constant_batch(self):
        norm, _ = normalize_inter_sentence(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_allclose(norm, 0.0, atol=1e-12)


class TestSentenceWeight:
    def test_center(self):
        assert sentence_weight(0.0, 0.3) == 1.0

    def test_linear(self):
        assert sentence_weight(1.0, 0.3) == pytest.approx(1.3, abs=1e-12)

    def test_clamp(self):
        assert sentence_weight(-4.0, 0.3) == 0.0


def _random_batch(rng, n_sent=6, n_pos=10):
    p_nmt = rng.uniform(0.01, 0.99, size=(n_sent, n_pos))
    p_lm = rng.uniform(0.01, 0.99, size=(n_sent, n_pos))
    lengths = rng.integers(2, n_pos + 1, size=n_sent)
    mask = np.arange(n_pos)[None, :] < lengths[:, None]
    return p_nmt, p_lm, mask


class TestFinalWeights:
    def test_product(self):
        cfg = CbmiConfig()
        out = W.final_weights(np.array([1.2]), 0.9, cfg)
        np.testing.assert_allclose(out, [1.08], atol=1e-12)

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
            norm, _ = normalize_intra_sentence(values)
            assert abs(norm.mean()) < 1e-5
            assert abs(norm.std() - 1.0) < 1e-4
            norm2, _ = normalize_inter_sentence(values)
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
        a = token_cbmi(TokenProbPair(0.6, 0.2))
        b = token_cbmi(TokenProbPair(0.2, 0.6))
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


class TestLmPrior:
    def test_identical_distributions_zero(self):
        log_probs = np.log(np.array([[0.4, 0.6], [0.25, 0.75]]))
        addend = W.lm_prior_loss(Tensor(log_probs), log_probs, lam=0.1, tau=1.0)
        assert addend.item() == pytest.approx(0.0, abs=1e-12)

    def test_lambda_zero_switches_off(self, rng):
        nmt = Tensor(rng.normal(size=(3, 5)))
        lm = rng.normal(size=(3, 5))
        assert W.lm_prior_loss(nmt, lm, lam=0.0, tau=2.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_kl(self):
        nmt = Tensor(np.log(np.array([[0.5, 0.5]])))
        lm = np.log(np.array([[0.75, 0.25]]))
        addend = W.lm_prior_loss(nmt, lm, lam=0.1, tau=1.0)
        expected = 0.1 * (0.75 * math.log(1.5) + 0.25 * math.log(0.5))
        assert addend.item() == pytest.approx(expected, abs=1e-6)
        assert addend.item() == pytest.approx(0.01308, abs=1e-5)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError, match="tau"):
            W.lm_prior_loss(Tensor(np.zeros((1, 2))), np.zeros((1, 2)), 0.1, 0.0)

    def test_gradient_flows_to_student_only(self, rng):
        logits = rng.normal(size=(2, 4))
        x = Tensor(logits, requires_grad=True)
        lm = rng.normal(size=(2, 4))
        with T.Tape() as tape:
            addend = W.lm_prior_loss(x, lm, lam=0.5, tau=2.0)
            tape.backward(addend)
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
    records = cbmi_records_for_batch(p_nmt, p_lm, mask, CbmiConfig())
    ids = rng.integers(4, 9, size=(2, 4))
    lines = W.weight_dump_lines(7, records, mask, ids)
    assert len(lines) == int(mask.sum())
    first = lines[0].split("\t")
    assert first[0] == "7" and len(first) == 8
