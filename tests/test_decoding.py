import itertools
import math

import numpy as np
import pytest

from cbmi_nmt import decoding as D
from cbmi_nmt import weighting as W
from cbmi_nmt.corpus import BOS_ID, EOS_ID, SentencePair, collate
from cbmi_nmt.decoding import BeamConfig, beam_search, bleu
from cbmi_nmt.models import ModelConfig, init_params, lm_forward, nmt_forward

VOCAB = 6  # pad, bos, eos, w3, w4, w5


def _table_step_fn(table):
    """Next-token log-prob rows looked up by prefix tuple."""

    def step(prefixes):
        return np.stack([table[tuple(p)] for p in prefixes])

    return step


def _row(probs):
    """A log-prob row with the given probabilities and 1e-9 elsewhere."""
    out = np.full(VOCAB, 1e-9)
    for tok, p in probs.items():
        out[tok] = p
    return np.log(out / out.sum())


def _hand_model():
    """Two real decoding steps then a near-certain end-of-sentence. The
    greedy first token (w3) is a trap: w4 opens a much better continuation."""
    table = {
        (BOS_ID,): _row({3: 0.40, 4: 0.35, 5: 0.10}),
        (BOS_ID, 3): _row({3: 0.30, 4: 0.25, 5: 0.25}),
        (BOS_ID, 4): _row({5: 0.90, 3: 0.05}),
        (BOS_ID, 5): _row({3: 0.20, 4: 0.20, 5: 0.20}),
    }
    for a in (3, 4, 5):
        for b in (3, 4, 5):
            table[(BOS_ID, a, b)] = _row({EOS_ID: 0.97})
    return table


def _rescore(step_fn, ids, max_len, config):
    """Penalized score of a returned hypothesis through the step function,
    with </s> scored unless the hypothesis reached ``max_len``."""
    targets = list(ids) + [EOS_ID] if len(ids) < max_len else list(ids)
    logp = sum(
        float(step_fn([[BOS_ID] + targets[:k]])[0][tok]) for k, tok in enumerate(targets)
    )
    return logp / D.length_penalty(len(targets), config.length_penalty)


def _enumerate_best(table, config):
    """Exhaustive oracle over every two-token sequence."""
    best = None
    for a, b in itertools.product((3, 4, 5), repeat=2):
        logp = (
            table[(BOS_ID,)][a]
            + table[(BOS_ID, a)][b]
            + table[(BOS_ID, a, b)][EOS_ID]
        )
        score = logp / D.length_penalty(3, config.length_penalty)
        if best is None or score > best[1]:
            best = ([a, b], score)
    return best


class TestBeamCore:
    def test_beam_two_recovers_enumeration_optimum(self):
        table = _hand_model()
        config = BeamConfig(beam_size=2, length_penalty=0.6)
        tokens, score = D.beam_search_core(_table_step_fn(table), config, max_len=4)
        oracle_tokens, oracle_score = _enumerate_best(table, config)
        assert tokens == oracle_tokens == [4, 5]
        assert score == pytest.approx(oracle_score, abs=1e-12)

    def test_greedy_takes_the_trap(self):
        table = _hand_model()
        config = BeamConfig(beam_size=1)
        tokens, _ = D.greedy_core(_table_step_fn(table), config, max_len=4)
        assert tokens[0] == 3

    def test_beam_never_below_greedy(self):
        table = _hand_model()
        config = BeamConfig(beam_size=3, length_penalty=0.6)
        _, beam_score = D.beam_search_core(_table_step_fn(table), config, max_len=4)
        _, greedy_score = D.greedy_core(_table_step_fn(table), config, max_len=4)
        assert beam_score >= greedy_score

    def test_early_stop_ranks_only_finished_hypotheses(self):
        # beam 2: after step 2, [4] has finished; after step 3, [4, 5] has too,
        # which stops the search. The alive prefix [3, 5, 3] scores far above
        # both, but its </s> is improbable, so it must not be returned.
        table = {
            (BOS_ID,): _row({3: 0.55, 4: 0.40, EOS_ID: 0.05}),
            (BOS_ID, 3): _row({5: 0.90, EOS_ID: 0.05, 3: 0.05}),
            (BOS_ID, 4): _row({EOS_ID: 0.60, 5: 0.30, 3: 0.10}),
            (BOS_ID, 3, 5): _row({3: 0.99}),
            (BOS_ID, 4, 5): _row({EOS_ID: 0.90, 3: 0.05}),
        }
        config = BeamConfig(beam_size=2, length_penalty=0.6)
        tokens, score = D.beam_search_core(_table_step_fn(table), config, max_len=6)
        expected = (table[(BOS_ID,)][4] + table[(BOS_ID, 4)][EOS_ID]) / D.length_penalty(2, 0.6)
        assert tokens == [4]
        assert score == pytest.approx(expected, abs=1e-12)


@pytest.fixture(scope="module")
def decode_params():
    cfg = ModelConfig(
        vocab_size_src=9, vocab_size_tgt=9, embed_dim=16, ff_dim=24,
        enc_layers=1, dec_layers=1, lm_layers=1, heads=2,
    )
    return init_params(cfg, seed=5, dtype=np.float64)


class TestBeamSearchModel:
    def test_beam_one_equals_greedy(self, decode_params):
        src = [4, 5, 6]
        step = D._nmt_step_fn(decode_params, src + [EOS_ID])
        config = BeamConfig(beam_size=1)
        greedy, _ = D.greedy_core(step, config, config.max_len(len(src) + 1))
        assert beam_search(decode_params, src, config) == greedy

    def test_deterministic(self, decode_params):
        config = BeamConfig(beam_size=4)
        a = beam_search(decode_params, [4, 5], config)
        b = beam_search(decode_params, [4, 5], config)
        assert a == b

    def test_beam_scores_at_least_greedy_on_random_models(self):
        for seed in range(3):
            cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=16, enc_layers=1,
                              dec_layers=1, lm_layers=1, heads=2)
            params = init_params(cfg, seed=seed, dtype=np.float64)
            src = [4, 5, 6, 7]
            step = D._nmt_step_fn(params, src + [EOS_ID])
            config = BeamConfig(beam_size=4)
            max_len = config.max_len(len(src) + 1)
            greedy, _ = D.greedy_core(step, config, max_len)
            best = beam_search(params, src, config)
            assert _rescore(step, best, max_len, config) >= (
                _rescore(step, greedy, max_len, config) - 1e-9
            )

    def test_empty_source_rejected(self, decode_params):
        with pytest.raises(ValueError, match="empty"):
            beam_search(decode_params, [], BeamConfig())


def brute_force_bleu(hyps, refs):
    """Independent n-gram counting script."""
    from collections import Counter

    log_precisions = []
    hyp_len = sum(len(h.split()) for h in hyps)
    ref_len = sum(len(r.split()) for r in refs)
    for n in range(1, 5):
        match, total = 0, 0
        for h, r in zip(hyps, refs):
            h_toks, r_toks = h.split(), r.split()
            h_grams = [tuple(h_toks[i : i + n]) for i in range(len(h_toks) - n + 1)]
            r_grams = [tuple(r_toks[i : i + n]) for i in range(len(r_toks) - n + 1)]
            total += len(h_grams)
            r_counts = Counter(r_grams)
            for gram, count in Counter(h_grams).items():
                match += min(count, r_counts[gram])
        if total == 0 or match == 0:
            return 0.0
        log_precisions.append(math.log(match / total))
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(log_precisions) / 4)


class TestBleu:
    def test_identity_is_100(self):
        sents = ["a b c d", "e f g h i"]
        assert bleu(sents, sents).bleu == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_is_0(self):
        assert bleu(["a b c d"], ["e f g h"]).bleu == 0.0

    def test_oracle_fixture_pairs(self):
        hyps = [
            "a b c d e f",
            "the cat sat on the mat",
            "x y z w q r s",
            "one two three four",
            "a a a a b",
        ]
        refs = [
            "a b c d e g",
            "the cat sat on a mat",
            "x y z w q r s",
            "one two three four five",
            "a a b b b",
        ]
        report = bleu(hyps, refs)
        assert report.bleu == pytest.approx(brute_force_bleu(hyps, refs), abs=1e-12)

    def test_single_pair_hand_value(self):
        report = bleu(["a b c d e f"], ["a b c d e g"])
        # precisions 5/6, 4/5, 3/4, 2/3 and equal lengths -> 100 * (1/3)^(1/4)
        assert report.bleu == pytest.approx(100.0 * (1.0 / 3.0) ** 0.25, abs=1e-9)
        assert report.bleu == pytest.approx(brute_force_bleu(["a b c d e f"], ["a b c d e g"]), abs=1e-12)

    def test_permutation_invariance(self):
        hyps = ["a b c", "d e f g", "h i"]
        refs = ["a b d", "d f f g", "h j"]
        base = bleu(hyps, refs).bleu
        perm = bleu(hyps[::-1], refs[::-1]).bleu
        assert base == pytest.approx(perm, abs=1e-12)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="count"):
            bleu(["a"], ["a", "b"])

    def test_report_recomputable_from_fields(self):
        report = bleu(["a b c d e f"], ["a b c d e g"])
        geo = math.exp(sum(math.log(p) for p in report.precisions) / 4)
        assert report.bleu == pytest.approx(100.0 * report.brevity_penalty * geo, abs=1e-9)

    def test_brevity_penalty_applied(self):
        short = bleu(["a b"], ["a b c d"])
        assert short.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2), abs=1e-12)
        assert short.length_ratio == 0.5


class TestAnalysis:
    def _uniform_params(self):
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=16, enc_layers=1,
                          dec_layers=1, lm_layers=1, heads=2)
        params = init_params(cfg, seed=3, dtype=np.float64)
        for name in ("nmt.out.w", "nmt.out.b", "lm.out.w", "lm.out.b"):
            params.tensors[name].data = np.zeros_like(params.tensors[name].data)
        return params

    def test_cardinality_one_sentence(self):
        params = self._uniform_params()
        analysis = D.analyze_cbmi(params, [SentencePair([4, 5, 6], [4, 5])], bins=4)
        # 2 tokens + </s> = 3 token records, 1 sentence record
        assert len(analysis.token_records) == 3
        assert len(analysis.sentence_records) == 1

    def test_histogram_partitions_tokens(self, rng):
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=16, enc_layers=1,
                          dec_layers=1, lm_layers=1, heads=2)
        params = init_params(cfg, seed=11, dtype=np.float64)
        pairs = [
            SentencePair(
                list(map(int, rng.integers(4, 9, size=rng.integers(1, 5)))),
                list(map(int, rng.integers(4, 9, size=rng.integers(1, 5)))),
            )
            for _ in range(12)
        ]
        analysis = D.analyze_cbmi(params, pairs, bins=5)
        total_tokens = sum(len(p.tgt) + 1 for p in pairs)
        assert sum(c for _, _, c in analysis.histogram) == total_tokens
        assert len(analysis.token_records) == total_tokens
        # prior top-1 hits per token, from the rows of the one analysis batch
        batch = collate(pairs)
        nmt = nmt_forward(params, batch.src, batch.tgt_in).data
        lm = lm_forward(params, batch.tgt_in).data
        expected = np.zeros(3)
        for i, j in zip(*np.nonzero(batch.tgt_mask)):
            cbmi = W.cbmi_prior_distribution(nmt[i, j], lm[i, j])
            tops = (lm[i, j].argmax(), nmt[i, j].argmax(), cbmi.argmax())
            expected += [top == batch.tgt_out[i, j] for top in tops]
        found = sum(count * np.array(acc) for _, _, count, *acc in analysis.prior_accuracy)
        np.testing.assert_allclose(found, expected, atol=1e-9)

    def test_uniform_models_give_zero_cbmi(self):
        params = self._uniform_params()
        pairs = [SentencePair([4, 5], [6, 7]), SentencePair([8], [4])]
        analysis = D.analyze_cbmi(params, pairs, bins=3)
        for _, _, _, value in analysis.token_records:
            assert value == pytest.approx(0.0, abs=1e-12)
        for _, value in analysis.sentence_records:
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_equal_length_mean_identity(self):
        params = self._uniform_params()
        pairs = [SentencePair([4, 5], [6, 7]), SentencePair([8, 4], [5, 8])]
        analysis = D.analyze_cbmi(params, pairs, bins=3)
        token_mean = np.mean([r[3] for r in analysis.token_records])
        sent_mean = np.mean([r[1] for r in analysis.sentence_records])
        assert token_mean == pytest.approx(sent_mean, abs=1e-12)

    def test_report_lines_format(self):
        params = self._uniform_params()
        analysis = D.analyze_cbmi(params, [SentencePair([4], [5])], bins=2)
        lines = analysis.lines({"checkpoint_hash": "deadbeef", "bins": "2"})
        assert lines[0] == "# checkpoint_hash=deadbeef"
        kinds = {line.split("\t")[0] for line in lines if "\t" in line}
        assert kinds == {"sent", "token", "hist", "prior_acc"}
