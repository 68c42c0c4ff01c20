import itertools
import math

import numpy as np
import pytest

from cbmi_nmt import decoding as D
from cbmi_nmt import weighting as W
from cbmi_nmt.corpus import BOS_ID, EOS_ID, PAD_ID, SentencePair, collate
from cbmi_nmt.decoding import BeamConfig, beam_search, bleu
from cbmi_nmt.models import DecoderState, ModelConfig, init_params, lm_forward, nmt_forward

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
        # beam_search (one cached step for the beam and the greedy row) makes
        # the choice that beam_search_core and greedy_core make over the
        # full-recompute step, and so never scores below greedy
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=16, enc_layers=1,
                          dec_layers=2, lm_layers=1, heads=2)
        for dtype, seed in itertools.product((np.float32, np.float64), range(3)):
            params = init_params(cfg, seed=seed, dtype=dtype, with_lm=False)
            for src in ([4, 5, 6, 7], [8], [3, 3, 5, 8, 6, 4]):
                step = D._nmt_step_fn(params, src + [EOS_ID])
                for width in (1, 2, 4):
                    config = BeamConfig(beam_size=width)
                    max_len = config.max_len(len(src) + 1)
                    greedy, greedy_score = D.greedy_core(step, config, max_len)
                    beam, beam_score = D.beam_search_core(step, config, max_len)
                    choice = greedy if greedy_score > beam_score else beam
                    best = beam_search(params, src, config)
                    assert best == choice, (dtype, seed, src, width)
                    assert _rescore(step, best, max_len, config) >= (
                        _rescore(step, greedy, max_len, config) - 1e-9
                    )

    @pytest.mark.parametrize("beam_size", [1, 4])
    def test_never_decodes_pad_or_bos(self, beam_size):
        # this model's greedy rollout prefers <pad> and <s> when they are allowed
        params = init_params(ModelConfig(20, 20), 6, dtype=np.float64, with_lm=False)
        src = [12, 11, 8, 19]
        hyp = beam_search(params, src, BeamConfig(beam_size=beam_size))
        assert PAD_ID not in hyp and BOS_ID not in hyp
        rows = D._nmt_step_fn(params, src + [EOS_ID])([[BOS_ID, 12], [BOS_ID, 9]])
        assert np.all(rows[:, [PAD_ID, BOS_ID]] == -np.inf)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_cached_rows_match_full_recompute(self, dtype, tol):
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=24, enc_layers=2,
                          dec_layers=2, lm_layers=1, heads=2)
        params = init_params(cfg, seed=3, dtype=dtype, with_lm=False)
        src = [4, 5, 6, 7, EOS_ID]
        reference = D._nmt_step_fn(params, src)
        cached = D._cached_group_step_fn(params, [src])
        # (tokens, parents) per call; the rows hold these prefixes:
        calls = [
            ([1], [0]),  # [1]
            ([5, 3], [0, 0]),  # [1, 5], [1, 3]
            # reordered: the first row continues the second row of the last call
            ([4, 6, 8], [1, 0, 0]),  # [1, 3, 4], [1, 5, 6], [1, 5, 8]
            ([8, 7, 5, 3], [2, 0, 0, 1]),  # [1, 5, 8, 8], [1, 3, 4, 7], [1, 3, 4, 5], [1, 5, 6, 3]
            ([4], [3]),  # [1, 5, 6, 3, 4]
        ]
        prefixes = [[]]
        for tokens, parents in calls:
            prefixes = [prefixes[p] + [tok] for tok, p in zip(tokens, parents)]
            np.testing.assert_allclose(cached(tokens, parents), reference(prefixes),
                                       rtol=0, atol=tol)
        assert prefixes == [[1, 5, 6, 3, 4]]

    def test_empty_source_rejected(self, decode_params):
        with pytest.raises(ValueError, match="empty"):
            beam_search(decode_params, [], BeamConfig())


def _recording_group_steps(record):
    """A stand-in for ``D._cached_group_step_fn`` that keeps every row it
    returns under (source, prefix), the prefix rebuilt from the parents."""
    real = D._cached_group_step_fn

    def make(params, sources):
        step = real(params, sources)
        # before the first call, the rows are the sentences
        held = [(s, ()) for s in range(len(sources))]

        def recorded(tokens, parents):
            nonlocal held
            rows = step(tokens, parents)
            held = [(held[p][0], held[p][1] + (tok,)) for tok, p in zip(tokens, parents)]
            for (s, prefix), row in zip(held, rows):
                record.setdefault((tuple(sources[s]), prefix), []).append(row)
            return rows

        return recorded

    return make


def _scalar_extend(alive, rows, row_of, width, alpha, eos, finished):
    """One step of one beam, one candidate at a time: the oracle for the
    vectorized ``D._extend``."""
    candidates = []
    for i, (tokens, score, _) in enumerate(alive):
        row = rows[row_of[i]]
        top = np.argsort(-row, kind="stable")[: 2 * width]
        for tok in top:
            candidates.append((score + float(row[tok]), i, int(tok)))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    next_alive = []
    for score, i, tok in candidates:
        if len(next_alive) >= width:
            break
        tokens = alive[i][0] + [tok]
        if tok == eos:
            finished.append((tokens[1:-1], score / D.length_penalty(len(tokens) - 1, alpha)))
        else:
            # the continuation carries the row that scored its prefix
            next_alive.append((tokens, score, row_of[i]))
    return next_alive if len(finished) < width else []


def _array_extend(alive, rows, row_of, widths, alpha, eos, finished):
    """``D._extend`` over the beams' hypothesis lists, its taken candidates
    turned back into the lists ``_scalar_extend`` returns, one per beam."""
    beam = np.repeat(np.arange(len(alive)), [len(hyps) for hyps in alive])
    score = np.array([score for hyps in alive for _, score, _ in hyps])
    row = np.array([r for rows_b in row_of for r in rows_b], dtype=np.int64)
    prefixes = [tokens for hyps in alive for tokens, _, _ in hyps]
    entry, token, value = D._extend(beam, score, row, rows, np.asarray(widths), eos)
    grown = [[] for _ in alive]
    for h, tok, value in zip(entry.tolist(), token.tolist(), value.tolist()):
        tokens = prefixes[h] + [tok]
        if tok == eos:
            finished[beam[h]].append((tokens[1:-1],
                                      value / D.length_penalty(len(tokens) - 1, alpha)))
        else:
            grown[beam[h]].append((tokens, value, int(row[h])))
    return [hyps if len(done) < w else [] for hyps, done, w in zip(grown, finished, widths)]


def test_extend_matches_scalar_reference():
    # log-probabilities drawn from a few values, so equal scores are common
    # and the (score, prefix, token) order decides between them; most rows
    # are longer than 16, where an unstable argsort would reorder equal values
    rng = np.random.default_rng(0)
    levels = np.log([0.05, 0.1, 0.2, 0.25])
    for trial in range(200):
        vocab = int(rng.integers(3, 40))
        widths = [int(w) for w in rng.integers(1, 6, size=rng.integers(1, 6))]
        alive = [[([BOS_ID, *rng.integers(3, 9, size=2).tolist()], float(rng.choice(levels)), -1)
                  for _ in range(rng.integers(0, w + 1))] for w in widths]
        n_rows = sum(len(beam) for beam in alive)
        if n_rows == 0:
            continue
        rows = rng.choice(levels, size=(n_rows, vocab))
        rows[:, rng.integers(0, vocab)] = -np.inf
        finished = [[] for _ in widths]
        row_of, start = [], 0
        for beam in alive:
            row_of.append(list(range(start, start + len(beam))))
            start += len(beam)
        got = _array_extend(alive, rows, row_of, widths, 0.6, EOS_ID, finished)
        for b, width in enumerate(widths):
            expected_finished = []
            expected = _scalar_extend(alive[b], rows, row_of[b], width, 0.6, EOS_ID,
                                      expected_finished)
            assert got[b] == expected, (trial, b)
            assert finished[b] == expected_finished, (trial, b)


def _scalar_search(row_of_prefix, widths, alpha, max_lens):
    """``D._search`` one sentence at a time, each width searched on its own
    with ``_scalar_extend``; the rows of a step are the distinct prefixes of
    the sentence's searches still going, counted as ``D.DecodeStats`` counts
    them."""
    stats = D.DecodeStats()
    results = []
    for s, (sentence_widths, max_len) in enumerate(zip(widths, max_lens)):
        alive = [[([BOS_ID], 0.0, None)] for _ in sentence_widths]
        finished = [[] for _ in sentence_widths]
        for _ in range(max_len):
            going = [k for k, hyps in enumerate(alive) if hyps]
            if not going:
                break
            prefixes = list(dict.fromkeys(tuple(tokens) for k in going
                                          for tokens, _, _ in alive[k]))
            rows = np.stack([row_of_prefix(s, prefix) for prefix in prefixes])
            stats.steps += 1
            stats.rows += len(prefixes)
            for k in going:
                row_of = [prefixes.index(tuple(tokens)) for tokens, _, _ in alive[k]]
                alive[k] = _scalar_extend(alive[k], rows, row_of, sentence_widths[k], alpha,
                                          EOS_ID, finished[k])
        stats.force_finished += len(alive[0])
        results.append([
            min(done + [(tokens[1:], score / D.length_penalty(len(tokens) - 1, alpha))
                        for tokens, score, _ in hyps], key=lambda f: (-f[1], f[0]))
            for hyps, done in zip(alive, finished)
        ])
    return results, stats


def test_search_matches_scalar_search():
    # rows drawn from a few log-probabilities, so scores often tie, and looked
    # up by (sentence, prefix); the sentences have different length limits
    levels = np.log([0.05, 0.1, 0.2, 0.25])

    def row_of_prefix(s, prefix):
        row = np.random.default_rng([s, *prefix]).choice(levels, size=7)
        row[[PAD_ID, BOS_ID]] = -np.inf
        return row

    forced = ended = 0
    for seed, width in itertools.product(range(8), (1, 2, 4)):
        max_lens = np.random.default_rng(seed).integers(1, 7, size=6).tolist()
        widths = [(width, 1)] * len(max_lens)
        held = [(s, ()) for s in range(len(max_lens))]

        def step(tokens, parents):
            nonlocal held
            held = [(held[p][0], held[p][1] + (tok,)) for tok, p in zip(tokens, parents)]
            return np.stack([row_of_prefix(s, prefix) for s, prefix in held])

        stats = D.DecodeStats()
        results = D._search(step, widths, 0.6, max_lens, BOS_ID, EOS_ID, stats)
        expected, expected_stats = _scalar_search(row_of_prefix, widths, 0.6, max_lens)
        assert results == expected, (seed, width)
        assert stats == expected_stats, (seed, width)
        forced += stats.force_finished
        ended += sum(len(tokens) < max_len
                     for result, max_len in zip(results, max_lens) for tokens, _ in result)
    # the cases hold hypotheses cut at the limit and hypotheses that ended
    assert forced > 0 and ended > 0


def test_search_work_counts():
    # two sentences over the hand model, each searched at beam 2 and greedy;
    # sentence 0 stops at its limit of 2 steps, sentence 1 finishes in 3
    table = _hand_model()
    fed = []
    held = [(0, ()), (1, ())]

    def step(tokens, parents):
        nonlocal held
        held = [(held[p][0], held[p][1] + (tok,)) for tok, p in zip(tokens, parents)]
        fed.append(held)
        return np.stack([table[prefix] for _, prefix in held])

    stats = D.DecodeStats()
    results = D._search(step, [(2, 1), (2, 1)], 0.6, [2, 4], BOS_ID, EOS_ID, stats)
    # the beam and the greedy rollout share [<s>], [<s>, w3] and [<s>, w3, w3]:
    # each distinct (sentence, prefix) is one row of its step
    assert [len(rows) for rows in fed] == [2, 4, 2]
    assert all(len(set(rows)) == len(rows) for rows in fed)
    assert {s for s, _ in fed[2]} == {1}
    # steps count sentence 0 in two steps and sentence 1 in three; sentence 0's
    # beam of 2 is force-finished, its greedy rollout is not counted
    assert (stats.steps, stats.rows, stats.force_finished) == (5, 8, 2)
    config = BeamConfig(beam_size=2, length_penalty=0.6)
    for s, max_len in enumerate((2, 4)):
        assert results[s] == [D.beam_search_core(_table_step_fn(table), config, max_len),
                              D.greedy_core(_table_step_fn(table), config, max_len)]


class TestGroupedDecoding:
    # lengths 3, 1, 3, 4, 3, 3, 1, 4, 3: sorted by length (a stable sort) and
    # cut into groups of at most 2, they decode as these groups; (8, 3) holds
    # lengths 3 and 4, so its sentences have different length limits
    SOURCES = [[4, 5, 6], [8], [3, 3, 5], [7, 4, 4, 8], [5, 6, 7], [6, 8, 3], [4], [8, 8, 4, 3],
               [3, 7, 6]]
    GROUPS = [(1, 6), (0, 2), (4, 5), (8, 3), (7,)]

    def test_groups_are_length_sorted_chunks(self, monkeypatch, decode_params):
        monkeypatch.setattr(D, "MAX_GROUP_SIZE", 2)
        groups = []
        real = D._beam_search_group

        def recorded(params, sources, config, stats):
            groups.append(tuple(self.SOURCES.index(src) for src in sources))
            return real(params, sources, config, stats)

        monkeypatch.setattr(D, "_beam_search_group", recorded)
        D.beam_search_many(decode_params, self.SOURCES, BeamConfig(beam_size=2))
        assert groups == self.GROUPS

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_group_decodes_as_each_sentence_alone(self, monkeypatch, dtype, tol):
        monkeypatch.setattr(D, "MAX_GROUP_SIZE", 2)
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=16, enc_layers=1,
                          dec_layers=2, lm_layers=1, heads=2)
        forced = uneven = forced_beside_other_limit = 0
        for seed, width in itertools.product(range(3), (1, 2, 4)):
            params = init_params(cfg, seed=seed, dtype=dtype, with_lm=False)
            config = BeamConfig(beam_size=width)
            alone_rows, group_rows = {}, {}
            monkeypatch.setattr(D, "_cached_group_step_fn", _recording_group_steps(alone_rows))
            alone_stats = [D.DecodeStats() for _ in self.SOURCES]
            alone = [beam_search(params, src, config, st)
                     for src, st in zip(self.SOURCES, alone_stats)]
            monkeypatch.setattr(D, "_cached_group_step_fn", _recording_group_steps(group_rows))
            stats = D.DecodeStats()
            assert D.beam_search_many(params, self.SOURCES, config, stats) == alone, (seed, width)
            # the counts are per sentence, however the sentences were grouped
            for name in ("steps", "rows", "greedy_won", "force_finished"):
                assert getattr(stats, name) == sum(getattr(st, name) for st in alone_stats)
            assert group_rows.keys() == alone_rows.keys()
            for key, rows in group_rows.items():
                for row in rows:
                    np.testing.assert_allclose(row, alone_rows[key][0], rtol=0, atol=tol)
            forced += sum(st.force_finished for st in alone_stats)
            uneven += sum(len({alone_stats[i].steps for i in group}) > 1 for group in self.GROUPS)
            # a sentence cut at its own max_len beside one whose max_len differs
            forced_beside_other_limit += sum(
                alone_stats[i].force_finished > 0
                and len({config.max_len(len(self.SOURCES[j]) + 1) for j in group}) > 1
                for group in self.GROUPS for i in group
            )
        # the cases hold sentences cut at max_len, and groups whose sentences end apart
        assert forced > 0 and uneven > 0 and forced_beside_other_limit > 0
        # and groups that mix source lengths
        assert any(len({len(self.SOURCES[i]) for i in group}) > 1 for group in self.GROUPS)

    def test_decoder_state_rows_follow_their_sentence(self):
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=24, enc_layers=2,
                          dec_layers=2, lm_layers=1, heads=2)
        params = init_params(cfg, seed=3, dtype=np.float64, with_lm=False)
        sources = [[4, 5, 6, EOS_ID], [7, 3, 8, EOS_ID]]
        state = DecoderState(params, sources)

        def full(s, prefix):
            return nmt_forward(params, sources[s], prefix).data[-1]

        # the first rows start sentences 1, 0 and 1
        rows = state.advance([BOS_ID, BOS_ID, BOS_ID], parents=[1, 0, 1])
        for row, s in zip(rows, (1, 0, 1)):
            np.testing.assert_allclose(row, full(s, [BOS_ID]), rtol=0, atol=1e-12)
        # then row 0 continues row 1 (sentence 0) and row 1 continues row 2 (sentence 1)
        rows = state.advance([5, 6], parents=[1, 2])
        np.testing.assert_allclose(rows[0], full(0, [BOS_ID, 5]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows[1], full(1, [BOS_ID, 6]), rtol=0, atol=1e-12)

        # a padded group, sources of lengths 2 and 4: each row follows the
        # unpadded sentence
        sources = [[6, EOS_ID], [7, 3, 8, EOS_ID]]
        state = DecoderState(params, [[6, EOS_ID, PAD_ID, PAD_ID], [7, 3, 8, EOS_ID]])
        rows = state.advance([BOS_ID, BOS_ID, BOS_ID], parents=[0, 1, 0])
        for row, s in zip(rows, (0, 1, 0)):
            np.testing.assert_allclose(row, full(s, [BOS_ID]), rtol=0, atol=1e-12)
        rows = state.advance([4, 5, 8], parents=[0, 1, 2])
        for row, (s, token) in zip(rows, ((0, 4), (1, 5), (0, 8))):
            np.testing.assert_allclose(row, full(s, [BOS_ID, token]), rtol=0, atol=1e-12)
        rows = state.advance([3], parents=[1])
        np.testing.assert_allclose(rows[0], full(1, [BOS_ID, 5, 3]), rtol=0, atol=1e-12)

    def test_empty_source_in_a_group_rejected(self, decode_params):
        with pytest.raises(ValueError, match="empty"):
            D.beam_search_many(decode_params, [[4, 5], []], BeamConfig())


def brute_force_report(hyps, refs):
    """Independent n-gram counting script: one Counter per sentence, side
    and order, and the report's fields from the summed counts."""
    from collections import Counter

    matches, totals = [0] * 4, [0] * 4
    for h, r in zip(hyps, refs):
        h_toks, r_toks = h.split(), r.split()
        for n in range(1, 5):
            h_grams = [tuple(h_toks[i : i + n]) for i in range(len(h_toks) - n + 1)]
            r_grams = [tuple(r_toks[i : i + n]) for i in range(len(r_toks) - n + 1)]
            totals[n - 1] += len(h_grams)
            r_counts = Counter(r_grams)
            for gram, count in Counter(h_grams).items():
                matches[n - 1] += min(count, r_counts[gram])
    hyp_len = sum(len(h.split()) for h in hyps)
    ref_len = sum(len(r.split()) for r in refs)
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matches, totals))
    if not (hyp_len and ref_len):
        bp = 0.0
    else:
        bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    score = 0.0
    if min(precisions) > 0:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)
    return D.BleuReport(score, precisions, bp, hyp_len / ref_len if ref_len else 0.0,
                        hyp_len, ref_len)


def brute_force_bleu(hyps, refs):
    return brute_force_report(hyps, refs).bleu


def _random_corpus(rng):
    """A corpus of up to 12 pairs over a small vocabulary whose words are
    prefixes of one another, with empty and short lines and repeats."""
    words = ["a", "ab", "abc", "b", "ba", "c"][: rng.integers(1, 7)]
    n = int(rng.integers(0, 13))

    def line():
        return " ".join(rng.choice(words, size=rng.integers(0, 9)))

    hyps = [line() for _ in range(n)]
    # half the references are edits of their hypothesis, so long n-grams match
    refs = [
        " ".join(w if rng.random() < 0.8 else str(rng.choice(words)) for w in h.split())
        if rng.random() < 0.5 else line()
        for h in hyps
    ]
    return hyps, refs


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

    @pytest.mark.parametrize("seed", range(200))
    def test_report_equals_bruteforce(self, seed):
        hyps, refs = _random_corpus(np.random.default_rng(seed))
        assert bleu(hyps, refs) == brute_force_report(hyps, refs)

    @pytest.mark.parametrize("hyps, refs", [
        ([], []),
        ([""], [""]),
        (["", "a b"], ["a b", ""]),
        (["a"], ["a"]),
        (["a b c"], ["a b c"]),
        (["a a a a"], ["a a"]),
        (["a a"], ["a a a a"]),
        (["ab a abc", "a ab"], ["a ab abc", "ab a"]),
        (["a b c d e"], ["a b c e d"]),
    ], ids=["empty_corpus", "empty_lines", "one_empty_side", "one_token", "three_tokens",
            "clipped_repeats", "repeats_in_reference", "prefix_tokens", "no_4gram_match"])
    def test_edge_cases_equal_bruteforce(self, hyps, refs):
        assert bleu(hyps, refs) == brute_force_report(hyps, refs)

    def test_vocabulary_past_packed_4gram_codes(self):
        # id1*V^3 + ... + id4 would overflow int64 at this vocabulary
        rng = np.random.default_rng(4)
        hyps, refs = [], []
        next_word = 0
        for _ in range(5000):
            length = int(rng.integers(1, 26))
            words = np.arange(next_word, next_word + length)
            next_word += length
            edited = np.where(rng.random(length) < 0.1, rng.integers(0, next_word, length), words)
            hyps.append(" ".join(f"w{w}" for w in words))
            refs.append(" ".join(f"w{w}" for w in edited))
        distinct = len({w for line in hyps + refs for w in line.split()})
        assert distinct > 60000 and distinct**4 > np.iinfo(np.int64).max
        report = bleu(hyps, refs)
        assert report == brute_force_report(hyps, refs)
        assert min(report.precisions) > 0

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

    def test_records_read_the_schedule(self, rng):
        # several 32-sentence batches, and targets of 8 tokens and more
        cfg = ModelConfig(9, 9, embed_dim=16, ff_dim=16, enc_layers=1,
                          dec_layers=1, lm_layers=1, heads=2)
        params = init_params(cfg, seed=11, dtype=np.float64)
        pairs = [
            SentencePair(
                list(map(int, rng.integers(4, 9, size=rng.integers(1, 11)))),
                list(map(int, rng.integers(4, 9, size=rng.integers(1, 12)))),
            )
            for _ in range(80)
        ]
        assert sum(len(p.tgt) >= 8 for p in pairs) > 10
        analysis = D.analyze_cbmi(params, pairs, bins=4)
        tokens, sentences = [], []
        for start in range(0, len(pairs), 32):
            batch = collate(pairs[start : start + 32])
            mask = batch.tgt_mask
            gold = batch.tgt_out[mask]
            p_nmt = W.gold_token_probs(nmt_forward(params, batch.src, batch.tgt_in, rows=mask).data, gold)
            p_lm = W.gold_token_probs(lm_forward(params, batch.tgt_in, rows=mask).data, gold)
            schedule = W.cbmi_schedule(p_nmt, p_lm, mask, W.CbmiConfig())
            sent, pos = np.nonzero(mask)
            tokens += zip((start + sent).tolist(), pos.tolist(), gold.tolist(),
                          schedule.token_cbmi[mask].tolist())
            sentences += enumerate(schedule.sent_cbmi.tolist(), start)

        def bits(records):
            return np.array([r[-1] for r in records]).tobytes()

        assert [r[:-1] for r in analysis.token_records] == [r[:-1] for r in tokens]
        assert [r[:-1] for r in analysis.sentence_records] == [r[:-1] for r in sentences]
        assert bits(analysis.token_records) == bits(tokens)
        assert bits(analysis.sentence_records) == bits(sentences)

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
