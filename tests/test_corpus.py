import math
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from cbmi_nmt import corpus as C
from cbmi_nmt.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    BmiTable,
    CorpusError,
    FrequencyTable,
    SentencePair,
    Vocabulary,
    bmi_value,
    build_cooccurrence,
    make_batches,
)
from conftest import scalar_bmi_values


class TestVocabulary:
    def test_ordering_count_desc_then_lexicographic(self):
        vocab = Vocabulary.build(["a", "a", "b"], min_count=1)
        assert vocab.encode(["a"]) == [4]
        assert vocab.encode(["b"]) == [5]

    def test_min_count_threshold_maps_to_unk(self):
        vocab = Vocabulary.build(["a", "a", "b"], min_count=2)
        assert vocab.encode(["b"]) == [UNK_ID]
        assert vocab.encode(["a"]) == [4]

    def test_deterministic_files_byte_for_byte(self, tmp_path):
        tokens = ["c", "a", "b", "b", "a", "c", "c", "d"]
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        Vocabulary.build(tokens, 1).save(p1)
        Vocabulary.build(tokens, 1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_corpus_raises(self):
        with pytest.raises(CorpusError, match="empty"):
            Vocabulary.build([], 1)

    def test_bijection_roundtrip(self):
        vocab = Vocabulary.build(["x", "y", "z", "z"], 1)
        for i in range(len(vocab)):
            assert vocab.encode([vocab.token(i)]) == [i]

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary.build(["a", "a", "b", "c"], min_count=2)
        path = tmp_path / "v.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.counts == vocab.counts
        assert loaded.encode(["a", "b"]) == vocab.encode(["a", "b"])

    def test_reserved_ids_fixed(self):
        vocab = Vocabulary.build(["a"], 1)
        assert vocab.decode([PAD_ID, BOS_ID, EOS_ID, UNK_ID]) == [
            "<pad>",
            "<s>",
            "</s>",
            "<unk>",
        ]

    def test_shared_vocabulary(self):
        src, tgt = C.build_vocabularies(["a", "b"], ["b", "c"], share=True)
        assert src is tgt
        assert src.encode(["a", "b", "c"]) != [UNK_ID] * 3


def reference_vocabulary(sentences, min_count):
    """The vocabulary by a per-sentence counting loop, as (tokens, counts):
    the reference ``Vocabulary.build`` is checked against."""
    counter = Counter()
    for tokens in sentences:
        counter.update(tokens)
    kept = sorted((tok for tok, c in counter.items() if c >= min_count),
                  key=lambda tok: (-counter[tok], tok))
    unk_mass = sum(c for c in counter.values() if c < min_count)
    return list(RESERVED_TOKENS) + kept, [0, 0, 0, unk_mass] + [counter[tok] for tok in kept]


def flat(sentences):
    return list(chain.from_iterable(sentences))


def zipf_sentences(seed, n, words, length, prefix):
    """``n`` sentences of Zipf-like words ``<prefix><i>``, ``i < words``,
    of lengths drawn from the half-open range ``length``: many rare words
    share a count, and sentences repeat words."""
    rng = np.random.default_rng(seed)
    return [[f"{prefix}{w}" for w in rng.zipf(1.3, rng.integers(*length)) % words]
            for _ in range(n)]


class TestVocabularyAgainstReference:
    SRC = zipf_sentences(31, 300, 400, (1, 31), "s")
    TGT = zipf_sentences(32, 300, 150, (1, 16), "t")

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("min_count", [1, 2, 3])
    def test_tokens_counts_and_ids(self, tmp_path, min_count, share):
        src_vocab, tgt_vocab = C.build_vocabularies(flat(self.SRC), flat(self.TGT), min_count, share)
        sides = [(src_vocab, self.SRC + self.TGT if share else self.SRC, self.SRC),
                 (tgt_vocab, self.SRC + self.TGT if share else self.TGT, self.TGT)]
        for vocab, counted, encoded in sides:
            tokens, counts = reference_vocabulary(counted, min_count)
            assert [vocab.token(i) for i in range(len(vocab))] == tokens
            assert vocab.counts == counts
            ids = {tok: i for i, tok in enumerate(tokens)}
            assert [vocab.encode(s) for s in encoded] == [
                [ids.get(tok, UNK_ID) for tok in s] for s in encoded]
        for side, sentences in (("src", self.SRC), ("tgt", self.TGT)):
            (tmp_path / f"c.{side}").write_text("".join(" ".join(s) + "\n" for s in sentences))
        pairs = C.load_parallel_corpus(tmp_path / "c.src", tmp_path / "c.tgt", src_vocab, tgt_vocab)
        assert [(p.src, p.tgt) for p in pairs] == [
            (src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in zip(self.SRC, self.TGT)]
        if min_count > 1:  # ties among the rare words, and a mass of <unk>
            assert counts[UNK_ID] > 0 and len(set(counts[4:])) < len(counts) - 4

    def test_literal_unk_is_unk(self):
        vocab = Vocabulary.build(["a", "<unk>", "b", "b", "<unk>", "c"], min_count=2)
        assert [vocab.token(i) for i in range(len(vocab))] == [*RESERVED_TOKENS, "b"]
        assert vocab.counts == [0, 0, 0, 4, 2]
        assert vocab.encode(["<unk>", "a", "b"]) == [UNK_ID, UNK_ID, 4]


def test_tokenize_detokenize_roundtrip():
    line = "the quick brown fox"
    assert C.detokenize(C.tokenize(line)) == line


class TestFrequencyTable:
    def test_streaming_equals_brute_recount(self, rng):
        vocab_size = 9
        pairs = [
            SentencePair(
                list(rng.integers(4, vocab_size, size=rng.integers(1, 8))),
                list(rng.integers(4, vocab_size, size=rng.integers(1, 8))),
            )
            for _ in range(50)
        ]
        table = FrequencyTable.from_pairs(pairs, "tgt", vocab_size)
        brute = Counter()
        for p in pairs:
            brute.update(p.tgt)
        for tok in range(vocab_size):
            assert table.count(tok) == brute.get(tok, 0)
        assert table.total == sum(brute.values())

    def test_negative_counts_rejected(self):
        with pytest.raises(CorpusError):
            FrequencyTable(np.array([1, -2]))

    @pytest.mark.parametrize("bad_id", [9, -1])
    def test_out_of_range_id_rejected(self, bad_id):
        pairs = [SentencePair([4, 5], [6]), SentencePair([4], [bad_id, 5])]
        assert FrequencyTable.from_pairs(pairs, "src", 9).total == 3
        with pytest.raises(CorpusError, match="tgt token id out of range for a vocabulary of 9"):
            FrequencyTable.from_pairs(pairs, "tgt", 9)


def brute_force_bmi(pairs, src_ids, tgt_id):
    """Independent oracle: dumb counting loops over the corpus, applying the
    documented conventions (relative frequencies smoothed by add-one on count
    and total; joint = per-pair presence; positions summed)."""
    num_pairs = len(pairs)
    src_tokens = [t for p in pairs for t in p.src]
    tgt_tokens = [t for p in pairs for t in p.tgt]
    value = 0.0
    for s in src_ids:
        cooc = sum(1 for p in pairs if s in p.src and tgt_id in p.tgt)
        f_joint = (cooc + 1) / (num_pairs + 1)
        f_s = (src_tokens.count(s) + 1) / (len(src_tokens) + 1)
        f_t = (tgt_tokens.count(tgt_id) + 1) / (len(tgt_tokens) + 1)
        value += math.log(f_joint / (f_s * f_t))
    return value


def _bmi_table(pairs, src_freq, tgt_freq, vocab_size):
    """``BmiTable.build`` of the flat ids of ``pairs``."""
    return BmiTable.build(C.side_ids(pairs, "src", len(src_freq.counts)),
                          C.side_ids(pairs, "tgt", vocab_size), src_freq, tgt_freq, vocab_size)


def _stats(pairs, vocab_size):
    src_freq = FrequencyTable.from_pairs(pairs, "src", vocab_size)
    tgt_freq = FrequencyTable.from_pairs(pairs, "tgt", vocab_size)
    return src_freq, tgt_freq, build_cooccurrence(pairs)


def _random_pairs(seed, n_pairs, src_ids, tgt_ids, src_len, tgt_len):
    """Pairs of ids drawn uniformly from ``src_ids``/``tgt_ids``, with
    lengths drawn from the half-open ranges ``src_len``/``tgt_len``."""
    rng = np.random.default_rng(seed)

    def side(ids, length):
        ids = np.asarray(ids)
        return list(map(int, ids[rng.integers(0, len(ids), size=rng.integers(*length))]))

    return [SentencePair(side(src_ids, src_len), side(tgt_ids, tgt_len)) for _ in range(n_pairs)]


def _zipf_pairs(seed, n_pairs, src_words, tgt_words, src_len, tgt_len, min_count):
    """Encoded pairs of ``zipf_sentences``, through vocabularies built at
    ``min_count``, and the two vocabulary sizes."""
    src = zipf_sentences(seed, n_pairs, src_words, src_len, "s")
    tgt = zipf_sentences(seed + 1, n_pairs, tgt_words, tgt_len, "t")
    src_vocab, tgt_vocab = C.build_vocabularies(flat(src), flat(tgt), min_count)
    pairs = [SentencePair(src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in zip(src, tgt)]
    return pairs, len(src_vocab), len(tgt_vocab)


# name -> (pairs, source vocabulary size, target vocabulary size)
BMI_CORPORA = {
    "random": lambda: (_random_pairs(12345, 60, range(4, 10), range(4, 10), (1, 6), (1, 6)),
                       10, 10),
    # two or three types a side, so most sentences repeat tokens on both sides
    "repeated_tokens": lambda: (_random_pairs(1, 40, [4, 5], [4, 5, 6], (1, 12), (1, 12)), 6, 7),
    # <unk> on both sides, as min_count folds rare words into it
    "unk_ids": lambda: (_random_pairs(2, 40, [UNK_ID] * 4 + list(range(4, 9)),
                                      [UNK_ID] * 4 + list(range(4, 8)), (1, 8), (1, 8)), 9, 8),
    "one_pair": lambda: ([SentencePair([4, 5, 4, 6], [5, 5, 4])], 7, 6),
    # sources of 1 to 90 tokens, so about half the cells of the padded
    # source matrix are pad
    "uneven_lengths": lambda: (
        _random_pairs(3, 25, range(4, 30), range(4, 9), (1, 91), (1, 4)) + [SentencePair([4], [5])],
        30, 9),
    # on an AVX-512 host np.log is one ulp off math.log for a ratio of this
    # corpus, and that moves one table value by an ulp
    "log_ulp": lambda: (_random_pairs(436, 30, range(4, 16), range(4, 16), (1, 10), (1, 10)),
                        16, 16),
    # a source vocabulary larger than the target one the keys are encoded in
    "wide_source": lambda: (_random_pairs(4, 30, range(4, 60), range(4, 7), (1, 9), (1, 5)),
                            60, 7),
    # the stats benchmark's shape at a tenth of its size: Zipf-like words,
    # a source vocabulary wider than the target one, sources of up to 30
    # tokens that repeat words, and rare words folded into <unk>
    "benchmark_shape": lambda: _zipf_pairs(5, 300, 500, 200, (1, 31), (1, 16), 2),
}
# the brute-force oracle is quadratic in the corpus, too slow beyond these
BRUTE_FORCE_CORPORA = sorted(set(BMI_CORPORA) - {"benchmark_shape"})


def test_benchmark_shape_corpus_has_its_features():
    pairs, src_size, vocab_size = BMI_CORPORA["benchmark_shape"]()
    assert src_size > vocab_size > 100
    assert max(len(p.src) for p in pairs) >= 25
    assert sum(len(set(p.src)) < len(p.src) for p in pairs) > len(pairs) // 2
    assert any(UNK_ID in p.src for p in pairs) and any(UNK_ID in p.tgt for p in pairs)


class TestBmi:
    def test_toy_two_pair_corpus_matches_oracle(self):
        pairs = [SentencePair([4], [5]), SentencePair([4], [6])]
        src_freq, tgt_freq, cooc = _stats(pairs, 7)
        got = bmi_value([4], 5, src_freq, tgt_freq, cooc, len(pairs))
        assert got == pytest.approx(brute_force_bmi(pairs, [4], 5), abs=1e-12)

    def test_degenerate_sole_token_corpus_is_zero(self):
        pairs = [SentencePair([4], [5])]
        src_freq, tgt_freq, cooc = _stats(pairs, 6)
        assert bmi_value([4], 5, src_freq, tgt_freq, cooc, 1) == pytest.approx(0.0, abs=1e-12)

    def test_repeated_source_positions_contribute_repeatedly(self):
        pairs = [SentencePair([4, 4], [5]), SentencePair([6], [7])]
        src_freq, tgt_freq, cooc = _stats(pairs, 8)
        single = bmi_value([4], 5, src_freq, tgt_freq, cooc, 2)
        double = bmi_value([4, 4], 5, src_freq, tgt_freq, cooc, 2)
        assert double == pytest.approx(2 * single, rel=1e-12)

    @pytest.mark.parametrize("corpus", sorted(BMI_CORPORA))
    def test_table_is_the_scalar_reference(self, corpus):
        pairs, src_size, vocab_size = BMI_CORPORA[corpus]()
        src_freq = FrequencyTable.from_pairs(pairs, "src", src_size)
        tgt_freq = FrequencyTable.from_pairs(pairs, "tgt", vocab_size)
        table = _bmi_table(pairs, src_freq, tgt_freq, vocab_size)
        # bit for bit the scalar loop, not within a tolerance
        assert np.array_equal(table.values, scalar_bmi_values(pairs, src_freq, tgt_freq, vocab_size))

    @pytest.mark.parametrize("corpus", BRUTE_FORCE_CORPORA)
    def test_table_matches_bruteforce(self, corpus):
        pairs, src_size, vocab_size = BMI_CORPORA[corpus]()
        src_freq = FrequencyTable.from_pairs(pairs, "src", src_size)
        tgt_freq = FrequencyTable.from_pairs(pairs, "tgt", vocab_size)
        table = _bmi_table(pairs, src_freq, tgt_freq, vocab_size)
        for tok in range(vocab_size):
            containing = [p for p in pairs if tok in p.tgt]
            if not containing:
                assert table.value(tok) == 0.0
                continue
            expected = np.mean([brute_force_bmi(pairs, p.src, tok) for p in containing])
            assert table.value(tok) == pytest.approx(expected, abs=1e-9)

    def test_pair_with_an_empty_side_is_refused(self):
        pairs = [SentencePair([4, 5], [6]), SentencePair([7], [6, 8])]
        pairs[1].src = []
        src_freq, tgt_freq, _ = _stats(pairs, 9)
        with pytest.raises(CorpusError, match="at least one token per side"):
            _bmi_table(pairs, src_freq, tgt_freq, 9)

    def test_identical_token_in_two_sentences_same_table_value(self):
        pairs = [SentencePair([4, 5], [6]), SentencePair([7], [6, 8])]
        src_freq, tgt_freq, cooc = _stats(pairs, 9)
        table = _bmi_table(pairs, src_freq, tgt_freq, 9)
        # one table entry regardless of which sentence the token appears in
        assert table.value(6) == table.value(6)
        per_pair = [
            bmi_value(pairs[0].src, 6, src_freq, tgt_freq, cooc, 2),
            bmi_value(pairs[1].src, 6, src_freq, tgt_freq, cooc, 2),
        ]
        assert table.value(6) == pytest.approx(np.mean(per_pair), abs=1e-12)

    def test_save_load_roundtrip(self, tmp_path, rng):
        values = rng.normal(size=6)
        table = BmiTable(values)
        path = tmp_path / "bmi.txt"
        table.save(path)
        loaded = BmiTable.load(path)
        np.testing.assert_array_equal(loaded.values, values)
        assert loaded.header.startswith("#")


@pytest.mark.parametrize("size", [0, 1, 2, 1000])
@pytest.mark.parametrize("bound", [50, 1 << 62], ids=["packed", "too_wide_to_pack"])
def test_sort_tracked(size, bound):
    codes = np.random.default_rng(size).integers(0, 50, size)
    got, origin = C._sort_tracked(codes.copy(), bound)
    assert np.array_equal(got, np.sort(codes))
    assert np.array_equal(codes[origin], got)
    assert sorted(origin.tolist()) == list(range(size))


class TestBatches:
    def _pairs(self, lengths):
        return [SentencePair(list(range(4, 4 + n)), list(range(4, 4 + n))) for n in lengths]

    def test_packing_arithmetic(self):
        batches = make_batches(self._pairs([2, 2, 2]), token_budget=4, seed=0)
        assert len(batches) == 2
        assert sorted(b.n_sentences for b in batches) == [1, 2]

    def test_same_seed_identical_sequence(self):
        pairs = self._pairs([3, 1, 4, 2, 2, 5, 1])
        a = make_batches(pairs, 8, seed=9)
        b = make_batches(pairs, 8, seed=9)
        assert [x.indices for x in a] == [y.indices for y in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.src, y.src)

    def test_union_is_input_multiset(self, rng):
        pairs = [
            SentencePair(
                list(map(int, rng.integers(4, 9, size=rng.integers(1, 6)))),
                list(map(int, rng.integers(4, 9, size=rng.integers(1, 6)))),
            )
            for _ in range(33)
        ]
        batches = make_batches(pairs, 16, seed=3)
        seen = sorted(i for b in batches for i in b.indices)
        assert seen == list(range(33))
        for batch in batches:
            for row, idx in enumerate(batch.indices):
                src = [t for t in batch.src[row] if t != PAD_ID]
                assert src[:-1] == pairs[idx].src and src[-1] == EOS_ID
                out = [t for t in batch.tgt_out[row] if t != PAD_ID]
                assert out[:-1] == pairs[idx].tgt and out[-1] == EOS_ID

    def test_batch_is_collated_on_first_read_and_kept(self, monkeypatch):
        pairs = self._pairs([3, 1, 4, 2, 2, 5, 1])
        collated = []
        real_collate = C.collate
        monkeypatch.setattr(C, "collate",
                            lambda ps, indices: collated.append(indices) or real_collate(ps, indices))
        batches = make_batches(pairs, 8, seed=9)
        assert len(batches) > 2 and not collated
        last = batches[-1]
        assert batches[-1] is last and collated == [last.indices]
        assert [b.indices for b in batches] == [b.indices for b in batches]
        assert len(collated) == len(batches)

    def test_budget_respected(self, rng):
        pairs = self._pairs(list(rng.integers(1, 7, size=40)))
        for batch in make_batches(pairs, 12, seed=1):
            raw_max = max(pairs[i].length for i in batch.indices)
            assert batch.n_sentences * raw_max <= 12

    def test_oversize_pair_names_pair(self):
        with pytest.raises(CorpusError, match="pair at line 2 has length 9"):
            make_batches(self._pairs([2, 9, 2]), token_budget=4, seed=0)

    def test_masks_mark_non_pad(self):
        batches = make_batches(self._pairs([1, 3]), 100, seed=0)
        batch = batches[0]
        np.testing.assert_array_equal(batch.src_mask, batch.src != PAD_ID)
        np.testing.assert_array_equal(batch.tgt_mask, batch.tgt_out != PAD_ID)
        assert batch.n_tokens == (1 + 1) + (3 + 1)  # tokens plus </s> each

    def test_teacher_forced_shift(self):
        batch = make_batches([SentencePair([5, 6], [7, 8])], 10, seed=0)[0]
        assert batch.tgt_in[0].tolist()[:3] == [BOS_ID, 7, 8]
        assert batch.tgt_out[0].tolist()[:3] == [7, 8, EOS_ID]


class TestCorpusLoading:
    def test_load_and_mismatch_errors(self, tmp_path):
        (tmp_path / "s.txt").write_text("a b\nc\n")
        (tmp_path / "t.txt").write_text("x y\n")
        vocab = Vocabulary.build(["a", "b", "c", "x", "y"], 1)
        with pytest.raises(CorpusError, match="mismatch"):
            C.load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt", vocab, vocab)

    def test_empty_line_names_line(self, tmp_path):
        (tmp_path / "s.txt").write_text("a\n\n")
        (tmp_path / "t.txt").write_text("x\ny\n")
        vocab = Vocabulary.build(["a", "x", "y"], 1)
        with pytest.raises(CorpusError, match="line 2"):
            C.load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt", vocab, vocab)

    def test_max_len_enforced(self, tmp_path):
        (tmp_path / "s.txt").write_text("a a a a\n")
        (tmp_path / "t.txt").write_text("x\n")
        vocab = Vocabulary.build(["a", "x"], 1)
        with pytest.raises(CorpusError, match="max length"):
            C.load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt", vocab, vocab, max_len=3)


class TestLines:
    def test_a_line_ends_only_at_newline(self, tmp_path):
        inside = "a\fb\vc\x1cd\x1de\x1ef\x85g\u2028h\u2029i\rj"
        path = tmp_path / "x.txt"
        path.write_bytes(f"one\n{inside}\nlast".encode())
        assert C.read_lines(path) == ["one", inside, "last"]

    @pytest.mark.parametrize("text, lines", [
        ("", []), ("\n", [""]), ("a\n\n", ["a", ""]), ("a b\r\nc\r\n", ["a b", "c"]),
        ("a\r\n\r\nb", ["a", "", "b"]),
    ])
    def test_newline_and_crlf_files(self, tmp_path, text, lines):
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        assert C.read_lines(path) == lines

    @pytest.mark.parametrize("separator", ["\f", "\u2028"])
    def test_parallel_files_of_two_lines_are_two_pairs(self, tmp_path, separator):
        (tmp_path / "x.src").write_text(f"a b{separator}c d\ne f\n", encoding="utf-8")
        (tmp_path / "x.tgt").write_text(f"x{separator}y\nz\n", encoding="utf-8")
        src, tgt = C.read_parallel_tokens(tmp_path / "x.src", tmp_path / "x.tgt")
        assert C.split_lines(*src) == [["a", "b", "c", "d"], ["e", "f"]]
        assert C.split_lines(*tgt) == [["x", "y"], ["z"]]


def reference_parallel_tokens(src_path, tgt_path, max_len=0):
    """The per-line reader the flat one replaced: ``str.split`` of each line,
    every pair checked in line order, then each side's reserved tokens."""
    src_lines, tgt_lines = C.read_aligned_lines(src_path, tgt_path)
    src, tgt = [line.split() for line in src_lines], [line.split() for line in tgt_lines]
    for i, (s_toks, t_toks) in enumerate(zip(src, tgt), start=1):
        if not s_toks or not t_toks:
            raise CorpusError(f"empty sentence at line {i} of {tgt_path if s_toks else src_path}")
        if max_len and (len(s_toks) > max_len or len(t_toks) > max_len):
            longer = src_path if len(s_toks) > max_len else tgt_path
            raise CorpusError(f"sentence at line {i} of {longer} exceeds max length {max_len}")
    for path, sentences in ((src_path, src), (tgt_path, tgt)):
        for i, tokens in enumerate(sentences, start=1):
            found = next((tok for tok in tokens if tok in RESERVED_TOKENS[:UNK_ID]), None)
            if found is not None:
                raise CorpusError(f"reserved token {found!r} at line {i} of {path}")
    return src, tgt


# every code point str.split splits at that a line may hold, and some it does not
SPACES = [" ", "  ", "\t", "\u00a0", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
          "\u2028", "\u2029", "\f", "\v", "\r", "\u200b", "\ufeff"]
WORDS = ["a", "bb", "é", "中文", "😀", "<unk>", "a<s>", "x\u200by"]


def messy_text(rng, n_lines, extra_words=(), blank=0.2):
    """``n_lines`` lines of words between runs of spaces, leading and trailing
    blanks included, ending at ``\\n`` or ``\\r\\n``, the last one maybe
    without an end; a line is blank with probability ``blank``."""
    words, gaps = WORDS + list(extra_words), ["", *SPACES, "".join(SPACES)]
    lines = []
    for _ in range(n_lines):
        line = str(rng.choice(gaps))
        for _ in range(0 if rng.random() < blank else int(rng.integers(1, 7))):
            line += rng.choice(words) + rng.choice(SPACES) + rng.choice(gaps)
        lines.append(line + rng.choice(["\n", "\r\n"]))
    text = "".join(lines)
    return text[: -1 - text.endswith("\r\n")] if rng.random() < 0.3 else text


class TestFlatReader:
    def test_messy_whitespace_and_crlf(self, tmp_path):
        text = ("\ta  b\u00a0c\r\n  lead and trail  \n"
                "x\u3000y\x1cz\x1d\x1e\x1fw\x85v\u2028u\r\n\f\vlast")
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        tokens, lengths = C.read_tokens(path)
        lines = C.read_lines(path)
        assert tokens == list(chain(*map(str.split, lines)))
        assert lengths.tolist() == [3, 3, 6, 1]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_files_equal_the_per_line_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_lines = int(rng.integers(0, 12))
        path = tmp_path / "x.txt"
        path.write_bytes(messy_text(rng, n_lines).encode())
        tokens, lengths = C.read_tokens(path)
        lines = C.read_lines(path)
        assert tokens == list(chain(*map(str.split, lines)))
        assert lengths.tolist() == [len(line.split()) for line in lines]
        assert C.split_lines(tokens, lengths) == [line.split() for line in lines]

    @pytest.mark.parametrize("seed", range(60))
    def test_checks_name_the_reference_line_and_message(self, tmp_path, seed):
        rng = np.random.default_rng([seed, 1])
        n_lines = int(rng.integers(1, 8))
        # several bad lines a file: empty ones, reserved tokens and long ones
        reserved = ["<pad>", "<s>", "</s>"] if rng.random() < 0.5 else []
        src, tgt = tmp_path / "x.src", tmp_path / "x.tgt"
        src.write_bytes(messy_text(rng, n_lines, reserved, blank=0.04).encode())
        tgt.write_bytes(messy_text(rng, n_lines + (rng.random() < 0.1), reserved, blank=0.04).encode())
        max_len = int(rng.choice([0, 5, 6]))
        try:
            expected = reference_parallel_tokens(src, tgt, max_len)
        except CorpusError as exc:
            with pytest.raises(CorpusError) as info:
                C.read_parallel_tokens(src, tgt, max_len)
            assert str(info.value) == str(exc)
            return
        got = C.read_parallel_tokens(src, tgt, max_len)
        assert [C.split_lines(*side) for side in got] == list(expected)

    @pytest.mark.parametrize("src_text, tgt_text, message", [
        ("a <s>\n\nb\nc c c c\n", "x\ny\n\nz\n", "empty sentence at line 2 of {src}"),
        ("a\nb b b b\n\n", "x\ny\n\n", "sentence at line 2 of {src} exceeds max length 3"),
        ("a\nb\nc </s>\nd <pad>\n", "x <s>\ny\nz\nw\n", "reserved token '</s>' at line 3 of {src}"),
        ("a\nb\nc\n", "x\ny y y y\n \t\n", "sentence at line 2 of {tgt} exceeds max length 3"),
        ("a\nb\nc\n", "x\n<s> y\n</s>\n", "reserved token '<s>' at line 2 of {tgt}"),
    ])
    def test_several_bad_lines_name_the_first(self, tmp_path, src_text, tgt_text, message):
        src, tgt = tmp_path / "x.src", tmp_path / "x.tgt"
        src.write_text(src_text, encoding="utf-8")
        tgt.write_text(tgt_text, encoding="utf-8")
        message = message.format(src=src, tgt=tgt)
        for reader in (reference_parallel_tokens, C.read_parallel_tokens):
            with pytest.raises(CorpusError) as info:
                reader(src, tgt, 3)
            assert str(info.value) == message

    def test_not_utf8_names_the_file(self, tmp_path):
        (tmp_path / "x.src").write_text("a\n", encoding="utf-8")
        (tmp_path / "x.tgt").write_bytes(b"\xff\n")
        with pytest.raises(CorpusError, match=f"{tmp_path / 'x.tgt'} is not UTF-8 text"):
            C.read_parallel_tokens(tmp_path / "x.src", tmp_path / "x.tgt")


class TestReservedTokens:
    @pytest.mark.parametrize("token", ["<pad>", "<s>", "</s>"])
    def test_reserved_token_names_file_and_line(self, tmp_path, token):
        (tmp_path / "s.txt").write_text("a b\nc <x>\nd\n")
        (tmp_path / "t.txt").write_text(f"x\ny\nz {token} w\n")
        with pytest.raises(CorpusError) as info:
            C.read_parallel_tokens(tmp_path / "s.txt", tmp_path / "t.txt")
        assert str(info.value) == f"reserved token {token!r} at line 3 of {tmp_path / 't.txt'}"

    def test_reserved_name_inside_a_token_is_text(self, tmp_path):
        (tmp_path / "s.txt").write_text("a<s>b <pad>x\n")
        (tmp_path / "t.txt").write_text("<unk> y</s>\n")
        src, tgt = C.read_parallel_tokens(tmp_path / "s.txt", tmp_path / "t.txt")
        assert C.split_lines(*src) == [["a<s>b", "<pad>x"]]
        assert C.split_lines(*tgt) == [["<unk>", "y</s>"]]

    def test_earlier_checks_come_first(self, tmp_path):
        (tmp_path / "s.txt").write_text("<pad>\n\n")
        (tmp_path / "t.txt").write_text("x\ny\n")
        with pytest.raises(CorpusError, match="empty sentence at line 2"):
            C.read_parallel_tokens(tmp_path / "s.txt", tmp_path / "t.txt")
