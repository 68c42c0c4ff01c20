"""Corpus ingestion: tokenization, vocabularies, batching, and the corpus
statistics (frequency and BMI tables) consumed by the baseline weighting
schemes.

Tokenization is whitespace word-level at desk scale; anything smarter (a
subword tokenizer) can slot in behind the same ``Vocabulary`` interface.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<s>", "</s>", "<unk>")


class CorpusError(ValueError):
    """Raised for malformed corpus files or inconsistent statistics inputs."""


def tokenize(line: str) -> list[str]:
    return line.split()


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids.

    Ordering is deterministic: reserved tokens first, then corpus tokens by
    descending count with lexicographic tie-break. Tokens below the build
    threshold are dropped and encode to ``<unk>``; their mass is folded into
    the ``<unk>`` count so frequency lookups stay consistent.
    """

    def __init__(self, tokens: list[str], counts: list[int]):
        self._tokens = tokens
        self._counts = counts
        self._ids = {tok: i for i, tok in enumerate(tokens)}
        if len(self._ids) != len(tokens):
            duplicate = next(tok for i, tok in enumerate(tokens) if self._ids[tok] != i)
            raise CorpusError(f"duplicate token {duplicate!r} in vocabulary")

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]], min_count: int = 1) -> "Vocabulary":
        """The vocabulary of tokenized sentences."""
        counter: Counter[str] = Counter()
        n_sentences = 0
        for tokens in sentences:
            n_sentences += 1
            counter.update(tokens)
        if n_sentences == 0:
            raise CorpusError("cannot build a vocabulary from an empty corpus")
        kept = sorted(
            (tok for tok, c in counter.items() if c >= min_count),
            key=lambda tok: (-counter[tok], tok),
        )
        unk_mass = sum(c for tok, c in counter.items() if c < min_count)
        tokens = list(RESERVED_TOKENS) + kept
        counts = [0, 0, 0, unk_mass] + [counter[tok] for tok in kept]
        return cls(tokens, counts)

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def counts(self) -> list[int]:
        return list(self._counts)

    def encode_token(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._ids.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self._tokens[i] for i in ids]

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok, count in zip(self._tokens, self._counts):
                fh.write(f"{tok}\t{count}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens: list[str] = []
        counts: list[int] = []
        for lineno, line in enumerate(read_lines(path), start=1):
            tok, _, count = line.partition("\t")
            try:
                counts.append(int(count))
            except ValueError:
                raise CorpusError(
                    f"vocabulary file {path} line {lineno}: expected <token><tab><count>, "
                    f"got {line.rstrip()!r}"
                ) from None
            tokens.append(tok)
        if tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise CorpusError(f"vocabulary file {path} is missing reserved tokens")
        try:
            return cls(tokens, counts)
        except CorpusError as exc:
            raise CorpusError(f"vocabulary file {path}: {exc}") from None

    def content_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for tok, count in zip(self._tokens, self._counts):
            h.update(f"{tok}\t{count}\n".encode())
        return h.hexdigest()[:16]


def build_vocabularies(
    src_sentences: Sequence[Sequence[str]],
    tgt_sentences: Sequence[Sequence[str]],
    min_count: int = 1,
    share: bool = False,
) -> tuple[Vocabulary, Vocabulary]:
    """Build source/target vocabularies from tokenized sentences; with
    ``share`` both sides use one vocabulary built over the concatenated corpus."""
    if share:
        shared = Vocabulary.build(list(src_sentences) + list(tgt_sentences), min_count)
        return shared, shared
    return Vocabulary.build(src_sentences, min_count), Vocabulary.build(tgt_sentences, min_count)


@dataclass
class SentencePair:
    """Token-id sequences for one aligned sentence pair (no specials)."""

    src: list[int]
    tgt: list[int]

    def __post_init__(self):
        if len(self.src) < 1 or len(self.tgt) < 1:
            raise CorpusError("sentence pairs must have at least one token per side")

    @property
    def length(self) -> int:
        return max(len(self.src), len(self.tgt))


def read_lines(path: str | Path, error: type[Exception] = CorpusError) -> list[str]:
    """The lines of a UTF-8 text file; a file that is not UTF-8 is an
    ``error`` naming it, of the category of what the file holds."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def read_aligned_lines(first: str | Path, second: str | Path) -> tuple[list[str], list[str]]:
    """The lines of two files that align line by line; files of different
    line counts are a ``CorpusError`` naming both."""
    first_lines, second_lines = read_lines(first), read_lines(second)
    if len(first_lines) != len(second_lines):
        raise CorpusError(
            f"line count mismatch: {first} has {len(first_lines)}, {second} has {len(second_lines)}"
        )
    return first_lines, second_lines


def read_parallel_tokens(src_path: str | Path, tgt_path: str | Path, max_len: int = 0):
    """The tokenized lines of two aligned one-sentence-per-line files, as a
    list per side, every pair checked before this returns.

    ``max_len`` > 0 rejects pairs whose raw side exceeds it; empty lines and
    line-count mismatches are errors naming the offending file and line.
    """
    src_lines, tgt_lines = read_aligned_lines(src_path, tgt_path)
    # interned, the tokens of all lines share one string per type
    src_tokens = [list(map(sys.intern, tokenize(line))) for line in src_lines]
    tgt_tokens = [list(map(sys.intern, tokenize(line))) for line in tgt_lines]
    for i, (s_toks, t_toks) in enumerate(zip(src_tokens, tgt_tokens), start=1):
        if not s_toks or not t_toks:
            raise CorpusError(f"empty sentence at line {i} of {tgt_path if s_toks else src_path}")
        if max_len and (len(s_toks) > max_len or len(t_toks) > max_len):
            longer = src_path if len(s_toks) > max_len else tgt_path
            raise CorpusError(f"sentence at line {i} of {longer} exceeds max length {max_len}")
    return src_tokens, tgt_tokens


def encode_pairs(src_tokens, tgt_tokens, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> list[SentencePair]:
    """The pairs of the token lists of ``read_parallel_tokens``, encoded."""
    return [SentencePair(src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in zip(src_tokens, tgt_tokens)]


def load_parallel_corpus(
    src_path: str | Path,
    tgt_path: str | Path,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    max_len: int = 0,
) -> list[SentencePair]:
    """Read two aligned one-sentence-per-line files into encoded pairs,
    checked as ``read_parallel_tokens`` checks them."""
    return encode_pairs(*read_parallel_tokens(src_path, tgt_path, max_len), src_vocab, tgt_vocab)


# ---------------------------------------------------------------------------
# corpus statistics


def _side_ids(
    pairs: Sequence[SentencePair], side: str, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """One side's token ids of every pair, concatenated, and each pair's
    length; an id outside ``[0, vocab_size)`` is an error."""
    seqs = [pair.src if side == "src" else pair.tgt for pair in pairs]
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise CorpusError(f"{side} token id out of range for a vocabulary of {vocab_size}")
    return ids, lengths


def _distinct_per_pair(
    ids: np.ndarray, lengths: np.ndarray, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair index and id of every distinct (pair, id), sorted by pair then id."""
    codes = np.sort(np.repeat(np.arange(len(lengths)), lengths) * vocab_size + ids)
    # not np.unique: without counts or indices it takes a hash-table path
    # that is about 20x slower than this sort on these arrays
    return np.divmod(codes[np.diff(codes, prepend=-1) > 0], vocab_size)


class FrequencyTable:
    """Per-token-id occurrence counts over one side of the training corpus."""

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if (counts < 0).any():
            raise CorpusError("negative count in frequency table")
        self.counts = counts
        self.total = int(counts.sum())

    @classmethod
    def from_pairs(cls, pairs: Sequence[SentencePair], side: str, vocab_size: int) -> "FrequencyTable":
        ids, _ = _side_ids(pairs, side, vocab_size)
        return cls(np.bincount(ids, minlength=vocab_size))

    def count(self, token_id: int) -> int:
        return int(self.counts[token_id])


def build_cooccurrence(pairs: Sequence[SentencePair]) -> dict[tuple[int, int], int]:
    """Sentence-pair co-occurrence counts, binary presence per pair.

    The scalar reference for the counts ``BmiTable.build`` takes from its
    encoded pair keys. Together with ``bmi_value`` it is the oracle the
    table is checked against, bit for bit in ``tests/test_corpus.py`` and
    ``tests/test_cli.py``, to 1e-9 in criterion 05 and in the ``stats``
    benchmark's final check (``perfbench/workloads.py``), which imports both.
    """
    cooc: dict[tuple[int, int], int] = {}
    for pair in pairs:
        for s in set(pair.src):
            for t in set(pair.tgt):
                key = (s, t)
                cooc[key] = cooc.get(key, 0) + 1
    return cooc


def _smoothed_rel_freq(count: int, total: int) -> float:
    # add-one smoothing on both count and total keeps degenerate
    # single-token corpora at relative frequency exactly 1
    return (count + 1) / (total + 1)


def bmi_value(
    src_ids: Sequence[int],
    tgt_id: int,
    src_freq: FrequencyTable,
    tgt_freq: FrequencyTable,
    cooc: dict[tuple[int, int], int],
    num_pairs: int,
) -> float:
    """Corpus-statistic mutual information between a target token and every
    position of one source sentence, in nats.

    Frequencies are smoothed relative frequencies (count+1)/(total+1); the
    joint term is sentence-pair presence count over the number of pairs.
    Repeated source tokens contribute once per position.

    The scalar reference for the per-pair sums of ``BmiTable.build``: the
    table is the mean of this value over the pairs whose target contains the
    token, summed in pair order. See ``build_cooccurrence`` for who checks
    the table against it.
    """
    f_t = _smoothed_rel_freq(tgt_freq.count(tgt_id), tgt_freq.total)
    value = 0.0
    for s in src_ids:
        f_s = _smoothed_rel_freq(src_freq.count(s), src_freq.total)
        f_joint = _smoothed_rel_freq(cooc.get((s, tgt_id), 0), num_pairs)
        value += math.log(f_joint / (f_s * f_t))
    return value


BMI_HEADER = (
    "# bmi table: nats; f(token)=(count+1)/(total+1); "
    "f(x,y)=(pair presence count+1)/(num pairs+1); "
    "per-token value = mean over pairs containing the token"
)


@dataclass
class BmiTable:
    """Per-target-token-id BMI values aggregated over the training corpus.

    The per-pair statistic depends on the source sentence; the table entry
    for a token type is its mean over all pairs whose target contains the
    token, so identical tokens anywhere in the corpus share one value.
    """

    values: np.ndarray
    header: str = BMI_HEADER

    @classmethod
    def build(
        cls,
        pairs: Sequence[SentencePair],
        src_freq: FrequencyTable,
        tgt_freq: FrequencyTable,
        vocab_size: int,
    ) -> "BmiTable":
        """The mean of ``bmi_value`` over the pairs whose target contains each
        type, as array code whose sums are the scalar ones bit for bit."""
        src_size = len(src_freq.counts)
        src, src_len = _side_ids(pairs, "src", src_size)
        tgt, tgt_len = _side_ids(pairs, "tgt", vocab_size)
        # one row per (pair, distinct target type), in pair order
        row_pair, row_t = _distinct_per_pair(tgt, tgt_len, vocab_size)
        src_pair, src_type = _distinct_per_pair(src, src_len, src_size)
        # each row meets every distinct source type of its pair once (meets
        # indexes src_type, row by row), so the counts of the keys
        # s * vocab_size + t are build_cooccurrence's presence counts
        per_pair = np.bincount(src_pair, minlength=len(pairs))
        reps = per_pair[row_pair]
        pair_start = (np.cumsum(per_pair) - per_pair)[row_pair]
        row_start = np.cumsum(reps) - reps
        meets = np.arange(reps.sum()) + np.repeat(pair_start - row_start, reps)
        keys, joint = np.unique(src_type[meets] * vocab_size + np.repeat(row_t, reps),
                                return_counts=True)
        s, t = np.divmod(keys, vocab_size)
        ratio = _smoothed_rel_freq(joint, len(pairs)) / (
            _smoothed_rel_freq(src_freq.counts[s], src_freq.total)
            * _smoothed_rel_freq(tgt_freq.counts[t], tgt_freq.total)
        )
        # math.log as in bmi_value, once per distinct ratio: np.log is one ulp
        # off it for some arguments near 1
        distinct, where = np.unique(ratio, return_inverse=True)
        logs = np.fromiter(map(math.log, distinct.tolist()), dtype=np.float64, count=distinct.size)
        # a pad cell looks up a key above every real one and finds the zero
        terms = np.append(logs[where], 0.0)
        padded = np.full((len(pairs), int(src_len.max(initial=0))), src_size, dtype=np.int64)
        padded[np.arange(padded.shape[1]) < src_len[:, None]] = src
        # one column at a time keeps bmi_value's sequential order of addition
        row_sums = np.zeros(len(row_t))
        for column in padded.T:
            row_sums += terms[np.searchsorted(keys, column[row_pair] * vocab_size + row_t)]
        sums = np.zeros(vocab_size)
        np.add.at(sums, row_t, row_sums)
        hits = np.bincount(row_t, minlength=vocab_size)
        values = np.divide(sums, hits, out=np.zeros_like(sums), where=hits > 0)
        return cls(values)

    def value(self, token_id: int) -> float:
        return float(self.values[token_id])

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.header + "\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i}\t{float(v)!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> "BmiTable":
        header_lines = []
        values = []
        for lineno, line in enumerate(read_lines(path), start=1):
            if line.startswith("#"):
                header_lines.append(line)
                continue
            idx, _, val = line.partition("\t")
            try:
                idx, value = int(idx), float(val)
            except ValueError:
                raise CorpusError(
                    f"bmi table {path} line {lineno}: expected <id><tab><value>, "
                    f"got {line.rstrip()!r}"
                ) from None
            if not math.isfinite(value):
                raise CorpusError(f"bmi table {path} line {lineno}: non-finite value {value}")
            if idx != len(values):
                raise CorpusError(
                    f"bmi table {path} line {lineno}: non-contiguous id {idx}, "
                    f"expected {len(values)}"
                )
            values.append(value)
        return cls(np.asarray(values, dtype=np.float64), "\n".join(header_lines) or BMI_HEADER)


# ---------------------------------------------------------------------------
# batching


@dataclass
class SentencePairBatch:
    """Padded id matrices plus masks; the unit of training.

    ``tgt_in`` is the gold target shifted right behind ``<s>``; ``tgt_out``
    is the gold target with ``</s>`` appended. Masks mark non-pad positions.
    """

    src: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    src_mask: np.ndarray
    tgt_mask: np.ndarray
    indices: list[int] = field(default_factory=list)

    @property
    def n_sentences(self) -> int:
        return self.src.shape[0]

    @property
    def n_tokens(self) -> int:
        return int(self.tgt_mask.sum())


def collate(pairs: Sequence[SentencePair], indices: Sequence[int] | None = None) -> SentencePairBatch:
    n = len(pairs)
    s_max = max(len(p.src) for p in pairs) + 1  # room for </s>
    t_max = max(len(p.tgt) for p in pairs) + 1  # room for <s> / </s>
    src = np.full((n, s_max), PAD_ID, dtype=np.int64)
    tgt_in = np.full((n, t_max), PAD_ID, dtype=np.int64)
    tgt_out = np.full((n, t_max), PAD_ID, dtype=np.int64)
    for i, p in enumerate(pairs):
        src[i, : len(p.src)] = p.src
        src[i, len(p.src)] = EOS_ID
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : len(p.tgt) + 1] = p.tgt
        tgt_out[i, : len(p.tgt)] = p.tgt
        tgt_out[i, len(p.tgt)] = EOS_ID
    return SentencePairBatch(
        src=src,
        tgt_in=tgt_in,
        tgt_out=tgt_out,
        src_mask=src != PAD_ID,
        tgt_mask=tgt_out != PAD_ID,
        indices=list(indices) if indices is not None else list(range(n)),
    )


class Batches(Sequence[SentencePairBatch]):
    """The batches of one epoch: groups of pair indices fixed up front, each
    collated on first use and kept. Indexed by integer, not by slice."""

    def __init__(self, pairs: Sequence[SentencePair], groups: list[list[int]]):
        self._pairs = pairs
        self._groups = groups
        self._collated: list[SentencePairBatch | None] = [None] * len(groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __getitem__(self, index: int) -> SentencePairBatch:
        batch = self._collated[index]
        if batch is None:
            group = self._groups[index]
            batch = self._collated[index] = collate([self._pairs[i] for i in group], group)
        return batch


def make_batches(
    pairs: Sequence[SentencePair],
    token_budget: int,
    seed: int,
) -> Batches:
    """Length-bucketed batches within a token budget, order shuffled by seed.

    Cost of a batch is ``rows * max(raw side length)`` so padding waste counts
    against the budget. Every pair appears exactly once; a single pair larger
    than the budget is an error naming the pair. The grouping and the shuffle
    happen here; a batch is collated when it is first read.
    """
    if token_budget < 1:
        raise CorpusError("token budget must be positive")
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i].length, i))
    groups: list[list[int]] = []
    current: list[int] = []
    current_max = 0
    for idx in order:
        length = pairs[idx].length
        if length > token_budget:
            raise CorpusError(
                f"sentence pair #{idx} has length {length}, exceeding token budget {token_budget}"
            )
        new_max = max(current_max, length)
        if current and (len(current) + 1) * new_max > token_budget:
            groups.append(current)
            current, current_max = [idx], length
        else:
            current.append(idx)
            current_max = new_max
    if current:
        groups.append(current)
    rng = np.random.default_rng(seed)
    rng.shuffle(groups)
    return Batches(pairs, groups)
