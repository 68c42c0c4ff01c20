"""Corpus ingestion: tokenization, vocabularies, batching, and the corpus
statistics (frequency and BMI tables) consumed by the baseline weighting
schemes.

Tokenization is whitespace word-level at desk scale; anything smarter (a
subword tokenizer) can slot in behind the same ``Vocabulary`` interface.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

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
            raise CorpusError("duplicate token in vocabulary")

    @classmethod
    def build(cls, lines: Iterable[str], min_count: int = 1) -> "Vocabulary":
        counter: Counter[str] = Counter()
        n_lines = 0
        for line in lines:
            n_lines += 1
            counter.update(tokenize(line))
        if n_lines == 0 or not counter:
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
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tok, _, count = line.rstrip("\n").partition("\t")
                tokens.append(tok)
                counts.append(int(count))
        if tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise CorpusError(f"vocabulary file {path} is missing reserved tokens")
        return cls(tokens, counts)

    def content_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for tok, count in zip(self._tokens, self._counts):
            h.update(f"{tok}\t{count}\n".encode())
        return h.hexdigest()[:16]


def build_vocabularies(
    src_lines: Sequence[str],
    tgt_lines: Sequence[str],
    min_count: int = 1,
    share: bool = False,
) -> tuple[Vocabulary, Vocabulary]:
    """Build source/target vocabularies; with ``share`` both sides use one
    vocabulary built over the concatenated corpus."""
    if share:
        shared = Vocabulary.build(list(src_lines) + list(tgt_lines), min_count)
        return shared, shared
    return Vocabulary.build(src_lines, min_count), Vocabulary.build(tgt_lines, min_count)


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


def load_parallel_corpus(
    src_path: str | Path,
    tgt_path: str | Path,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    max_len: int = 0,
) -> list[SentencePair]:
    """Read two aligned one-sentence-per-line files into encoded pairs.

    ``max_len`` > 0 rejects pairs whose raw side exceeds it; empty lines and
    line-count mismatches are errors naming the offending line.
    """
    src_lines = Path(src_path).read_text(encoding="utf-8").splitlines()
    tgt_lines = Path(tgt_path).read_text(encoding="utf-8").splitlines()
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {src_path} has {len(src_lines)}, {tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines), start=1):
        s_toks, t_toks = tokenize(s), tokenize(t)
        if not s_toks or not t_toks:
            raise CorpusError(f"empty sentence at line {i}")
        if max_len and (len(s_toks) > max_len or len(t_toks) > max_len):
            raise CorpusError(f"sentence at line {i} exceeds max length {max_len}")
        pairs.append(SentencePair(src_vocab.encode(s_toks), tgt_vocab.encode(t_toks)))
    return pairs


# ---------------------------------------------------------------------------
# corpus statistics


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
        counts = np.zeros(vocab_size, dtype=np.int64)
        for pair in pairs:
            ids = pair.src if side == "src" else pair.tgt
            np.add.at(counts, ids, 1)
        return cls(counts)

    def count(self, token_id: int) -> int:
        return int(self.counts[token_id])


def build_cooccurrence(pairs: Sequence[SentencePair]) -> dict[tuple[int, int], int]:
    """Sentence-pair co-occurrence counts, binary presence per pair."""
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
        cooc = build_cooccurrence(pairs)
        sums = np.zeros(vocab_size, dtype=np.float64)
        hits = np.zeros(vocab_size, dtype=np.int64)
        for pair in pairs:
            for t in set(pair.tgt):
                sums[t] += bmi_value(pair.src, t, src_freq, tgt_freq, cooc, len(pairs))
                hits[t] += 1
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
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    header_lines.append(line.rstrip("\n"))
                    continue
                idx, _, val = line.rstrip("\n").partition("\t")
                if int(idx) != len(values):
                    raise CorpusError(f"bmi table {path} has non-contiguous ids")
                values.append(float(val))
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


def make_batches(
    pairs: Sequence[SentencePair],
    token_budget: int,
    seed: int,
) -> list[SentencePairBatch]:
    """Length-bucketed batches within a token budget, order shuffled by seed.

    Cost of a batch is ``rows * max(raw side length)`` so padding waste counts
    against the budget. Every pair appears exactly once; a single pair larger
    than the budget is an error naming the pair.
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
    return [collate([pairs[i] for i in group], group) for group in groups]
