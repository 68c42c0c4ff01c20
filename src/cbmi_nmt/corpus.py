"""Corpus ingestion: reading, vocabularies, batching, and the corpus
statistics (frequency and BMI tables) consumed by the baseline weighting
schemes.

Tokens are whitespace-separated words (``str.split`` in ``read_tokens``) at
desk scale; anything smarter (a subword tokenizer) can slot in behind the
same ``Vocabulary`` interface.
A line ends at ``\\n`` (or ``\\r\\n``) and nowhere else (``read_lines``).
A corpus file is read as one flat token stream and the number of tokens on
each line (``read_tokens``), so no per-line or per-pair Python object is
built before the ids are. ``<pad>``, ``<s>`` and ``</s>`` may not appear in
text that is encoded; a literal ``<unk>`` is ``<unk>``.

The BMI table is array code equal bit for bit to the scalar reference
(``bmi_value`` over ``build_cooccurrence``); both take ``np.log`` of each
ratio, whose bits for one float are the array call's. One sort of the packed
(source type, target type) codes of every (pair, distinct target type,
distinct source type) gives the co-occurrence keys, their counts and each
such meet's key, so every source position finds its term by gathers. The
per-pair sums still add one column of source positions at a time, because
that is the scalar loop's order of addition and float addition is not
associative: any other order could move a value by an ulp.
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


class _Ids(dict):
    """Token -> id; a token outside the vocabulary is ``<unk>``."""

    def __missing__(self, token: str) -> int:
        return UNK_ID


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids.

    Ordering is deterministic: reserved tokens first, then corpus tokens by
    descending count with lexicographic tie-break. Tokens below the build
    threshold are dropped and encode to ``<unk>``; their mass is folded into
    the ``<unk>`` count so frequency lookups stay consistent. A literal
    ``<unk>`` in the corpus is ``<unk>``, its count part of that mass.
    """

    def __init__(self, tokens: list[str], counts: list[int]):
        self._tokens = tokens
        self._counts = counts
        self._ids = _Ids((tok, i) for i, tok in enumerate(tokens))
        if len(self._ids) != len(tokens):
            duplicate = next(tok for i, tok in enumerate(tokens) if self._ids[tok] != i)
            raise CorpusError(f"duplicate token {duplicate!r} in vocabulary")

    @classmethod
    def build(cls, tokens: Iterable[str], min_count: int = 1) -> "Vocabulary":
        """The vocabulary of a flat token stream."""
        counter = Counter(tokens)
        if not counter:
            raise CorpusError("cannot build a vocabulary from an empty corpus")
        unk_mass = counter.pop("<unk>", 0) + sum(c for c in counter.values() if c < min_count)
        # by descending count, ties in lexicographic order: a reversed sort
        # is stable, so it keeps the order of the first sort among ties
        kept = sorted(sorted(tok for tok, c in counter.items() if c >= min_count),
                      key=counter.__getitem__, reverse=True)
        tokens = list(RESERVED_TOKENS) + kept
        counts = [0, 0, 0, unk_mass] + [counter[tok] for tok in kept]
        return cls(tokens, counts)

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def counts(self) -> list[int]:
        return list(self._counts)

    def encode_token(self, token: str) -> int:
        return self._ids[token]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return list(map(self._ids.__getitem__, tokens))

    def encode_array(self, tokens: Sequence[str]) -> np.ndarray:
        return np.fromiter(map(self._ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))

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
    src_tokens: Sequence[str],
    tgt_tokens: Sequence[str],
    min_count: int = 1,
    share: bool = False,
) -> tuple[Vocabulary, Vocabulary]:
    """Build source/target vocabularies from the flat token streams of the two
    sides; with ``share`` both sides use one vocabulary built over both."""
    if share:
        shared = Vocabulary.build(chain(src_tokens, tgt_tokens), min_count)
        return shared, shared
    return Vocabulary.build(src_tokens, min_count), Vocabulary.build(tgt_tokens, min_count)


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


def read_text(path: str | Path, error: type[Exception] = CorpusError) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is an ``error``
    naming it, of the category of what the file holds."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def read_lines(path: str | Path, error: type[Exception] = CorpusError) -> list[str]:
    """The lines of a UTF-8 text file, read by ``read_text``.

    A line ends at ``\\n`` (or ``\\r\\n``) and nowhere else, so the lines are
    those ``wc -l`` counts, plus a last line without a newline. A form feed,
    a lone ``\\r`` or a Unicode line separator stays inside its line.
    """
    text = read_text(path, error)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def read_aligned_lines(first: str | Path, second: str | Path) -> tuple[list[str], list[str]]:
    """The lines of two files that align line by line; files of different
    line counts are a ``CorpusError`` naming both."""
    first_lines, second_lines = read_lines(first), read_lines(second)
    if len(first_lines) != len(second_lines):
        raise CorpusError(
            f"line count mismatch: {first} has {len(first_lines)}, {second} has {len(second_lines)}"
        )
    return first_lines, second_lines


# whether str.split splits at each code point up to U+3001; none above U+3000
# is a space, so a lookup clipped to the last entry reads False
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])
# the characters of text that read_tokens splits at once
_CHUNK_CHARS = 1 << 16


def read_tokens(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The tokens of a one-sentence-per-line UTF-8 file as one flat stream,
    and the number of them on each line: the stream is ``str.split`` of
    each line of ``read_lines`` in turn, with no list built per line.

    The text is split a chunk of whole lines at a time and each token
    interned, so the stream holds one string per type and a chunk's repeats
    are freed before the next chunk is split. With a string per token, five
    ``preprocess`` calls on the stats benchmark's corpus peaked 3.4 MB
    higher: the vocabulary's strings, scattered among the tokens', kept
    their pymalloc arenas from the system.
    """
    text = read_text(path)
    tokens: list[str] = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        tokens += map(sys.intern, text[start:end].split())
        start = end
    # a token starts at a non-space after a space; with a newline put in
    # front, a start's line is the number of newlines before it, less one.
    # A \r before a \n is a space, so CRLF needs no rewriting here
    codes = np.frombuffer(f"\n{text}".encode("utf-32-le"), dtype=np.uint32)
    space = _SPACE.take(codes, mode="clip")
    newlines = np.flatnonzero(codes == 10)
    starts = np.flatnonzero(space[:-1] > space[1:])
    n_lines = newlines.size - (not text or text.endswith("\n"))
    lengths = np.bincount(np.searchsorted(newlines, starts, side="right") - 1, minlength=n_lines)
    return tokens, lengths


# the reserved tokens that no encoded sentence may hold; a literal <unk> is <unk>
_NOT_IN_TEXT = frozenset(RESERVED_TOKENS[:UNK_ID])


def check_no_reserved(tokens: Sequence[str], lengths: np.ndarray, path: str | Path) -> None:
    """A ``<pad>``, ``<s>`` or ``</s>`` in the flat token stream of
    ``read_tokens`` is a ``CorpusError`` naming the first line that holds one."""
    if _NOT_IN_TEXT.isdisjoint(tokens):
        return
    index = next(i for i, tok in enumerate(tokens) if tok in _NOT_IN_TEXT)
    lineno = int(np.searchsorted(np.cumsum(lengths), index, side="right")) + 1
    raise CorpusError(f"reserved token {tokens[index]!r} at line {lineno} of {path}")


def read_parallel_tokens(src_path: str | Path, tgt_path: str | Path, max_len: int = 0):
    """The flat token streams of two aligned one-sentence-per-line files and
    the length of each line, as ``(tokens, lengths)`` a side, every pair
    checked before this returns.

    ``max_len`` > 0 rejects pairs whose raw side exceeds it; empty lines,
    line-count mismatches and the reserved tokens of ``check_no_reserved``
    are errors naming the offending file and its first offending line.
    """
    (src_tokens, src_len), (tgt_tokens, tgt_len) = read_tokens(src_path), read_tokens(tgt_path)
    if src_len.size != tgt_len.size:
        raise CorpusError(f"line count mismatch: {src_path} has {src_len.size}, "
                          f"{tgt_path} has {tgt_len.size}")
    bad = (src_len == 0) | (tgt_len == 0)
    if max_len:
        bad |= (src_len > max_len) | (tgt_len > max_len)
    if bad.any():
        i = int(bad.argmax())
        s_len, t_len = int(src_len[i]), int(tgt_len[i])
        if not s_len or not t_len:
            raise CorpusError(f"empty sentence at line {i + 1} of {tgt_path if s_len else src_path}")
        longer = src_path if s_len > max_len else tgt_path
        raise CorpusError(f"sentence at line {i + 1} of {longer} exceeds max length {max_len}")
    check_no_reserved(src_tokens, src_len, src_path)
    check_no_reserved(tgt_tokens, tgt_len, tgt_path)
    return (src_tokens, src_len), (tgt_tokens, tgt_len)


def split_lines(items: Sequence, lengths: np.ndarray) -> list:
    """A flat stream cut into consecutive lines of the given lengths."""
    ends = np.cumsum(lengths).tolist()
    return list(map(items.__getitem__, map(slice, [0, *ends[:-1]], ends)))


def load_parallel_corpus(
    src_path: str | Path,
    tgt_path: str | Path,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    max_len: int = 0,
) -> list[SentencePair]:
    """Read two aligned one-sentence-per-line files into encoded pairs,
    checked as ``read_parallel_tokens`` checks them."""
    (src_tokens, src_len), (tgt_tokens, tgt_len) = read_parallel_tokens(src_path, tgt_path, max_len)
    return list(map(SentencePair, split_lines(src_vocab.encode(src_tokens), src_len),
                    split_lines(tgt_vocab.encode(tgt_tokens), tgt_len)))


# ---------------------------------------------------------------------------
# corpus statistics


def side_ids(
    pairs: Sequence[SentencePair], side: str, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """One side's token ids of every pair as one flat stream, and each pair's
    length, as ``BmiTable.build`` reads them; an id outside
    ``[0, vocab_size)`` is an error."""
    seqs = [pair.src if side == "src" else pair.tgt for pair in pairs]
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise CorpusError(f"{side} token id out of range for a vocabulary of {vocab_size}")
    return ids, lengths


def _run_starts(codes: np.ndarray) -> np.ndarray:
    """The mask of the entries of sorted ``codes`` that differ from the one
    before them: the first of each run of equal codes."""
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return first


def _sort_tracked(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``codes`` (non-negative, below ``bound``) sorted, and the index each
    sorted code came from; equal codes come in no fixed order of index.

    ``codes`` is sorted in place, packed above its index, when the two fit
    in 63 bits: ``np.sort`` of packed codes is about 3x faster than
    ``np.argsort``, which the codes of a wider ``bound`` fall back to.
    """
    shift = max(codes.size - 1, 0).bit_length()
    if bound << shift > 1 << 63:
        order = np.argsort(codes)
        return codes[order], order
    codes <<= shift
    codes |= np.arange(codes.size)
    codes.sort()
    origin = codes & ((1 << shift) - 1)
    codes >>= shift
    return codes, origin


class FrequencyTable:
    """Per-token-id occurrence counts over one side of the training corpus."""

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if (counts < 0).any():
            raise CorpusError("negative count in frequency table")
        self.counts = counts
        self.total = int(counts.sum())

    @classmethod
    def from_ids(cls, ids: np.ndarray, vocab_size: int) -> "FrequencyTable":
        return cls(np.bincount(ids, minlength=vocab_size))

    @classmethod
    def from_pairs(cls, pairs: Sequence[SentencePair], side: str, vocab_size: int) -> "FrequencyTable":
        return cls.from_ids(side_ids(pairs, side, vocab_size)[0], vocab_size)

    def count(self, token_id: int) -> int:
        return int(self.counts[token_id])


def build_cooccurrence(pairs: Sequence[SentencePair]) -> dict[tuple[int, int], int]:
    """Sentence-pair co-occurrence counts, binary presence per pair.

    The scalar reference for the counts ``BmiTable.build`` takes from its
    sorted meet codes. Together with ``bmi_value`` it is the oracle the
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
        value += float(np.log(f_joint / (f_s * f_t)))
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
        src: tuple[np.ndarray, np.ndarray],
        tgt: tuple[np.ndarray, np.ndarray],
        src_freq: FrequencyTable,
        tgt_freq: FrequencyTable,
        vocab_size: int,
    ) -> "BmiTable":
        """The mean of ``bmi_value`` over the pairs whose target contains each
        type, as array code whose sums are the scalar ones bit for bit.

        ``src`` and ``tgt`` are each side's flat ids and the length of each
        pair's side (``side_ids``), the pairs in corpus order.

        A row is one (pair, distinct target type), in pair order; a meet is
        one (row, distinct source type of its pair). One sort of the meets'
        (source type, target type) codes gives the table's keys, their
        presence counts (``build_cooccurrence``'s) and where each meet
        landed, so each meet gets its key's term. A source position's meet in
        a row is the row's first meet plus the position's rank among its
        pair's distinct types, so a column of source positions reaches its
        rows' terms by gathers, not by a search of the keys. The columns are
        added one at a time, in position order: that is ``bmi_value``'s order
        of addition, which keeps its bits.
        """
        (src, src_len), (tgt, tgt_len) = src, tgt
        n_pairs, src_size = len(src_len), len(src_freq.counts)
        # the meet indices below count on every pair having both sides
        if not (src_len.all() and tgt_len.all()):
            raise CorpusError("sentence pairs must have at least one token per side")
        rows = np.sort(np.repeat(np.arange(n_pairs), tgt_len) * vocab_size + tgt)
        row_pair, row_t = np.divmod(rows[_run_starts(rows)], vocab_size)
        # every pair's distinct source types, and each position's rank among them
        codes, origin = _sort_tracked(np.repeat(np.arange(n_pairs), src_len) * src_size + src,
                                      n_pairs * src_size)
        first = _run_starts(codes)
        rank = np.empty_like(origin)
        rank[origin] = np.cumsum(first) - 1
        src_pair, src_type = np.divmod(codes[first], src_size)
        per_pair = np.bincount(src_pair, minlength=n_pairs)
        pair_start = np.cumsum(per_pair) - per_pair
        rank -= np.repeat(pair_start, src_len)
        del codes, origin, first, src_pair
        reps = per_pair[row_pair]
        row_start = np.cumsum(reps) - reps
        n_meets = int(reps.sum())
        # the meet codes, built with in-place steps. First the index into
        # src_type of each meet's type: pair_start[row_pair] + (meet - row_start) rises
        # by one a meet within a row, so it is a cumulative sum of ones and
        # of each row's jump at its first meet
        codes = np.ones(n_meets, dtype=np.int64)
        codes[row_start] = np.diff(pair_start[row_pair] - row_start, prepend=0) + 1
        codes[:1] -= 1
        np.cumsum(codes, out=codes)
        codes = src_type[codes]
        t_bits = max(vocab_size - 1, 0).bit_length()
        codes <<= t_bits
        codes |= np.repeat(row_t, reps)
        codes, meet = _sort_tracked(codes, src_size << t_bits)
        starts = np.flatnonzero(_run_starts(codes))
        keys = codes[starts]
        del codes
        s, t = keys >> t_bits, keys & ((1 << t_bits) - 1)
        del keys
        joint = np.diff(starts, append=n_meets)
        del starts
        f_src = _smoothed_rel_freq(src_freq.counts, src_freq.total)
        f_tgt = _smoothed_rel_freq(tgt_freq.counts, tgt_freq.total)
        logs = _smoothed_rel_freq(joint, n_pairs) / (f_src[s] * f_tgt[t])
        del s, t
        np.log(logs, out=logs)
        # each meet's term, and a zero past the last for a pad cell to read
        terms = np.empty(n_meets + 1)
        terms[n_meets] = 0.0
        terms[meet] = np.repeat(logs, joint)
        del meet, logs, joint
        width = int(src_len.max(initial=0))
        # each position's rank in a column of pad-padded sources; a pad's rank
        # is n_meets, which lands every row past its last meet, and take's
        # clip reads the zero at terms[n_meets] there
        columns = np.full((width, n_pairs), n_meets, dtype=np.int64)
        columns.T[np.arange(width) < src_len[:, None]] = rank
        row_sums = np.zeros(len(row_t))
        for column in columns:
            index = column[row_pair]
            index += row_start
            row_sums += terms.take(index, mode="clip")
        sums = np.bincount(row_t, weights=row_sums, minlength=vocab_size)
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
    than the budget is an error naming the pair by its 1-based line. The grouping and the shuffle
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
                f"sentence pair at line {idx + 1} has length {length}, "
                f"exceeding token budget {token_budget}"
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
