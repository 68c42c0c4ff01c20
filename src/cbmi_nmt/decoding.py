"""Inference (beam search), corpus BLEU, and CBMI analysis reports.

Beam scoring uses length-penalized sum of log-probabilities,
``score = logp_sum / ((5 + len) / 6) ** alpha`` with ``len`` counting the
generated tokens including the end marker. The decoder always keeps the
greedy rollout among its candidates, so the returned hypothesis never
scores below the greedy one.

``beam_search_many`` decodes incrementally and in groups: it sorts the
sentences by source length (a stable sort) and cuts that order into groups
of at most ``MAX_GROUP_SIZE``, whatever their lengths. A group shares one
``models.DecoderState``, which encodes its sources once, each padded with
``<pad>`` to the group's longest and the padding masked, and keeps each
decoder layer's keys and values, so a step feeds one new position per
distinct prefix of each sentence. Each sentence's beam and greedy rollout
are two widths of one search loop, ``_search``, which advances the group's
searches in lockstep over flat arrays: each alive hypothesis's beam,
log-probability and parent row, and a token matrix that grows a column per
step. A sentence stops at its own length limit, ``BeamConfig.max_len`` of
its source length; the next step force-finishes what it still holds. The
parent row and last token key a prefix, so the beam and the greedy rollout
share a decoder row, and each step hands ``(tokens, parents)`` to
``DecoderState.advance``. ``beam_search`` is the one-sentence case.
``beam_search_core`` and ``greedy_core`` run that loop at one width over any
step function of whole prefixes; over ``_nmt_step_fn``, which recomputes the
encoder and every prefix through ``nmt_forward``, they are the reference the
cached path is tested against. Neither step function lets ``<pad>`` or
``<s>`` follow a prefix.

A sentence's hypothesis does not depend on the other sentences of its
group, up to rounding: a masked pad key gets exactly zero attention, so a
row runs the arithmetic of a one-sentence decode, but a matmul over one row
(the first step of a sentence decoded alone) or over padded keys may round
differently, up to about 6e-6 apart in an fp32 log-probability. The output
of ``translate`` stays a deterministic function of its input file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import weighting as W
from .corpus import BOS_ID, EOS_ID, PAD_ID, SentencePair, collate
from .models import DecoderState, ModelParams, lm_forward, nmt_forward


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 4
    length_penalty: float = 0.6
    max_len_ratio: float = 2.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("invalid value for beam_size: must be at least 1")
        if not 0 <= self.max_len_ratio < math.inf:
            raise ValueError("invalid value for max_len_ratio: must be finite and non-negative")

    def max_len(self, src_len: int) -> int:
        limit = self.max_len_ratio * src_len
        if not limit < 2**62:  # a limit the int64 step counters hold
            raise ValueError(f"invalid value for max_len_ratio: {self.max_len_ratio} gives a "
                             f"{src_len}-token source a length limit past 2**62")
        return max(2, int(limit) + 8)


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


StepFn = Callable[[list[list[int]]], np.ndarray]
"""Maps a list of prefixes (each starting with BOS) to next-token
log-probability rows, one per prefix."""

GroupStepFn = Callable[[list[int], list[int]], np.ndarray]
"""Maps ``(tokens, parents)`` to next-token log-probability rows, one per
new decoder row: row ``r`` is row ``parents[r]`` of the previous call
followed by ``tokens[r]``; before the first call the rows are the
sentences, so there ``parents[r]`` names the sentence. The signature of
``DecoderState.advance``."""

# the most sentences one decoder state holds
MAX_GROUP_SIZE = 64


@dataclass
class DecodeStats:
    """Work counts of beam searches, summed over sentences however they were
    grouped: ``steps`` counts, per sentence, the decoder steps in which the
    sentence had a live row; ``rows`` the decoder rows computed for it, each
    distinct prefix once; ``greedy_won`` the sentences whose greedy rollout
    outscored the beam; ``force_finished`` the beam hypotheses cut at the
    length limit."""

    steps: int = 0
    rows: int = 0
    greedy_won: int = 0
    force_finished: int = 0

    def summary(self) -> str:
        return (f"steps={self.steps} rows={self.rows} greedy_won={self.greedy_won} "
                f"force_finished={self.force_finished}")


def _extend(beam: np.ndarray, score: np.ndarray, row: np.ndarray, rows: np.ndarray,
            width: np.ndarray, eos: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of several beams. Alive hypothesis ``h`` of beam ``beam[h]``
    has log-probability ``score[h]`` and is scored by row ``row[h]`` of
    ``rows``; a beam's hypotheses are listed in rank order. Each offers its
    ``2 * width[beam[h]]`` best tokens; candidates rank by (beam, score,
    hypothesis, token), and a beam takes them in that order up to its
    ``width``-th that does not end the sentence. Returns the hypothesis, token
    and log-probability of each candidate taken, in that order."""
    most = min(2 * int(width.max()), rows.shape[1])
    # stable: equal log-probabilities keep the lower token first
    top = np.argsort(-rows, axis=1, kind="stable")[:, :most]
    width = width[beam]
    entry, col = np.nonzero(np.arange(most) < np.minimum(2 * width, most)[:, None])
    token = top[row[entry], col]
    value = score[entry] + rows[row[entry], token]
    order = np.lexsort((token, entry, -value, beam[entry]))
    entry, token, value = entry[order], token[order], value[order]
    going = token != eos
    before = np.cumsum(going) - going
    first = np.searchsorted(beam[entry], beam[entry], side="left")
    taken = before - before[first] < width[entry]
    return entry[taken], token[taken], value[taken]


def _search(
    step_fn: GroupStepFn, widths: Sequence[Sequence[int]], alpha: float, max_lens: Sequence[int],
    bos: int, eos: int, stats: DecodeStats,
) -> list[list[tuple[list[int], float]]]:
    """Beam searches of a group of sentences in lockstep: sentence ``s`` runs
    one search of each width in ``widths[s]`` for at most ``max_lens[s]``
    steps, and every step feeds the distinct alive prefixes of all sentences
    to one ``step_fn`` call. Returns, per sentence and width, the best
    finished hypothesis; adds the work to ``stats``, where the hypotheses
    force-finished at the length limit count for the first width only."""
    owner = np.array([s for s, sentence_widths in enumerate(widths) for _ in sentence_widths])
    width = np.array([w for sentence_widths in widths for w in sentence_widths])
    lead = np.r_[True, owner[1:] != owner[:-1]]  # a sentence's first width
    limit = np.asarray(max_lens)[owner]
    done = np.zeros(owner.size, dtype=np.int64)  # hypotheses finished per beam
    # per beam, its hypotheses alive at step ``t``: log-probability, the row
    # that scored the prefix without its last token (before the first step,
    # the sentence) and the prefix, ``t + 1`` tokens from <s>
    beam, score, row = np.arange(owner.size), np.zeros(owner.size), owner
    tokens = np.full((owner.size, 1), bos, dtype=np.int64)
    # (beam, penalized score, tokens without <s> and </s>) of the finished
    finished = []
    for t in range(max(max_lens) + 1):
        cut = limit[beam] <= t
        stats.force_finished += int(np.count_nonzero(lead[beam[cut]]))
        finished.append((beam[cut], score[cut] / length_penalty(t, alpha), tokens[cut, 1:]))
        beam, score, row, tokens = beam[~cut], score[~cut], row[~cut], tokens[~cut]
        if beam.size == 0:
            break
        # the parent row is distinct per prefix, so (parent, last token) is
        # too; rows are numbered in order of first use
        _, first, key = np.unique(row << 32 | tokens[:, -1], return_index=True,
                                  return_inverse=True)
        order = np.argsort(first)
        rows = step_fn(tokens[first[order], -1].tolist(), row[first[order]].tolist())
        row = np.argsort(order)[key]
        stats.steps += np.unique(owner[beam]).size
        stats.rows += order.size
        entry, token, value = _extend(beam, score, row, rows, width, eos)
        ends = token == eos
        finished.append((beam[entry[ends]], value[ends] / length_penalty(t + 1, alpha),
                         tokens[entry[ends], 1:]))
        done += np.bincount(beam[entry[ends]], minlength=owner.size)
        grows = ~ends & (done[beam[entry]] < width[beam[entry]])
        entry = entry[grows]
        beam, score, row = beam[entry], value[grows], row[entry]
        tokens = np.column_stack((tokens[entry], token[grows]))
    done_of: list[list[tuple[list[int], float]]] = [[] for _ in owner]
    for beams, scores, prefixes in finished:
        for b, value, prefix in zip(beams.tolist(), scores.tolist(), prefixes.tolist()):
            done_of[b].append((prefix, value))
    results: list[list[tuple[list[int], float]]] = [[] for _ in widths]
    for s, done_b in zip(owner.tolist(), done_of):
        results[s].append(min(done_b, key=lambda f: (-f[1], f[0])))
    return results


def _from_prefixes(step_fn: StepFn) -> GroupStepFn:
    """A one-sentence ``GroupStepFn`` over whole prefixes, rebuilt from the
    parents' prefixes."""
    prefixes: list[list[int]] = [[]]

    def step(tokens: list[int], parents: list[int]) -> np.ndarray:
        nonlocal prefixes
        prefixes = [prefixes[p] + [tok] for tok, p in zip(tokens, parents)]
        return step_fn(prefixes)

    return step


def beam_search_core(step_fn: StepFn, config: BeamConfig, max_len: int,
                     bos: int = BOS_ID, eos: int = EOS_ID) -> tuple[list[int], float]:
    """Generic beam search over an autoregressive scorer.

    Returns (token ids without BOS/EOS, penalized score) of the best finished
    hypothesis; hypotheses still alive at ``max_len`` are force-finished.
    Ties break toward lower token ids, keeping results deterministic.
    """
    return _search(_from_prefixes(step_fn), [(config.beam_size,)], config.length_penalty,
                   [max_len], bos, eos, DecodeStats())[0][0]


def greedy_core(step_fn: StepFn, config: BeamConfig, max_len: int,
                bos: int = BOS_ID, eos: int = EOS_ID) -> tuple[list[int], float]:
    """The greedy rollout: beam search at width 1."""
    return _search(_from_prefixes(step_fn), [(1,)], config.length_penalty, [max_len], bos, eos,
                   DecodeStats())[0][0]


def _next_token_rows(log_probs: np.ndarray) -> np.ndarray:
    """float64 next-token rows of the translation model, with <pad> and <s>
    ruled out: neither may follow a prefix."""
    rows = log_probs.astype(np.float64)
    rows[:, (PAD_ID, BOS_ID)] = -np.inf
    return rows


def _nmt_step_fn(params: ModelParams, src_ids: list[int]) -> StepFn:
    """Rows that recompute the encoder and every prefix in full through
    ``nmt_forward``: the reference for the cached step of ``beam_search``."""
    src = np.asarray(src_ids, dtype=np.int64)

    def step(prefixes: list[list[int]]) -> np.ndarray:
        width = max(len(p) for p in prefixes)
        assert all(len(p) == width for p in prefixes), "prefixes grow in lockstep"
        tgt = np.asarray(prefixes, dtype=np.int64)
        src_batch = np.broadcast_to(src, (len(prefixes), src.size))
        out = nmt_forward(params, src_batch, tgt)
        return _next_token_rows(out.data[:, -1, :])

    return step


def _cached_group_step_fn(params: ModelParams, sources: list[list[int]]) -> GroupStepFn:
    """The rows of ``_nmt_step_fn`` for each sentence of a group, from one
    ``DecoderState`` over the sources padded to the longest."""
    padded = np.full((len(sources), max(map(len, sources))), PAD_ID, dtype=np.int64)
    for s, src in enumerate(sources):
        padded[s, : len(src)] = src
    state = DecoderState(params, padded)
    return lambda tokens, parents: _next_token_rows(state.advance(tokens, parents))


def _beam_search_group(
    params: ModelParams, sources: list[list[int]], config: BeamConfig, stats: DecodeStats,
) -> list[list[int]]:
    """Translate encoded source sentences together: their beams and greedy
    rollouts advance in the same decoder steps over one ``DecoderState``,
    each sentence up to its own length limit."""
    srcs = [list(src) + [EOS_ID] for src in sources]
    widths = (config.beam_size,) if config.beam_size == 1 else (config.beam_size, 1)
    results = _search(_cached_group_step_fn(params, srcs), [widths] * len(srcs),
                      config.length_penalty, [config.max_len(len(src)) for src in srcs],
                      BOS_ID, EOS_ID, stats)
    won = [len(result) > 1 and result[1][1] > result[0][1] for result in results]
    stats.greedy_won += sum(won)
    return [result[1][0] if greedy else result[0][0] for result, greedy in zip(results, won)]


def beam_search_many(
    params: ModelParams, sources: Sequence[Sequence[int]], config: BeamConfig,
    stats: DecodeStats | None = None,
) -> list[list[int]]:
    """Translate encoded source sentences (no specials, EOS appended
    internally), returning the hypotheses in input order. The sentences,
    sorted by source length, are decoded together in groups of at most
    ``MAX_GROUP_SIZE``; work counts are added to ``stats`` when given."""
    if any(len(src) == 0 for src in sources):
        raise ValueError("cannot translate an empty source sentence")
    stats = stats if stats is not None else DecodeStats()
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    hypotheses: list[list[int]] = [[] for _ in sources]
    for start in range(0, len(order), MAX_GROUP_SIZE):
        group = order[start : start + MAX_GROUP_SIZE]
        decoded = _beam_search_group(params, [list(sources[i]) for i in group], config, stats)
        for i, hyp in zip(group, decoded):
            hypotheses[i] = hyp
    return hypotheses


def beam_search(
    params: ModelParams, src_ids: Sequence[int], config: BeamConfig,
    stats: DecodeStats | None = None,
) -> list[int]:
    """Translate one encoded source sentence: ``beam_search_many`` of one.
    Dropout is off: decoding is deterministic given a checkpoint. The beam
    and the greedy rollout advance together, in the same decoder steps over
    one cached ``DecoderState``; work counts are added to ``stats`` when
    given."""
    return beam_search_many(params, [src_ids], config, stats)[0]


# ---------------------------------------------------------------------------
# BLEU


@dataclass(frozen=True)
class BleuReport:
    """Corpus-level, case-sensitive 4-gram BLEU over whitespace tokens."""

    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    length_ratio: float
    hyp_length: int
    ref_length: int

    def lines(self) -> list[str]:
        precs = "/".join(f"{p:.4f}" for p in self.precisions)
        return [
            "# corpus bleu: case-sensitive, whitespace tokens, 4-gram, "
            "brevity penalty exp(1 - r/c)",
            f"bleu={self.bleu:.4f}",
            f"precisions={precs}",
            f"brevity_penalty={self.brevity_penalty:.6f}",
            f"length_ratio={self.length_ratio:.6f}",
            f"hyp_length={self.hyp_length}",
            f"ref_length={self.ref_length}",
        ]


def _ngram_counts(hyp_toks: list[list[str]], ref_toks: list[list[str]]
                  ) -> tuple[list[int], list[int]]:
    """Clipped n-gram matches and hypothesis n-gram counts for n = 1..4,
    summed over the corpus.

    Both sides share one token-id dict and lie in one flat array, with a
    sentence id per token. An order-n code is a dense rank of the pair
    (order-(n-1) code, next token), so codes stay below the token count
    whatever the vocabulary, and n-grams that run past a sentence's end are
    dropped. A sentence's clipped matches of an order sum ``min(hyp count,
    ref count)`` over the (sentence, code) keys both sides hold.
    """
    index: dict[str, int] = {}
    tokens = np.array([index.setdefault(t, len(index))
                       for toks in chain(hyp_toks, ref_toks) for t in toks], dtype=np.int64)
    lengths = np.array([len(t) for t in chain(hyp_toks, ref_toks)], dtype=np.int64)
    size = len(tokens)
    sentence = np.repeat(np.tile(np.arange(len(hyp_toks), dtype=np.int64), 2), lengths)
    # tokens from each position to the end of its sentence, that one included
    remaining = np.repeat(np.cumsum(lengths), lengths) - np.arange(size)
    is_hyp = np.arange(size) < lengths[: len(hyp_toks)].sum()
    matches, totals = [], []
    codes, distinct = tokens, len(index)
    for n in range(1, 5):
        if n > 1:
            last = tokens[n - 1 :]
            ranks, codes = np.unique(codes[: len(last)] * len(index) + last, return_inverse=True)
            distinct = len(ranks)
        starts = len(codes)
        live = remaining[:starts] >= n
        keys = sentence[:starts] * distinct + codes
        hyp_keys, hyp_counts = np.unique(keys[live & is_hyp[:starts]], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[live & ~is_hyp[:starts]], return_counts=True)
        _, at_hyp, at_ref = np.intersect1d(hyp_keys, ref_keys, assume_unique=True,
                                           return_indices=True)
        matches.append(int(np.minimum(hyp_counts[at_hyp], ref_counts[at_ref]).sum()))
        totals.append(int(hyp_counts.sum()))
    return matches, totals


def bleu(hypotheses: Sequence[str], references: Sequence[str]) -> BleuReport:
    """Corpus BLEU with clipped modified n-gram precision and the standard
    brevity penalty; any zero n-gram precision zeroes the score (no
    smoothing). Counts are exact integers (``_ngram_counts``)."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis count {len(hypotheses)} != reference count {len(references)}"
        )
    hyp_toks = [h.split() for h in hypotheses]
    ref_toks = [r.split() for r in references]
    matches, totals = _ngram_counts(hyp_toks, ref_toks)
    hyp_len = sum(map(len, hyp_toks))
    ref_len = sum(map(len, ref_toks))
    precisions = tuple(m / t if t > 0 else 0.0 for m, t in zip(matches, totals))
    if hyp_len == 0 or ref_len == 0:
        bp = 0.0
    else:
        bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) > 0:
        geo_mean = math.exp(sum(math.log(p) for p in precisions) / 4.0)
        score = 100.0 * bp * geo_mean
    else:
        score = 0.0
    return BleuReport(
        bleu=score,
        precisions=precisions,
        brevity_penalty=bp,
        length_ratio=hyp_len / ref_len if ref_len else 0.0,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


# ---------------------------------------------------------------------------
# CBMI analysis


@dataclass
class CbmiAnalysis:
    token_records: list[tuple[int, int, int, float]]  # (sentence, position, token id, cbmi)
    sentence_records: list[tuple[int, float]]
    histogram: list[tuple[float, float, int]]
    prior_accuracy: list[tuple[float, float, int, float, float, float]]

    def lines(self, header: dict[str, str]) -> list[str]:
        out = [f"# {k}={v}" for k, v in header.items()]
        out.append("# sections: sent / token / hist / prior_acc")
        for idx, value in self.sentence_records:
            out.append(f"sent\t{idx}\t{value:.6f}")
        for sent, pos, tok, value in self.token_records:
            out.append(f"token\t{sent}\t{pos}\t{tok}\t{value:.6f}")
        for low, high, count in self.histogram:
            out.append(f"hist\t{low:.6f}\t{high:.6f}\t{count}")
        for low, high, count, a_lm, a_tm, a_cbmi in self.prior_accuracy:
            out.append(
                f"prior_acc\t{low:.6f}\t{high:.6f}\t{count}\t{a_lm:.4f}\t{a_tm:.4f}\t{a_cbmi:.4f}"
            )
        return out


def analyze_cbmi(
    params: ModelParams,
    pairs: Sequence[SentencePair],
    bins: int = 10,
    batch_sentences: int = 32,
) -> CbmiAnalysis:
    """Teacher-forced pass over a corpus collecting per-token and
    per-sentence CBMI from ``weighting.cbmi_schedule``, a token histogram,
    and top-1 accuracy of the three prior distributions per CBMI bin."""
    if bins < 1:
        raise ValueError("bins must be positive")
    token_records = []
    sentence_records = []
    all_values = []
    # per live token: whether the LM, TM and CBMI prior top-1 hit the gold token
    all_hits = []

    sent_base = 0
    for start in range(0, len(pairs), batch_sentences):
        batch = collate(pairs[start : start + batch_sentences])
        # only the live positions are projected: [n, V] rows in nonzero order
        mask = batch.tgt_mask
        sent, pos = np.nonzero(mask)
        gold = batch.tgt_out[sent, pos]
        nmt_lp = nmt_forward(params, batch.src, batch.tgt_in, rows=mask).data
        lm_lp = lm_forward(params, batch.tgt_in, rows=mask).data
        schedule = W.cbmi_schedule(W.gold_token_probs(nmt_lp, gold),
                                   W.gold_token_probs(lm_lp, gold), mask, W.CbmiConfig())
        values = schedule.token_cbmi[mask]
        sentence_records.extend(enumerate(schedule.sent_cbmi.tolist(), sent_base))
        token_records.extend(
            zip((sent_base + sent).tolist(), pos.tolist(), gold.tolist(), values.tolist())
        )
        all_values.append(values)
        # the CBMI prior is a softmax over nmt - lm, so its top-1 is their argmax
        cbmi_top = np.subtract(nmt_lp, lm_lp, dtype=np.float64).argmax(axis=-1)
        tops = (lm_lp.argmax(axis=-1), nmt_lp.argmax(axis=-1), cbmi_top)
        all_hits.append(np.stack([top == gold for top in tops], axis=1))
        sent_base += len(mask)

    values_arr = np.concatenate(all_values)
    hits_arr = np.concatenate(all_hits).astype(float)
    lo, hi = float(values_arr.min()), float(values_arr.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    which = np.clip(np.digitize(values_arr, edges[1:-1]), 0, bins - 1)
    histogram = []
    prior_accuracy = []
    for b_idx in range(bins):
        in_bin = which == b_idx
        count = int(in_bin.sum())
        histogram.append((float(edges[b_idx]), float(edges[b_idx + 1]), count))
        acc = hits_arr[in_bin].mean(axis=0) if count else np.zeros(3)
        prior_accuracy.append(
            (float(edges[b_idx]), float(edges[b_idx + 1]), count, float(acc[0]), float(acc[1]), float(acc[2]))
        )
    return CbmiAnalysis(token_records, sentence_records, histogram, prior_accuracy)
