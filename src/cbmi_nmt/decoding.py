"""Inference (beam search), corpus BLEU, and CBMI analysis reports.

Beam scoring uses length-penalized sum of log-probabilities,
``score = logp_sum / ((5 + len) / 6) ** alpha`` with ``len`` counting the
generated tokens including the end marker. The decoder always keeps the
greedy rollout among its candidates, so the returned hypothesis never
scores below the greedy one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import weighting as W
from .corpus import BOS_ID, EOS_ID, SentencePair, collate
from .models import ModelParams, lm_forward, nmt_forward


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 4
    length_penalty: float = 0.6
    max_len_ratio: float = 2.0
    max_len_offset: int = 8

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")

    def max_len(self, src_len: int) -> int:
        return max(2, int(self.max_len_ratio * src_len) + self.max_len_offset)


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def _penalized(logp_sum: float, length: int, alpha: float) -> float:
    return logp_sum / length_penalty(length, alpha)


StepFn = Callable[[list[list[int]]], np.ndarray]
"""Maps a list of prefixes (each starting with BOS) to next-token
log-probability rows, one per prefix."""


def beam_search_core(
    step_fn: StepFn,
    config: BeamConfig,
    max_len: int,
    bos: int = BOS_ID,
    eos: int = EOS_ID,
) -> tuple[list[int], float]:
    """Generic beam search over an autoregressive scorer.

    Returns (token ids without BOS/EOS, penalized score) of the best finished
    hypothesis; hypotheses still alive at ``max_len`` are force-finished.
    Ties break toward lower token ids, keeping results deterministic.
    """
    alive: list[tuple[list[int], float]] = [([bos], 0.0)]
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        rows = step_fn([tokens for tokens, _ in alive])
        candidates: list[tuple[float, int, int]] = []
        for i, (tokens, score) in enumerate(alive):
            row = rows[i]
            top = np.argsort(-row, kind="stable")[: 2 * config.beam_size]
            for tok in top:
                candidates.append((score + float(row[tok]), i, int(tok)))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_alive: list[tuple[list[int], float]] = []
        for score, i, tok in candidates:
            if len(next_alive) >= config.beam_size:
                break
            tokens = alive[i][0] + [tok]
            if tok == eos:
                gen_len = len(tokens) - 1
                finished.append((tokens[1:-1], _penalized(score, gen_len, config.length_penalty)))
            else:
                next_alive.append((tokens, score))
        alive = next_alive
        if not alive or len(finished) >= config.beam_size:
            break
    else:
        for tokens, score in alive:
            gen_len = len(tokens) - 1
            finished.append((tokens[1:], _penalized(score, gen_len, config.length_penalty)))
    finished.sort(key=lambda f: (-f[1], f[0]))
    return finished[0]


def greedy_core(step_fn: StepFn, config: BeamConfig, max_len: int,
                bos: int = BOS_ID, eos: int = EOS_ID) -> tuple[list[int], float]:
    tokens = [bos]
    score = 0.0
    for _ in range(max_len):
        row = step_fn([tokens])[0]
        tok = int(row.argmax())
        score += float(row[tok])
        tokens.append(tok)
        if tok == eos:
            break
    out = tokens[1:]
    if out and out[-1] == eos:
        out = out[:-1]
    return out, _penalized(score, max(1, len(tokens) - 1), config.length_penalty)


def _nmt_step_fn(params: ModelParams, src_ids: list[int]) -> StepFn:
    src = np.asarray(src_ids, dtype=np.int64)

    def step(prefixes: list[list[int]]) -> np.ndarray:
        width = max(len(p) for p in prefixes)
        assert all(len(p) == width for p in prefixes), "prefixes grow in lockstep"
        tgt = np.asarray(prefixes, dtype=np.int64)
        src_batch = np.broadcast_to(src, (len(prefixes), src.size))
        out = nmt_forward(params, src_batch, tgt)
        return out.data[:, -1, :].astype(np.float64)

    return step


def beam_search(params: ModelParams, src_ids: Sequence[int], config: BeamConfig) -> list[int]:
    """Translate one encoded source sentence (no specials, EOS appended
    internally). Dropout is off: decoding is deterministic given a
    checkpoint."""
    if len(src_ids) == 0:
        raise ValueError("cannot translate an empty source sentence")
    src = list(src_ids) + [EOS_ID]
    step_fn = _nmt_step_fn(params, src)
    max_len = config.max_len(len(src))
    greedy_tokens, greedy_score = greedy_core(step_fn, config, max_len)
    if config.beam_size == 1:
        return greedy_tokens
    best_tokens, best_score = beam_search_core(step_fn, config, max_len)
    return greedy_tokens if greedy_score > best_score else best_tokens


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


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: Sequence[str], references: Sequence[str]) -> BleuReport:
    """Corpus BLEU with clipped modified n-gram precision and the standard
    brevity penalty; any zero n-gram precision zeroes the score (no
    smoothing)."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis count {len(hypotheses)} != reference count {len(references)}"
        )
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_toks, ref_toks = hyp.split(), ref.split()
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp_toks, n)
            ref_counts = _ngrams(ref_toks, n)
            totals[n - 1] += max(0, len(hyp_toks) - n + 1)
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
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
    per-sentence CBMI, a token histogram, and top-1 accuracy of the three
    prior distributions per CBMI bin."""
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
        nmt_lp = nmt_forward(params, batch.src, batch.tgt_in).data
        lm_lp = lm_forward(params, batch.tgt_in).data
        mask = batch.tgt_mask
        values = W.masked_token_cbmi(
            W.gold_token_probs(nmt_lp, batch.tgt_out),
            W.gold_token_probs(lm_lp, batch.tgt_out),
            mask,
        )
        sentence_records.extend(
            (sent_base + i, float(values[i][mask[i]].mean())) for i in range(len(mask))
        )
        sent, pos = np.nonzero(mask)
        gold = batch.tgt_out[sent, pos]
        live_values = values[sent, pos]
        token_records.extend(
            zip((sent_base + sent).tolist(), pos.tolist(), gold.tolist(), live_values.tolist())
        )
        all_values.append(live_values)
        # the CBMI prior is a softmax over nmt - lm, so its top-1 is their argmax
        cbmi_top = np.subtract(nmt_lp, lm_lp, dtype=np.float64).argmax(axis=-1)
        tops = (lm_lp.argmax(axis=-1), nmt_lp.argmax(axis=-1), cbmi_top)
        all_hits.append(np.stack([top[sent, pos] == gold for top in tops], axis=1))
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


def write_analysis(path: str | Path, analysis: CbmiAnalysis, header: dict[str, str]) -> None:
    Path(path).write_text("\n".join(analysis.lines(header)) + "\n", encoding="utf-8")
