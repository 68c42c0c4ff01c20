"""The benchmark's three workloads.

Each workload is a closed loop with one client: it drives the documented
``cbmi-nmt`` command line in-process through ``cbmi_nmt.cli.run`` and starts
each command only after the previous one returned. Inputs are generated from
the seed; the program sees only the generated files. Every command and
every output check is one operation; a failed one counts into ``failed``.

- ``train``: rounds of ``train --scheme none``, ``cbmi`` and
  ``prior_select`` on one corpus with one seed, so all three schemes see
  identical batches and their costs separate.
- ``translate``: set-up trains a ``none`` checkpoint on a substitution task;
  rounds of ``translate --beam 4``, ``translate --beam 1`` and ``score`` on a
  held-out file. Only forward-mode models and decoding run.
- ``stats``: rounds of ``preprocess`` on a larger corpus with a larger
  vocabulary, then ``analyze-cbmi`` and ``dump-weights`` on a sample of it
  against a randomly initialised checkpoint with a language model.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from cbmi_nmt import cli
from cbmi_nmt.corpus import (
    BOS_ID,
    EOS_ID,
    FrequencyTable,
    Vocabulary,
    bmi_value,
    build_cooccurrence,
    load_parallel_corpus,
)
from cbmi_nmt.decoding import BeamConfig, beam_search_core, greedy_core
from cbmi_nmt.models import load_checkpoint, nmt_forward


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` serves its tests."""

    setup_repeats: int = 5
    # train: desk preset, token budget 1024, identical batches for each scheme
    train_pairs: int = 2000
    train_words: int = 300
    train_len: tuple[int, int] = (3, 20)
    train_steps: int = 6
    checkpoint_every: int = 3
    # translate: substitution task trained in set-up, held-out file decoded
    sub_pairs: int = 1000
    sub_words: int = 20
    sub_len: tuple[int, int] = (3, 7)
    sub_steps: int = 150
    heldout_per_len: int = 8
    bleu_floor: float = 20.0
    # spread over the held-out file, which is sorted by length
    rescore_sentences: int = 10
    # stats: preprocess the whole corpus, analyze and dump a sample of it
    stats_pairs: int = 5000
    stats_words: int = 2000
    stats_len: tuple[int, int] = (3, 15)
    stats_sample: int = 300
    oracle_pairs: int = 40


FULL = Sizes()
TINY = replace(
    FULL, setup_repeats=1, train_pairs=120, train_words=40, train_steps=3, checkpoint_every=2,
    sub_pairs=150, sub_steps=6, heldout_per_len=1, bleu_floor=0.0, rescore_sentences=2,
    stats_pairs=150, stats_words=60, stats_sample=20, oracle_pairs=10,
)

TRAIN_SCHEMES = ("none", "cbmi", "prior_select")
# fast warm-up so a run of a few steps already lowers the loss
TRAIN_FLAGS = ["--base-lr", "0.01", "--warmup-steps", "3", "--phase1-steps", "0",
               "--token-budget", "1024"]
TRANSLATE_TRAIN_FLAGS = ["--base-lr", "0.05", "--warmup-steps", "50", "--phase1-steps", "0",
                         "--token-budget", "256"]
NO_DROPOUT = "dropout_residual=0\ndropout_attention=0\ndropout_activation=0\n"


# ---------------------------------------------------------------------------
# inputs


def _sentences(rng: np.random.Generator, lengths, n_words: int, zipf: bool) -> list[np.ndarray]:
    if zipf:
        weights = 1.0 / (np.arange(n_words) + 10.0)
        probs = weights / weights.sum()
        return [rng.choice(n_words, size=int(n), p=probs) for n in lengths]
    return [rng.integers(0, n_words, size=int(n)) for n in lengths]


def write_corpus(stem: Path, sentences: list[np.ndarray], perm: np.ndarray) -> None:
    """Source word ``s<i>`` translates to target word ``t<perm[i]>``."""
    stem.with_suffix(".src").write_text(
        "".join(" ".join(f"s{i}" for i in s) + "\n" for s in sentences), encoding="utf-8")
    stem.with_suffix(".tgt").write_text(
        "".join(" ".join(f"t{perm[i]}" for i in s) + "\n" for s in sentences), encoding="utf-8")


def substitution_corpus(rng: np.random.Generator, stem: Path, n_pairs: int, n_words: int,
                        length: tuple[int, int], zipf: bool = False) -> np.ndarray:
    perm = rng.permutation(n_words)
    lengths = rng.integers(length[0], length[1] + 1, size=n_pairs)
    write_corpus(stem, _sentences(rng, lengths, n_words, zipf), perm)
    return perm


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _live_target_tokens(path: Path) -> int:
    """Target tokens a teacher-forced pass scores: the words plus </s>."""
    return sum(len(line.split()) + 1 for line in _lines(path))


# ---------------------------------------------------------------------------
# operations


# median probe time on a quiet host (2-vCPU Xeon VM, numpy 2.4, OpenBLAS, one
# thread); it only sets the scale of the host-speed factor
REFERENCE_PROBE_S = 0.0016


class HostProbe:
    """A fixed mix of small numpy ops dispatched from Python, like the
    package's tape ops, and independent of the package's code. On a shared
    host its time tracks how fast the machine runs our kind of code. One
    probe is the median of five timings, so a single interrupt does not
    move it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.w = rng.random((64, 64), dtype=np.float32)
        self.x = rng.random((32, 64), dtype=np.float32)

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(5))

    def _once(self) -> float:
        started = time.perf_counter()
        for _ in range(60):
            h = np.maximum(self.x @ self.w, 0.0) + 0.5
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
            [float(v) for v in e[0, :16]]
        return time.perf_counter() - started


class Ledger:
    """Runs commands and checks, counting each as one operation, and probes
    the host's speed after every command. ``command_seconds`` sums the wall
    time of every command run, which is the program's own time."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # observations about the program that are not failed operations
        self.notes: list[str] = []
        self.probe = HostProbe()
        self.probe_times: list[float] = []
        self.command_seconds = 0.0

    def host_slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """How much slower than the reference the host ran during this run,
        or while probes ``start:stop`` were taken: the median probe time over
        the reference probe time."""
        return statistics.median(self.probe_times[start:stop]) / REFERENCE_PROBE_S

    def command(self, argv: list[str]) -> tuple[float, str]:
        """Run one CLI command; returns (wall seconds, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - one failed operation, reported below
            code = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - started
        self.command_seconds += elapsed
        self.probe_times.append(self.probe())
        self.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return elapsed, out.getvalue()

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


class Workload:
    """Set-up, one closed-loop round, and the checks of one workload."""

    name = ""
    # labels of the round's three timed commands, in order
    commands: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger) -> None:
        self.seed = seed
        self.sizes = sizes
        self.ledger = ledger
        self.root = Path()
        # command label -> (wall seconds, items) of each call
        self.calls: dict[str, list[tuple[float, float]]] = {}

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def round(self, index: int) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks too costly to repeat each round, on the last round's outputs."""

    def report(self) -> dict[str, tuple[float, str]]:
        """The workload's named end-to-end metrics: name -> (value, unit)."""
        raise NotImplementedError

    def rates(self) -> list[float]:
        """Items per second of the round's three commands, in order."""
        return [self._rate(label) for label in self.commands]

    def _add(self, label: str, seconds: float, items: float) -> None:
        self.calls.setdefault(label, []).append((seconds, items))

    def _timed(self, label: str, argv: list[str], items: float) -> str:
        seconds, out = self.ledger.command(argv)
        self._add(label, seconds, items)
        return out

    def _rate(self, label: str, items: float | None = None) -> float:
        """Median items per second over the run's calls, at the reference
        host speed; ``items`` replaces the count recorded with each call.
        Every round repeats the same work, so a burst of other load on a
        shared host moves a few samples, not the result; a run on a slower
        host is scaled by the slowdown its probes measured."""
        median = statistics.median((items or n) / seconds for seconds, n in self.calls[label])
        return median * self.ledger.host_slowdown()

    def _round_dir(self, index: int) -> Path:
        # keep only the latest round's outputs
        shutil.rmtree(self.root / f"round{index - 1}", ignore_errors=True)
        path = self.root / f"round{index}"
        path.mkdir(parents=True)
        return path


# ---------------------------------------------------------------------------
# train


class TrainWorkload(Workload):
    name = "train"
    commands = TRAIN_SCHEMES

    def setup(self, root: Path) -> None:
        self.root = root
        rng = np.random.default_rng([self.seed, 1])
        s = self.sizes
        substitution_corpus(rng, root / "corpus", s.train_pairs, s.train_words, s.train_len,
                            zipf=True)
        self.ledger.command(["preprocess", "--src", str(root / "corpus.src"),
                             "--tgt", str(root / "corpus.tgt"), "--out-dir", str(root / "data")])

    def round(self, index: int) -> None:
        here = self._round_dir(index)
        s = self.sizes
        for scheme in TRAIN_SCHEMES:
            out_dir = here / scheme
            argv = ["train", "--src", str(self.root / "corpus.src"),
                    "--tgt", str(self.root / "corpus.tgt"), "--data-dir", str(self.root / "data"),
                    "--out-dir", str(out_dir), "--scheme", scheme, *TRAIN_FLAGS,
                    "--phase2-steps", str(s.train_steps),
                    "--checkpoint-every", str(s.checkpoint_every), "--seed", str(self.seed)]
            seconds, _ = self.ledger.command(argv)
            self._add(scheme, seconds, self._check_run(out_dir, scheme))

    def _check_run(self, out_dir: Path, scheme: str) -> int:
        """Checks one run's metrics log; returns its target-token count."""
        ok = self.ledger.check
        path = out_dir / "metrics.jsonl"
        records = [json.loads(line) for line in _lines(path)] if path.exists() else []
        steps = [r for r in records if "step" in r and "event" not in r]
        if not ok(len(steps) == self.sizes.train_steps,
                  f"train {scheme}: {len(steps)} metrics lines for {self.sizes.train_steps} steps"):
            return 0
        losses = [r["nmt_loss"] for r in steps] + [r["lm_loss"] for r in steps
                                                    if r["lm_loss"] is not None]
        ok(all(math.isfinite(x) for x in losses), f"train {scheme}: non-finite loss")
        nmt = [r["nmt_loss"] for r in steps]
        k = max(1, len(nmt) // 3)
        ok(np.mean(nmt[-k:]) < np.mean(nmt[:k]),
           f"train {scheme}: loss did not fall ({np.mean(nmt[:k]):.4f} -> {np.mean(nmt[-k:]):.4f})")
        return sum(r["n_tokens"] for r in steps)

    def final_checks(self) -> None:
        last = max(self.root.glob("round*"), key=lambda p: int(p.name[5:]))
        for scheme in TRAIN_SCHEMES:
            try:
                params, _, meta = load_checkpoint(last / scheme / "checkpoint_final")
                loaded = (int(meta["step"]) == self.sizes.train_steps
                          and params.has_lm == (scheme != "none"))
            except (OSError, ValueError, KeyError) as exc:
                loaded = False
                self.ledger.problems.append(f"train {scheme}: {exc}")
            self.ledger.check(loaded, f"train {scheme}: final checkpoint does not load")

    def report(self) -> dict[str, tuple[float, str]]:
        out = {f"train.{s}.tokens_per_s": (self._rate(s), "tokens/s") for s in TRAIN_SCHEMES}
        # both schemes train on the same batches, so each round gives one paired ratio
        ratios = [c[0] / n[0] for n, c in zip(self.calls["none"], self.calls["cbmi"])]
        out["train.cbmi_overhead"] = (statistics.median(ratios), "ratio")
        return out


# ---------------------------------------------------------------------------
# translate


class TranslateWorkload(Workload):
    name = "translate"
    commands = ("beam4", "beam1", "score")

    def setup(self, root: Path) -> None:
        self.root = root
        s = self.sizes
        rng = np.random.default_rng([self.seed, 2])
        perm = substitution_corpus(rng, root / "corpus", s.sub_pairs, s.sub_words, s.sub_len)
        # every training length appears equally often in the held-out file
        lengths = np.repeat(np.arange(s.sub_len[0], s.sub_len[1] + 1), s.heldout_per_len)
        write_corpus(root / "heldout", _sentences(rng, lengths, s.sub_words, False), perm)
        (root / "nodropout.cfg").write_text(NO_DROPOUT, encoding="utf-8")
        self.ledger.command(["preprocess", "--src", str(root / "corpus.src"),
                             "--tgt", str(root / "corpus.tgt"), "--out-dir", str(root / "data")])
        self.ledger.command(["train", "--src", str(root / "corpus.src"),
                             "--tgt", str(root / "corpus.tgt"), "--data-dir", str(root / "data"),
                             "--out-dir", str(root / "model"), "--scheme", "none",
                             "--config", str(root / "nodropout.cfg"), *TRANSLATE_TRAIN_FLAGS,
                             "--phase2-steps", str(s.sub_steps), "--seed", str(self.seed)])
        self.sources = _lines(root / "heldout.src")
        self.vocab = Vocabulary.load(root / "data" / "vocab.tgt.txt")
        self.bleu = 0.0

    def _translate(self, beam: int, out: Path) -> list[str]:
        """Decode the held-out file; the call counts its output tokens with
        </s>. How many sentences of a seed's file the trained model fails to
        end early varies from seed to seed, and tokens per second varies
        much less with it than sentences per second."""
        seconds, _ = self.ledger.command([
            "translate", "--checkpoint", str(self.root / "model" / "checkpoint_final"),
            "--src", str(self.root / "heldout.src"), "--out", str(out),
            "--data-dir", str(self.root / "data"), "--beam", str(beam)])
        hyps = _lines(out) if out.exists() else []
        self._add(f"beam{beam}", seconds, sum(len(h.split()) + 1 for h in hyps))
        self.ledger.check(len(hyps) == len(self.sources),
                          f"beam {beam}: {len(hyps)} hypotheses for {len(self.sources)} sources")
        config = BeamConfig(beam_size=beam)
        bad = [
            i for i, (src, hyp) in enumerate(zip(self.sources, hyps))
            if len(hyp.split()) > config.max_len(len(src.split()) + 1)
            or any(self.vocab.token(self.vocab.encode_token(t)) != t for t in hyp.split())
        ]
        self.ledger.check(not bad, f"beam {beam}: hypotheses {bad[:5]} out of vocab or too long")
        return hyps

    def round(self, index: int) -> None:
        here = self._round_dir(index)
        self.hyps4 = self._translate(4, here / "beam4.hyp")
        self.hyps1 = self._translate(1, here / "beam1.hyp")
        out = self._timed("score", ["score", "--hyp", str(here / "beam4.hyp"),
                                    "--ref", str(self.root / "heldout.tgt")], len(self.sources))
        found = [float(line[5:]) for line in out.splitlines() if line.startswith("bleu=")]
        self.bleu = found[0] if found else 0.0
        self.ledger.check(self.bleu >= self.sizes.bleu_floor,
                          f"beam-4 BLEU {self.bleu:.2f} below the floor {self.sizes.bleu_floor}")

    def final_checks(self) -> None:
        """Decode a sample spread over the held-out file, so every source
        length is in it, again with the public ``beam_search_core`` and
        ``greedy_core`` over the full-recompute ``nmt_forward`` path. The
        beam-4 output must be the reference's choice, the greedy hypothesis
        when it scores higher and the beam's otherwise, so it never scores
        below greedy; the beam-1 output must be the greedy hypothesis. An
        output that differs may still pass by scoring as well as the
        reference's, with both rescored the same way."""
        params, _, _ = load_checkpoint(self.root / "model" / "checkpoint_final")
        src_vocab = Vocabulary.load(self.root / "data" / "vocab.src.txt")
        tol = 1e-4
        config = BeamConfig(beam_size=4)
        n = len(self.sources)
        sample = sorted({round(k * (n - 1) / max(1, self.sizes.rescore_sentences - 1))
                         for k in range(min(self.sizes.rescore_sentences, n))})
        for i in sample:
            src = src_vocab.encode(self.sources[i].split()) + [EOS_ID]
            max_len = config.max_len(len(src))

            def step(prefixes, src=src):
                tgt = np.asarray(prefixes, dtype=np.int64)
                batch = np.broadcast_to(np.asarray(src, dtype=np.int64), (len(prefixes), len(src)))
                return nmt_forward(params, batch, tgt).data[:, -1, :].astype(np.float64)

            def rescore(ids: list[int], src=src, max_len=max_len) -> float:
                # </s> is scored unless the hypothesis reached max_len
                targets = ids + [EOS_ID] if len(ids) < max_len else ids
                rows = nmt_forward(params, src, [BOS_ID] + targets[:-1]).data.astype(np.float64)
                logp = float(rows[np.arange(len(targets)), targets].sum())
                return logp / ((5.0 + len(targets)) / 6.0) ** config.length_penalty

            beam, beam_score = beam_search_core(step, config, max_len)
            greedy, greedy_score = greedy_core(step, config, max_len)
            choice = greedy if greedy_score > beam_score else beam
            hyp4 = self.vocab.encode(self.hyps4[i].split())
            hyp1 = self.vocab.encode(self.hyps1[i].split())
            self.ledger.check(hyp4 == choice or rescore(hyp4) >= rescore(choice) - tol,
                              f"sentence {i}: beam-4 output {hyp4} scores below the reference "
                              f"choice {choice}")
            self.ledger.check(hyp1 == greedy or rescore(hyp1) >= rescore(greedy) - tol,
                              f"sentence {i}: beam-1 output {hyp1} scores below greedy {greedy}")
            if rescore(hyp4) < rescore(hyp1) - tol:
                self.ledger.notes.append(
                    f"sentence {i}: the beam-4 output {hyp4} scores below greedy {hyp1} when "
                    "</s> is scored; beam_search_core also ranks hypotheses still alive when "
                    "it stops early, without </s>")

    def report(self) -> dict[str, tuple[float, str]]:
        sentences = len(self.sources)
        return {
            "translate.beam4.tokens_per_s": (self._rate("beam4"), "tokens/s"),
            "translate.beam1.tokens_per_s": (self._rate("beam1"), "tokens/s"),
            "translate.beam4.sentences_per_s": (self._rate("beam4", sentences), "sentences/s"),
            "translate.beam1.sentences_per_s": (self._rate("beam1", sentences), "sentences/s"),
            "translate.beam4.bleu": (self.bleu, "BLEU"),
        }


# ---------------------------------------------------------------------------
# stats


class StatsWorkload(Workload):
    name = "stats"
    commands = ("preprocess", "analyze", "dump")

    def setup(self, root: Path) -> None:
        self.root = root
        s = self.sizes
        rng = np.random.default_rng([self.seed, 3])
        substitution_corpus(rng, root / "corpus", s.stats_pairs, s.stats_words, s.stats_len,
                            zipf=True)
        for side in ("src", "tgt"):
            lines = _lines(root / f"corpus.{side}")
            (root / f"sample.{side}").write_text("\n".join(lines[: s.stats_sample]) + "\n",
                                                 encoding="utf-8")
            (root / f"oracle.{side}").write_text("\n".join(lines[: s.oracle_pairs]) + "\n",
                                                 encoding="utf-8")
        self.ledger.command(["preprocess", "--src", str(root / "corpus.src"),
                             "--tgt", str(root / "corpus.tgt"), "--out-dir", str(root / "data")])
        # zero steps: the final checkpoint is the seeded initialisation, LM included
        self.ledger.command(["train", "--src", str(root / "sample.src"),
                             "--tgt", str(root / "sample.tgt"), "--data-dir", str(root / "data"),
                             "--out-dir", str(root / "model"), "--scheme", "cbmi",
                             "--phase1-steps", "0", "--phase2-steps", "0",
                             "--seed", str(self.seed)])
        self.sample_tokens = _live_target_tokens(root / "sample.tgt")

    def round(self, index: int) -> None:
        here = self._round_dir(index)
        root = self.root
        self._timed("preprocess", ["preprocess", "--src", str(root / "corpus.src"),
                                   "--tgt", str(root / "corpus.tgt"),
                                   "--out-dir", str(here / "data")], self.sizes.stats_pairs)
        for name in ("vocab.src.txt", "vocab.tgt.txt", "bmi.tgt.txt"):
            same = (here / "data" / name).exists() and (
                (here / "data" / name).read_bytes() == (root / "data" / name).read_bytes())
            self.ledger.check(same, f"preprocess: {name} differs between identical runs")
        common = ["--checkpoint", str(root / "model" / "checkpoint_final"),
                  "--src", str(root / "sample.src"), "--tgt", str(root / "sample.tgt"),
                  "--data-dir", str(root / "data")]
        analysis, dump = here / "analysis.txt", here / "weights.tsv"
        self._timed("analyze", ["analyze-cbmi", *common, "--out", str(analysis)],
                    self.sample_tokens)
        self._timed("dump", ["dump-weights", *common, "--out", str(dump)], self.sample_tokens)
        tokens = sum(line.startswith("token\t") for line in _lines(analysis)) \
            if analysis.exists() else 0
        self.ledger.check(tokens == self.sample_tokens,
                          f"analyze-cbmi: {tokens} token lines for {self.sample_tokens} tokens")
        dumped = len(_lines(dump)) if dump.exists() else 0
        self.ledger.check(dumped == self.sample_tokens,
                          f"dump-weights: {dumped} lines for {self.sample_tokens} tokens")

    def final_checks(self) -> None:
        """The BMI table of a sub-corpus matches a brute-force mean of the
        public ``bmi_value`` over the pairs containing each target token."""
        root = self.root
        self.ledger.command(["preprocess", "--src", str(root / "oracle.src"),
                             "--tgt", str(root / "oracle.tgt"), "--out-dir", str(root / "oracle")])
        src_vocab = Vocabulary.load(root / "oracle" / "vocab.src.txt")
        tgt_vocab = Vocabulary.load(root / "oracle" / "vocab.tgt.txt")
        pairs = load_parallel_corpus(root / "oracle.src", root / "oracle.tgt", src_vocab, tgt_vocab)
        src_freq = FrequencyTable.from_pairs(pairs, "src", len(src_vocab))
        tgt_freq = FrequencyTable.from_pairs(pairs, "tgt", len(tgt_vocab))
        cooc = build_cooccurrence(pairs)
        table = [float(line.split("\t")[1]) for line in _lines(root / "oracle" / "bmi.tgt.txt")
                 if not line.startswith("#")]
        worst = 0.0
        for token in range(len(tgt_vocab)):
            values = [bmi_value(p.src, token, src_freq, tgt_freq, cooc, len(pairs))
                      for p in pairs if token in p.tgt]
            expected = sum(values) / len(values) if values else 0.0
            worst = max(worst, abs(expected - table[token]))
        self.ledger.check(len(table) == len(tgt_vocab) and worst <= 1e-9,
                          f"bmi table differs from the brute-force oracle by {worst:.3g}")

    def report(self) -> dict[str, tuple[float, str]]:
        return {
            "stats.preprocess.pairs_per_s": (self._rate("preprocess"), "pairs/s"),
            "stats.analyze.tokens_per_s": (self._rate("analyze"), "tokens/s"),
            "stats.dump.tokens_per_s": (self._rate("dump"), "tokens/s"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, TranslateWorkload, StatsWorkload)}
