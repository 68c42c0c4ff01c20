"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` (or rely on the test names
in ``-v`` output). The heavier criteria share module-scoped fixtures: a
substitution toy corpus, a pair of timed 200-step runs, and a two-phase
smoke experiment.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from cbmi_nmt import tensor as T
from cbmi_nmt import weighting as W
from cbmi_nmt.cli import run as cli_run
from cbmi_nmt.corpus import (
    BOS_ID,
    EOS_ID,
    FrequencyTable,
    SentencePair,
    build_cooccurrence,
    bmi_value,
    BmiTable,
    collate,
    make_batches,
    side_ids,
)
from cbmi_nmt.decoding import BeamConfig, beam_search, beam_search_core, bleu
from cbmi_nmt import decoding as D
from cbmi_nmt.models import (
    ModelConfig,
    ModelParams,
    init_params,
    lm_forward,
    lm_param_count,
    nmt_forward,
    nmt_param_count,
)
from cbmi_nmt.tensor import Tensor
from cbmi_nmt.training import (
    TrainConfig,
    Trainer,
    TrainerState,
    AdamState,
    adam_update,
    teacher_forced_accuracy,
    train_step,
)
from cbmi_nmt.weighting import CbmiConfig, WeightScheme

from conftest import fd_check, normalized_sentence_cbmi, schedule_of


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS — {message}")


# ---------------------------------------------------------------------------
# shared fixtures


N_WORDS = 50
TOY_VOCAB = N_WORDS + 4


def _substitution_pairs(n_pairs: int, seed: int) -> list[SentencePair]:
    """Deterministic-substitution translation: target token i is a fixed
    bijective mapping of source token i."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(N_WORDS)
    pairs = []
    for _ in range(n_pairs):
        n = int(rng.integers(3, 11))
        src = list(map(int, rng.integers(4, TOY_VOCAB, size=n)))
        pairs.append(SentencePair(src, [int(perm[s - 4]) + 4 for s in src]))
    return pairs


def _toy_model_config() -> ModelConfig:
    return ModelConfig(TOY_VOCAB, TOY_VOCAB, embed_dim=64, ff_dim=128,
                       enc_layers=2, dec_layers=2, lm_layers=2, heads=4)


@pytest.fixture(scope="module")
def toy_pairs():
    return _substitution_pairs(2000, seed=42)


@pytest.fixture(scope="module")
def paired_200_step_runs(toy_pairs, tmp_path_factory):
    """200 steps each of scheme none and scheme cbmi at zero scales, same seed
    and config. Serves the zero-scale collapse and overhead criteria.

    The two runs advance in lockstep, and at every step the scheme that ran
    second runs first, so load on a shared host falls on both runs' summed
    step times instead of on whichever run happened to be second."""
    root = tmp_path_factory.mktemp("paired")
    mc = _toy_model_config()

    def config(kind, steps):
        return TrainConfig(
            base_lr=0.02, warmup_steps=200, phase1_steps=0, phase2_steps=steps,
            token_budget=1024, seed=99,
            scheme=WeightScheme(kind, cbmi=CbmiConfig(scale_t=0.0, scale_s=0.0)),
        )

    # warm numpy/BLAS caches so the first timed steps are not penalized
    Trainer(config("cbmi", 8), mc, toy_pairs, root / "warm").run()

    trainers = {kind: Trainer(config(kind, 200), mc, toy_pairs, root / kind)
                for kind in ("none", "cbmi")}
    losses = {kind: [] for kind in trainers}
    step_times = dict.fromkeys(trainers, 0.0)
    started = time.perf_counter()
    for step in range(1, 201):
        for kind in ("none", "cbmi") if step % 2 else ("cbmi", "none"):
            trainer = trainers[kind]
            batch = trainer.batch_for_step(step)
            step_started = time.perf_counter()
            metrics = train_step(trainer.state, batch, trainer.cfg, step)
            step_times[kind] += time.perf_counter() - step_started
            losses[kind].append(metrics.nmt_loss)

    return {
        "losses_none": losses["none"],
        "losses_cbmi": losses["cbmi"],
        "wall_none": step_times["none"],
        "wall_cbmi": step_times["cbmi"],
        "wall_pair": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# criteria


class TestCriterion01CbmiIdentity:
    def test_sentence_cbmi_is_mean_of_token_cbmi(self):
        rng = np.random.default_rng(1)
        started = time.perf_counter()
        checked = 0
        for _ in range(125):
            # eight sentences of 1-39 tokens, padded as the trainer's batches
            # are; the pad entries hold probabilities the schedule must ignore
            lengths = rng.integers(1, 40, size=8)
            mask = np.arange(39)[None, :] < lengths[:, None]
            p_nmt = rng.uniform(1e-6, 1.0, size=mask.shape)
            p_lm = rng.uniform(1e-6, 1.0, size=mask.shape)
            schedule = W.cbmi_schedule(p_nmt, p_lm, mask, CbmiConfig())
            for i, n in enumerate(lengths):
                values = np.log(p_nmt[i, :n]) - np.log(p_lm[i, :n])
                assert abs(schedule.sent_cbmi[i] - values.mean()) <= 1e-9
                checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 1000
        assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"
        report(1, f"1000 sentences, sentence CBMI == token mean within 1e-9 ({elapsed:.2f}s)")


class TestCriterion02ZeroScaleCollapse:
    def test_losses_match_scheme_none(self, paired_200_step_runs):
        runs = paired_200_step_runs
        assert len(runs["losses_none"]) == len(runs["losses_cbmi"]) == 200
        diffs = [abs(a - b) for a, b in zip(runs["losses_none"], runs["losses_cbmi"])]
        assert max(diffs) <= 1e-6, f"max per-step loss gap {max(diffs):.2e}"
        total = runs["wall_pair"]
        assert total < 120.0, f"200-step pair took {total:.0f}s"
        report(2, f"200-step cbmi(0,0) vs none: max loss gap {max(diffs):.1e} ({total:.0f}s)")


class TestCriterion03GradientChecks:
    def test_every_op_and_full_weighted_loss(self):
        started = time.perf_counter()
        rng = np.random.default_rng(33)

        # each primitive op against central finite differences at fp64; the
        # random output projections are fixed outside the loss closures
        c1 = rng.normal(size=(4, 5))
        fd_check(lambda a, b: T.sum_all(T.mul(T.add(a, b), c1)),
                 [rng.normal(size=(4, 5)), rng.normal(size=5)], rng)
        c2 = rng.normal(size=(4, 5))
        fd_check(lambda a, b: T.sum_all(T.mul(T.mul(a, b), c2)),
                 [rng.normal(size=(4, 5)), rng.normal(size=(4, 5))], rng)
        c3 = rng.normal(size=(4, 6))
        fd_check(lambda a, b: T.sum_all(T.mul(T.matmul(a, b), c3)),
                 [rng.normal(size=(4, 5)), rng.normal(size=(5, 6))], rng)
        c4 = rng.normal(size=(2, 2, 3, 6))
        fd_check(lambda a, b: T.sum_all(T.mul(T.matmul(a, b), c4)),
                 [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 2, 4, 6))], rng)
        c5 = rng.normal(size=(5, 5))
        fd_check(lambda a: T.sum_all(T.mul(T.relu(a), c5)),
                 [rng.normal(size=(5, 5)) + 0.1], rng)
        c6 = rng.normal(size=(4, 7))
        fd_check(lambda a: T.sum_all(T.mul(T.softmax(a), c6)),
                 [rng.normal(size=(4, 7))], rng, samples_per_tensor=14)
        c7 = rng.normal(size=(4, 7))
        fd_check(lambda a: T.sum_all(T.mul(T.log_softmax(a), c7)),
                 [rng.normal(size=(4, 7))], rng, samples_per_tensor=14)
        c8 = rng.normal(size=(5, 8))
        fd_check(lambda x, g, b: T.sum_all(T.mul(T.layer_norm(x, g, b), c8)),
                 [rng.normal(size=(5, 8)), rng.normal(size=8), rng.normal(size=8)], rng,
                 samples_per_tensor=12)
        ids = np.array([[0, 2, 1], [3, 3, 0]])
        c9 = rng.normal(size=(2, 3, 6))
        fd_check(lambda w: T.sum_all(T.mul(T.embedding(w, ids), c9)),
                 [rng.normal(size=(4, 6))], rng)
        c10 = rng.normal(size=(3, 2, 4))
        fd_check(lambda a: T.sum_all(T.mul(T.transpose(T.reshape(a, (2, 3, 4)), (1, 0, 2)), c10)),
                 [rng.normal(size=(6, 4))], rng)
        targets = rng.integers(0, 9, size=6)
        wvec = rng.uniform(0.2, 2.0, size=6)
        fd_check(lambda a: T.weighted_cross_entropy(T.log_softmax(a), targets, wvec, 0.1),
                 [rng.normal(size=(6, 9))], rng, samples_per_tensor=14)

        # full weighted loss of a 2-layer / dim-32 model (attention included)
        cfg = ModelConfig(20, 20, embed_dim=32, ff_dim=48, enc_layers=2,
                          dec_layers=2, lm_layers=2, heads=4)
        params = init_params(cfg, seed=8, dtype=np.float64)
        src = np.array([[4, 5, 6, 7], [8, 9, 0, 0]])
        tgt_in = np.array([[1, 10, 11], [1, 12, 0]])
        tgt_out = np.array([10, 11, 2, 12, 2, 0])
        weights = np.array([1.0, 0.6, 1.4, 1.0, 0.8, 0.0])
        nmt_names = sorted(k for k in params.tensors if k.startswith("nmt."))
        nmt_arrays = [params.tensors[n].data for n in nmt_names]

        def nmt_loss(*tensors):
            p = ModelParams(cfg, dict(zip(nmt_names, tensors)))
            out = nmt_forward(p, src, tgt_in)
            flat = T.reshape(out, (6, 20))
            return T.weighted_cross_entropy(flat, tgt_out, weights, 0.1)

        rate_nmt = fd_check(nmt_loss, nmt_arrays, rng, samples_per_tensor=3)

        lm_names = sorted(k for k in params.tensors if k.startswith("lm."))
        lm_arrays = [params.tensors[n].data for n in lm_names]
        base = dict(params.tensors)

        def lm_loss(*tensors):
            merged = dict(base)
            merged.update(dict(zip(lm_names, tensors)))
            p = ModelParams(cfg, merged)
            out = lm_forward(p, tgt_in)
            flat = T.reshape(out, (6, 20))
            return T.weighted_cross_entropy(flat, tgt_out, weights, 0.1)

        rate_lm = fd_check(lm_loss, lm_arrays, rng, samples_per_tensor=3)

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report(3, f"all ops + full weighted loss: pass rates {rate_nmt:.3f}/{rate_lm:.3f} "
                  f"at rel err < 1e-3 ({elapsed:.0f}s)")


class TestCriterion04NormalizationInvariants:
    def test_mean_std_and_mean_one_weight(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            values = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 4.0),
                                size=int(rng.integers(2, 40)))
            if values.std() <= 1e-6:
                continue
            schedule, _ = schedule_of([values], width=40)
            norm = schedule.norm_token_cbmi[0]
            assert (norm[len(values):] == 0.0).all()
            norm = norm[: len(values)]
            assert abs(norm.mean()) < 1e-5
            assert abs(norm.std() - 1.0) < 1e-4
            # each value as the CBMI of its own padded sentence of 1-5 equal
            # tokens; at scale_s 0.1 no sentence weight clamps, since no value
            # among at most 39 lies more than sqrt(38) std from their mean
            rows = [[v] * int(k) for v, k in zip(values, rng.integers(1, 6, size=len(values)))]
            schedule, _ = schedule_of(rows, width=5, scale_s=0.1)
            norm2 = normalized_sentence_cbmi(schedule, 0.1)
            assert abs(norm2.mean()) < 1e-5
            assert abs(norm2.std() - 1.0) < 1e-4
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 30))
            mask = np.arange(30)[None, :] < n
            p_nmt = rng.uniform(0.05, 0.95, size=(1, 30))
            p_lm = rng.uniform(0.05, 0.95, size=(1, 30))
            schedule = W.cbmi_schedule(p_nmt, p_lm, mask, CbmiConfig(scale_t=0.1, scale_s=0.3))
            w_t = schedule.token_weights[0]
            assert (w_t[n:] == 0.0).all()
            if (w_t[:n] > 0).all():
                assert abs(w_t[:n].mean() - 1.0) < 1e-5
                checked += 1
        assert checked > 100
        report(4, f"normalization mean/std invariants and mean-one weights ({checked} sentences)")


class TestCriterion05BmiOracle:
    def test_table_matches_bruteforce_on_10_pairs(self):
        started = time.perf_counter()
        rng = np.random.default_rng(5)
        vocab = 12
        pairs = [
            SentencePair(
                list(map(int, rng.integers(4, vocab, size=rng.integers(1, 6)))),
                list(map(int, rng.integers(4, vocab, size=rng.integers(1, 6)))),
            )
            for _ in range(10)
        ]
        src_freq = FrequencyTable.from_pairs(pairs, "src", vocab)
        tgt_freq = FrequencyTable.from_pairs(pairs, "tgt", vocab)
        table = BmiTable.build(side_ids(pairs, "src", vocab), side_ids(pairs, "tgt", vocab),
                               src_freq, tgt_freq, vocab)

        src_tokens = [t for p in pairs for t in p.src]
        tgt_tokens = [t for p in pairs for t in p.tgt]

        def brute(src_ids, tgt_id):
            total = 0.0
            for s in src_ids:
                cooc = sum(1 for p in pairs if s in p.src and tgt_id in p.tgt)
                f_joint = (cooc + 1) / (len(pairs) + 1)
                f_s = (src_tokens.count(s) + 1) / (len(src_tokens) + 1)
                f_t = (tgt_tokens.count(tgt_id) + 1) / (len(tgt_tokens) + 1)
                total += math.log(f_joint / (f_s * f_t))
            return total

        for tok in range(vocab):
            containing = [p for p in pairs if tok in p.tgt]
            expected = (
                float(np.mean([brute(p.src, tok) for p in containing])) if containing else 0.0
            )
            assert abs(table.value(tok) - expected) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(5, f"10-pair BMI table matches brute-force oracle within 1e-9 ({elapsed:.2f}s)")


class TestCriterion06BaselineSpotChecks:
    def test_formula_values(self):
        assert W.freq_exponential_weight(0, 1.0, 1.75) == 2.0
        assert W.focal_loss(1.0, 0.1, 1.0) == 0.0
        assert W.anti_focal_loss(1.0, 0.3, 2.0) == 0.0
        assert W.bmi_weight(0.0, 0.15, 0.8) == 0.8
        log_probs = np.log(np.array([[0.3, 0.2, 0.5]]))
        nmt = Tensor(log_probs)
        prior = W.lm_prior_loss(nmt, log_probs, lam=0.1, tau=2.0)
        # the KL alone, read through the trainer's loss head with CE weight 0
        kl = T.weighted_cross_entropy(nmt, np.array([0]), np.array([0.0]), prior=prior)
        assert abs(kl.item()) <= 1e-12
        priors = [W.select_prior(v, 0.0, 8.0) for v in (-5.0, 4.0, 10.0)]
        assert priors == [W.Prior.LM, W.Prior.TM, W.Prior.CBMI]
        report(6, "freq/focal/bmi/lm-prior/select-prior spot checks")


class TestCriterion07LmStructure:
    def test_source_replacement_and_param_count(self):
        mc = ModelConfig(30, 30, embed_dim=32, ff_dim=48, enc_layers=2,
                         dec_layers=2, lm_layers=2, heads=4)
        pairs_a = [SentencePair([4, 5, 6], [10, 11]), SentencePair([7, 8], [12, 13, 14])]
        pairs_b = [SentencePair([20, 21], [10, 11]), SentencePair([22, 23, 24], [12, 13, 14])]
        batch_a, batch_b = collate(pairs_a), collate(pairs_b)
        assert (batch_a.tgt_in == batch_b.tgt_in).all()
        assert not (batch_a.src.shape == batch_b.src.shape and (batch_a.src == batch_b.src).all())

        cfg = TrainConfig(base_lr=0.01, warmup_steps=10, phase1_steps=0, phase2_steps=4,
                          token_budget=64, seed=17, scheme=WeightScheme("cbmi"))

        def lm_params_after_step(batch):
            params = init_params(mc, seed=23)
            state = TrainerState(
                params=params,
                opt_nmt=AdamState.for_params(params.named("nmt.")),
                opt_lm=AdamState.for_params(params.named("lm.")),
            )
            train_step(state, batch, cfg, step=1)
            return {k: t.data for k, t in params.tensors.items() if k.startswith("lm.")}

        after_a = lm_params_after_step(batch_a)
        after_b = lm_params_after_step(batch_b)
        for name in after_a:
            np.testing.assert_array_equal(after_a[name], after_b[name])

        # closed-form parameter count; the per-layer gap is exactly one
        # attention block plus its layer norm
        params = init_params(mc, seed=1)
        assert params.count("lm.") == lm_param_count(mc)
        assert params.count("nmt.") == nmt_param_count(mc)
        d, f = mc.embed_dim, mc.ff_dim
        from cbmi_nmt.models import (
            attention_param_count,
            decoder_layer_param_count,
            lm_layer_param_count,
        )
        assert decoder_layer_param_count(d, f) - lm_layer_param_count(d, f) == (
            attention_param_count(d) + 2 * d
        )
        report(7, "LM params bitwise source-independent; counts match closed form")


class TestCriterion08ToySmokeExperiment:
    def test_two_phase_toy_task(self, toy_pairs, tmp_path_factory):
        started = time.perf_counter()
        root = tmp_path_factory.mktemp("smoke")
        train_pairs, test_pairs = toy_pairs[:1900], toy_pairs[1900:]
        mc = _toy_model_config()

        def config(kind, phase2):
            return TrainConfig(
                base_lr=0.02, warmup_steps=200, phase1_steps=1500, phase2_steps=phase2,
                token_budget=512, seed=42,
                scheme=WeightScheme(kind, cbmi=CbmiConfig(scale_t=0.1, scale_s=0.3)),
            )

        # phase 1 (plain CE by phase discipline) with the LM training alongside
        phase1 = Trainer(config("cbmi", 0), mc, train_pairs, root / "phase1")
        phase1.run()
        accuracy = teacher_forced_accuracy(
            phase1.state.params, make_batches(train_pairs[:500], 512, seed=0)
        )
        assert accuracy >= 0.95, f"phase-1 accuracy {accuracy:.3f} below 0.95"

        ckpt = root / "phase1" / "checkpoint_final"
        arms = {}
        for kind in ("cbmi", "none"):
            trainer = Trainer(config(kind, 800), mc, train_pairs, root / kind, resume=ckpt)
            trainer.run()
            arms[kind] = trainer.state.params

        beam_config = BeamConfig(beam_size=4, length_penalty=0.6)

        def bleu_of(params):
            hyps, refs = [], []
            for pair in test_pairs:
                hyp = beam_search(params, pair.src, beam_config)
                hyps.append(" ".join(map(str, hyp)))
                refs.append(" ".join(map(str, pair.tgt)))
            return bleu(hyps, refs).bleu

        bleu_cbmi = bleu_of(arms["cbmi"])
        bleu_none = bleu_of(arms["none"])
        elapsed = time.perf_counter() - started
        assert bleu_cbmi >= bleu_none - 2.0, (
            f"cbmi BLEU {bleu_cbmi:.2f} more than 2 below CE baseline {bleu_none:.2f}"
        )
        assert elapsed < 900.0, f"smoke experiment took {elapsed:.0f}s"
        report(
            8,
            f"phase-1 acc {accuracy:.3f} (>=0.95 within 1500<=3000 steps); "
            f"BLEU cbmi {bleu_cbmi:.2f} vs CE {bleu_none:.2f} "
            f"(delta {bleu_cbmi - bleu_none:+.2f}, reported not asserted; {elapsed:.0f}s)",
        )


class TestCriterion09OverheadBound:
    def test_per_step_wall_time_ratio(self, paired_200_step_runs):
        runs = paired_200_step_runs
        ratio = runs["wall_cbmi"] / runs["wall_none"]
        assert ratio <= 1.6, f"cbmi/none wall-time ratio {ratio:.2f} exceeds 1.6"
        report(9, f"200 interleaved steps, summed step time: cbmi {runs['wall_cbmi']:.1f}s / "
                  f"none {runs['wall_none']:.1f}s = {ratio:.2f}x (<= 1.6)")


class TestCriterion10EndToEndDeterminism:
    def test_pipeline_twice_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        src_words = [f"s{i}" for i in range(12)]
        tgt_words = [f"t{i}" for i in range(12)]
        src_path, tgt_path = tmp_path / "c.src", tmp_path / "c.tgt"
        with open(src_path, "w") as fs, open(tgt_path, "w") as ft:
            for _ in range(70):
                idx = rng.integers(0, 12, size=rng.integers(2, 7))
                fs.write(" ".join(src_words[i] for i in idx) + "\n")
                ft.write(" ".join(tgt_words[i] for i in idx) + "\n")

        def pipeline(tag):
            data = tmp_path / f"data_{tag}"
            out = tmp_path / f"run_{tag}"
            hyp = tmp_path / f"hyp_{tag}.txt"
            score = tmp_path / f"score_{tag}.txt"
            assert cli_run(["preprocess", "--src", str(src_path), "--tgt", str(tgt_path),
                            "--out-dir", str(data)]) == 0
            assert cli_run([
                "train", "--src", str(src_path), "--tgt", str(tgt_path),
                "--data-dir", str(data), "--out-dir", str(out),
                "--scheme", "cbmi", "--scale-t", "0.1", "--scale-s", "0.3", "--seed", "7",
                "--phase1-steps", "50", "--phase2-steps", "50", "--base-lr", "0.02",
                "--warmup-steps", "50", "--token-budget", "128",
                "--embed-dim", "32", "--ff-dim", "48", "--enc-layers", "1",
                "--dec-layers", "1", "--lm-layers", "1", "--heads", "2",
            ]) == 0
            assert cli_run([
                "translate", "--checkpoint", str(out / "checkpoint_final"),
                "--src", str(src_path), "--out", str(hyp), "--data-dir", str(data),
                "--beam", "4",
            ]) == 0
            assert cli_run(["score", "--hyp", str(hyp), "--ref", str(tgt_path),
                            "--out", str(score)]) == 0
            return (
                (data / "vocab.src.txt").read_bytes(),
                (data / "bmi.tgt.txt").read_bytes(),
                (out / "metrics.jsonl").read_bytes(),
                hyp.read_bytes(),
                score.read_bytes(),
            )

        first = pipeline("a")
        second = pipeline("b")
        for name, a, b in zip(("vocab", "bmi", "metrics", "hypotheses", "score"), first, second):
            assert a == b, f"{name} differ between identical-seed runs"
        report(10, "preprocess/train(100)/translate/score twice: byte-identical artifacts")


class TestCriterion11BeamAndBleuOracles:
    def test_beam_oracle(self):
        vocab = 6

        def row(probs):
            out = np.full(vocab, 1e-9)
            for tok, p in probs.items():
                out[tok] = p
            return np.log(out / out.sum())

        table = {
            (BOS_ID,): row({3: 0.40, 4: 0.35, 5: 0.10}),
            (BOS_ID, 3): row({3: 0.30, 4: 0.25, 5: 0.25}),
            (BOS_ID, 4): row({5: 0.90, 3: 0.05}),
            (BOS_ID, 5): row({3: 0.20, 4: 0.20, 5: 0.20}),
        }
        for a in (3, 4, 5):
            for b in (3, 4, 5):
                table[(BOS_ID, a, b)] = row({EOS_ID: 0.97})

        def step_fn(prefixes):
            return np.stack([table[tuple(p)] for p in prefixes])

        config = BeamConfig(beam_size=2, length_penalty=0.6)
        tokens, score = beam_search_core(step_fn, config, max_len=4)

        best = None
        for a, b in itertools.product((3, 4, 5), repeat=2):
            logp = table[(BOS_ID,)][a] + table[(BOS_ID, a)][b] + table[(BOS_ID, a, b)][EOS_ID]
            value = logp / D.length_penalty(3, config.length_penalty)
            if best is None or value > best[1]:
                best = ([a, b], value)
        assert tokens == best[0]
        assert score == pytest.approx(best[1], abs=1e-12)

    def test_bleu_matches_bruteforce_on_fixtures(self):
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

        from collections import Counter

        def brute(hyps, refs):
            log_precisions = []
            hyp_len = sum(len(h.split()) for h in hyps)
            ref_len = sum(len(r.split()) for r in refs)
            for n in range(1, 5):
                match, total = 0, 0
                for h, r in zip(hyps, refs):
                    h_toks, r_toks = h.split(), r.split()
                    h_grams = Counter(tuple(h_toks[i:i + n]) for i in range(len(h_toks) - n + 1))
                    r_grams = Counter(tuple(r_toks[i:i + n]) for i in range(len(r_toks) - n + 1))
                    total += max(0, len(h_toks) - n + 1)
                    match += sum(min(c, r_grams[g]) for g, c in h_grams.items())
                if match == 0 or total == 0:
                    return 0.0
                log_precisions.append(math.log(match / total))
            bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
            return 100.0 * bp * math.exp(sum(log_precisions) / 4)

        assert bleu(hyps, refs).bleu == brute(hyps, refs)
        report(11, "beam-2 equals exhaustive enumeration; BLEU equals n-gram script exactly")
