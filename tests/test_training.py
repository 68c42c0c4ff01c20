import json
import threading
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cbmi_nmt import tensor as T
from cbmi_nmt import corpus, runtime, training
from cbmi_nmt.cli import FullConfig
from cbmi_nmt import weighting as W
from cbmi_nmt.corpus import EOS_ID, SentencePair, make_batches
from cbmi_nmt.models import (
    CheckpointError, ModelConfig, init_params, lm_forward, load_checkpoint, nmt_forward,
)
from cbmi_nmt.tensor import Tensor
from cbmi_nmt.training import (
    AdamState,
    StepMetrics,
    TrainConfig,
    Trainer,
    TrainingError,
    adam_update,
    clip_gradients,
    lm_pass,
    lr_schedule,
    nmt_pass,
    teacher_forced_accuracy,
    train,
    train_step,
)
from cbmi_nmt.weighting import CbmiConfig, WeightScheme

VOCAB = 14


def toy_pairs(n=60, seed=0, copy=True):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        toks = list(map(int, rng.integers(4, VOCAB, size=int(rng.integers(2, 6)))))
        pairs.append(SentencePair(toks, list(toks) if copy else toks[::-1]))
    return pairs


def tiny_model_config(**overrides):
    defaults = dict(embed_dim=16, ff_dim=24, enc_layers=1, dec_layers=1, lm_layers=1, heads=2)
    defaults.update(overrides)
    return ModelConfig(VOCAB, VOCAB, **defaults)


def tiny_train_config(**overrides):
    defaults = dict(
        base_lr=0.02,
        warmup_steps=50,
        phase1_steps=4,
        phase2_steps=6,
        token_budget=64,
        seed=5,
        scheme=WeightScheme("none"),
        label_smoothing=0.1,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def read_metrics(out_dir):
    lines = (Path(out_dir) / "metrics.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if '"event"' not in line]


class TestLrSchedule:
    def test_knee(self):
        assert lr_schedule(4000, 7e-4, 4000) == pytest.approx(7e-4 * 4000**-0.5, rel=1e-12)

    def test_linear_ramp_start(self):
        assert lr_schedule(1, 7e-4, 4000) == pytest.approx(7e-4 * 4000**-1.5, rel=1e-12)

    def test_monotone_decay_after_knee(self):
        values = [lr_schedule(s, 1e-3, 100) for s in range(100, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ramp_is_increasing(self):
        values = [lr_schedule(s, 1e-3, 100) for s in range(1, 100)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 1e-3, 100)


class TestAdam:
    def test_zero_gradient_fresh_state_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        tensors = {"p": p}
        state = AdamState.for_params(tensors)
        adam_update(tensors, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        p.grad = np.array([1.0])
        tensors = {"p": p}
        state = AdamState.for_params(tensors)
        adam_update(tensors, state, lr=0.1)
        assert p.data[0] == pytest.approx(3.0 - 0.1, abs=1e-6)

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(3)
            p = Tensor(np.array([0.5, 1.5]), requires_grad=True)
            tensors = {"p": p}
            state = AdamState.for_params(tensors)
            for _ in range(5):
                p.grad = rng.normal(size=2)
                adam_update(tensors, state, lr=0.01)
            return p.data.copy(), state.m["p"].copy(), state.v["p"].copy()

        (p1, m1, v1), (p2, m2, v2) = run(), run()
        assert (p1 == p2).all() and (m1 == m2).all() and (v1 == v2).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_moments_keep_the_expressions(self, dtype):
        # the moments are updated in place: the bits of the plain expressions
        rng = np.random.default_rng(4)
        p = Tensor(rng.normal(size=(3, 5)).astype(dtype), requires_grad=True)
        state = AdamState.for_params({"p": p})
        want, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        for t in range(1, 4):
            g = rng.normal(size=(3, 5)).astype(dtype)
            p.grad = g
            adam_update({"p": p}, state, lr=0.01)
            m = state.beta1 * m + (1.0 - state.beta1) * g
            v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
            m_hat, v_hat = m / (1.0 - state.beta1**t), v / (1.0 - state.beta2**t)
            want = want - 0.01 * m_hat / (np.sqrt(v_hat) + state.eps)
            assert state.m["p"].tobytes() == m.tobytes() and state.v["p"].tobytes() == v.tobytes()
            assert p.data.dtype == dtype and p.data.tobytes() == want.tobytes()

    def test_clip_gradients(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)
        norm = clip_gradients({"p": p}, max_norm=1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-9)

    def test_clip_norm_of_squares_past_float32_range(self):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        p.grad = np.array([3e19, 4e19, 0.0], dtype=np.float32)
        norm = clip_gradients({"p": p}, max_norm=1.0)
        assert norm == pytest.approx(5e19, rel=1e-6)
        assert p.grad.dtype == np.float32
        np.testing.assert_allclose(p.grad, [0.6, 0.8, 0.0], rtol=1e-6)

    def test_clip_disabled(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)
        clip_gradients({"p": p}, max_norm=0.0)
        np.testing.assert_array_equal(p.grad, np.full(4, 3.0))


class TestTrainRuns:
    def test_metrics_log_deterministic(self, tmp_path):
        pairs = toy_pairs()
        cfg = tiny_train_config(scheme=WeightScheme("cbmi"))
        mc = tiny_model_config()
        train(cfg, mc, pairs, tmp_path / "a")
        train(cfg, mc, pairs, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
            tmp_path / "b" / "metrics.jsonl"
        ).read_bytes()

    def test_zero_scale_cbmi_equals_none(self, tmp_path):
        pairs = toy_pairs()
        mc = tiny_model_config()
        cfg_none = tiny_train_config(scheme=WeightScheme("none"))
        cfg_cbmi = tiny_train_config(
            scheme=WeightScheme("cbmi", cbmi=CbmiConfig(scale_t=0.0, scale_s=0.0))
        )
        train(cfg_none, mc, pairs, tmp_path / "none")
        train(cfg_cbmi, mc, pairs, tmp_path / "cbmi")
        none_losses = [m["nmt_loss"] for m in read_metrics(tmp_path / "none")]
        cbmi_losses = [m["nmt_loss"] for m in read_metrics(tmp_path / "cbmi")]
        np.testing.assert_allclose(none_losses, cbmi_losses, atol=1e-6)

    def test_huge_counts_make_freq_exp_match_none(self, tmp_path):
        pairs = toy_pairs()
        mc = tiny_model_config()
        cfg_freq = tiny_train_config(scheme=WeightScheme("freq_exp"))
        base = cfg_freq.scheme.baseline
        id_weights = W.freq_exponential_weight(np.full(VOCAB, 10_000), base.freq_a, base.freq_t)
        cfg_none = tiny_train_config(scheme=WeightScheme("none"))
        train(cfg_none, mc, pairs, tmp_path / "none")
        train(cfg_freq, mc, pairs, tmp_path / "freq", id_weights=id_weights)
        none_losses = [m["nmt_loss"] for m in read_metrics(tmp_path / "none")]
        freq_losses = [m["nmt_loss"] for m in read_metrics(tmp_path / "freq")]
        np.testing.assert_allclose(none_losses, freq_losses, atol=1e-4)

    def test_lm_parameters_independent_of_scheme(self, tmp_path):
        pairs = toy_pairs()
        mc = tiny_model_config()
        finals = {}
        for kind in ("cbmi", "lm_prior", "prior_select"):
            cfg = tiny_train_config(scheme=WeightScheme(kind), phase1_steps=2, phase2_steps=3)
            ckpt = train(cfg, mc, pairs, tmp_path / kind)
            params, _, _ = load_checkpoint(ckpt)
            finals[kind] = {k: t.data for k, t in params.tensors.items() if k.startswith("lm.")}
        for kind in ("lm_prior", "prior_select"):
            for name in finals["cbmi"]:
                np.testing.assert_array_equal(finals["cbmi"][name], finals[kind][name])

    def test_phase_one_forces_unit_weights(self, tmp_path):
        pairs = toy_pairs()
        cfg = tiny_train_config(
            scheme=WeightScheme("cbmi", cbmi=CbmiConfig(0.1, 0.3)), phase1_steps=5, phase2_steps=5
        )
        train(cfg, tiny_model_config(), pairs, tmp_path / "run")
        for metric in read_metrics(tmp_path / "run"):
            if metric["phase"] == 1:
                assert metric["weight_mean"] == 1.0
                assert metric["weight_min"] == 1.0
                assert metric["weight_max"] == 1.0
            else:
                assert metric["weight_max"] != 1.0 or metric["weight_min"] != 1.0

    def test_nmt_trajectory_same_with_and_without_lm(self, tmp_path):
        # cbmi at zero scales trains an LM alongside; scheme none does not.
        # The NMT parameter trajectory must match bitwise either way.
        pairs = toy_pairs()
        mc = tiny_model_config()
        ckpt_a = train(tiny_train_config(scheme=WeightScheme("none")), mc, pairs, tmp_path / "a")
        ckpt_b = train(
            tiny_train_config(scheme=WeightScheme("cbmi", cbmi=CbmiConfig(0.0, 0.0))),
            mc,
            pairs,
            tmp_path / "b",
        )
        params_a, _, _ = load_checkpoint(ckpt_a)
        params_b, _, _ = load_checkpoint(ckpt_b)
        for name, tensor in params_a.tensors.items():
            if name.startswith("nmt."):
                np.testing.assert_array_equal(tensor.data, params_b.tensors[name].data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_resume_is_bitwise_identical(self, tmp_path, dtype):
        # every step's gradient norm here exceeds the default clip_norm, so
        # each update depends on the order in which the norm is summed
        pairs = toy_pairs()
        mc = tiny_model_config()
        common = dict(scheme=WeightScheme("cbmi"), phase1_steps=3, checkpoint_every=4)
        cfg = tiny_train_config(phase2_steps=5, **common)
        train(cfg, mc, pairs, tmp_path / "full", dtype=dtype)
        full = read_metrics(tmp_path / "full")

        cfg_half = tiny_train_config(phase2_steps=1, **common)
        train(cfg_half, mc, pairs, tmp_path / "half", dtype=dtype)
        resumed_dir = tmp_path / "resumed"
        train(
            cfg,
            mc,
            pairs,
            resumed_dir,
            dtype=dtype,
            resume=tmp_path / "half" / "checkpoint_step4",
        )
        resumed = read_metrics(resumed_dir)
        assert [m["step"] for m in resumed] == [5, 6, 7, 8]
        by_step = {m["step"]: m for m in full}
        for metric in resumed:
            assert metric == by_step[metric["step"]]

    def test_resume_into_same_dir_continues_logs(self, tmp_path):
        pairs = toy_pairs()
        mc = tiny_model_config()
        cfg = tiny_train_config(
            scheme=WeightScheme("cbmi"), phase1_steps=3, phase2_steps=5, checkpoint_every=4
        )
        run_dir, dump = tmp_path / "run", tmp_path / "weights.tsv"
        kwargs = dict(dump_weights_path=dump, config_echo={"seed": 5})
        train(cfg, mc, pairs, run_dir, **kwargs)
        uninterrupted = {path: path.read_bytes() for path in (run_dir / "metrics.jsonl", dump)}
        with open(run_dir / "metrics.jsonl", "a") as fh:
            fh.write('{"step": 9, "nmt_lo')  # a line torn by a crash mid-write
        train(cfg, mc, pairs, run_dir, resume=run_dir / "checkpoint_step4", **kwargs)
        for path, data in uninterrupted.items():
            assert path.read_bytes() == data
        timing = [line.split("\t") for line in (run_dir / "timing.log").read_text().splitlines()]
        assert [int(fields[0]) for fields in timing] == list(range(1, 9))
        # step, seconds, tokens/s, then the LM pass's and the NMT pass's seconds
        assert all(len(fields) == 5 and min(map(float, fields[1:])) > 0 for fields in timing)

    def test_final_checkpoint_and_metrics_written(self, tmp_path):
        pairs = toy_pairs()
        ckpt = train(tiny_train_config(), tiny_model_config(), pairs, tmp_path / "run")
        assert ckpt.name == "checkpoint_final"
        assert (ckpt / "manifest.txt").exists()
        metrics = read_metrics(tmp_path / "run")
        assert len(metrics) == 10
        timing = (tmp_path / "run" / "timing.log").read_text().splitlines()
        assert len(timing) == 10
        for line in timing:  # no LM trains under scheme none
            step, seconds, rate, lm_s, nmt_s = line.split("\t")
            assert lm_s == "-" and 0 < float(nmt_s) <= float(seconds)

    def test_checkpoint_retention(self, tmp_path):
        pairs = toy_pairs()
        cfg = tiny_train_config(
            phase1_steps=6, phase2_steps=0, checkpoint_every=2, keep_checkpoints=2
        )
        train(cfg, tiny_model_config(), pairs, tmp_path / "run")
        kept = sorted(p.name for p in (tmp_path / "run").glob("checkpoint_step*"))
        assert kept == ["checkpoint_step4", "checkpoint_step6"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_dumps_batch(self, tmp_path):
        pairs = toy_pairs()
        cfg = tiny_train_config(base_lr=1e28, clip_norm=0.0, phase1_steps=30, phase2_steps=0)
        with pytest.raises(TrainingError, match="dumped"):
            train(cfg, tiny_model_config(), pairs, tmp_path / "run")
        assert list((tmp_path / "run").glob("divergence_step*.json"))

    def test_vocab_mismatch_on_resume(self, tmp_path):
        pairs = toy_pairs()
        mc = tiny_model_config()
        cfg = tiny_train_config(phase1_steps=2, phase2_steps=0)
        ckpt = train(cfg, mc, pairs, tmp_path / "run", checkpoint_meta={"vocab_tgt_hash": "aaa"})
        with pytest.raises(CheckpointError, match="vocab"):
            Trainer(
                cfg, mc, pairs, tmp_path / "other",
                resume=ckpt, checkpoint_meta={"vocab_tgt_hash": "bbb"},
            )
        assert not (tmp_path / "other").exists()

    def test_lm_scheme_resume_needs_lm_in_checkpoint(self, tmp_path):
        pairs = toy_pairs()
        mc = tiny_model_config()
        ckpt = train(tiny_train_config(phase1_steps=2, phase2_steps=0), mc, pairs, tmp_path / "run")
        for kind in ("cbmi", "lm_prior", "prior_select"):
            cfg = tiny_train_config(scheme=WeightScheme(kind), phase1_steps=2, phase2_steps=2)
            with pytest.raises(CheckpointError, match="language model"):
                Trainer(cfg, mc, pairs, tmp_path / kind, resume=ckpt)
            assert not (tmp_path / kind).exists()

    def test_weight_dump_written(self, tmp_path):
        pairs = toy_pairs()
        cfg = tiny_train_config(scheme=WeightScheme("cbmi"), phase1_steps=2, phase2_steps=2)
        train(
            cfg, tiny_model_config(), pairs, tmp_path / "run",
            dump_weights_path=tmp_path / "weights.tsv",
        )
        lines = (tmp_path / "weights.tsv").read_text().splitlines()
        assert lines, "phase-2 cbmi steps should dump weight lines"
        first = lines[0].split("\t")
        assert len(first) == 8 and first[0] == "3"  # first phase-2 step

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(TrainingError, match="empty"):
            Trainer(tiny_train_config(), tiny_model_config(), [], tmp_path / "x")


def _nan_lm_forward(*args, **kwargs):
    # a recorded op, so the LM loss is NaN rather than an error in the forward
    return T.mul(lm_forward(*args, **kwargs), np.nan)


class TestLmOverlap:
    """The LM pass runs on its own thread during the NMT pass when that
    pays (``_overlap_lm``), and before it otherwise."""

    @staticmethod
    def host(monkeypatch, cores, blas_threads):
        monkeypatch.setattr(training, "os", SimpleNamespace(
            sched_getaffinity=lambda pid: set(range(cores))))
        monkeypatch.setattr(runtime, "blas_threads", lambda: blas_threads)

    @pytest.mark.parametrize("cores, blas_threads, overlap", [
        (2, 1, True),
        (2, 2, False),     # the LM pass would share a core with a BLAS worker
        (4, 2, True),
        (1, 1, False),
        (2, None, False),  # a BLAS whose thread count cannot be read
    ])
    def test_overlap_needs_a_core_beyond_blas_threads(self, monkeypatch, cores, blas_threads,
                                                      overlap):
        self.host(monkeypatch, cores, blas_threads)
        cfg = tiny_train_config(scheme=WeightScheme("cbmi"), token_budget=1024)
        assert training._overlap_lm(cfg, tiny_model_config(embed_dim=64)) is overlap

    def test_overlap_reads_the_count_the_process_set(self, monkeypatch):
        if runtime.blas_threads() is None:
            pytest.skip("numpy's BLAS thread count cannot be read here")
        monkeypatch.setattr(training, "os", SimpleNamespace(sched_getaffinity=lambda pid: {0, 1}))
        cfg = tiny_train_config(scheme=WeightScheme("cbmi"), token_budget=1024)
        model = tiny_model_config(embed_dim=64)
        try:
            runtime.set_blas_threads(2)
            assert not training._overlap_lm(cfg, model)
            runtime.set_blas_threads(1)
            assert training._overlap_lm(cfg, model)
        finally:
            runtime.set_blas_threads(FullConfig.blas_threads)

    @pytest.mark.parametrize("kind, width, budget, spare, overlap", [
        ("cbmi", 64, 1024, True, True),
        ("prior_select", 32, 1024, True, True),
        ("cbmi", 16, 1024, True, False),   # small ops: dispatch under the GIL
        ("lm_prior", 64, 256, True, False),
        ("cbmi", 64, 1024, False, False),  # no core beyond the BLAS threads
        ("none", 64, 1024, True, False),   # no LM
        ("focal", 64, 1024, True, False),
    ])
    def test_overlap_lm(self, monkeypatch, kind, width, budget, spare, overlap):
        self.host(monkeypatch, cores=2, blas_threads=1 if spare else 2)
        cfg = tiny_train_config(scheme=WeightScheme(kind), token_budget=budget)
        assert training._overlap_lm(cfg, tiny_model_config(embed_dim=width)) is overlap

    @staticmethod
    def serial_step(state, batch, cfg, step):
        # the LM pass, then the NMT pass, on this thread
        lr = lr_schedule(step, cfg.base_lr, cfg.warmup_steps)
        published = []
        lm_loss = lm_pass(state, batch, cfg, step, lr, published.append)
        nmt_loss, weights, cbmi_batch = nmt_pass(state, batch, cfg, step, lr, published.pop)
        phase = 1 if step <= cfg.phase1_steps else 2
        return StepMetrics.of_step(step, phase, batch, nmt_loss, lm_loss, weights, cbmi_batch)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["cbmi", "lm_prior", "prior_select"])
    def test_train_step_is_bitwise_the_serial_step(self, tmp_path, monkeypatch, kind, dtype,
                                                    overlap):
        monkeypatch.setattr(training, "_overlap_lm", lambda cfg, model: overlap)
        pairs = toy_pairs()
        cfg = tiny_train_config(scheme=WeightScheme(kind), phase1_steps=2, phase2_steps=3)
        overlapped, serial = (
            Trainer(cfg, tiny_model_config(), pairs, tmp_path / name, dtype=dtype).state
            for name in ("overlapped", "serial")
        )
        batches = make_batches(pairs, cfg.token_budget, seed=1)
        for step in range(1, cfg.total_steps + 1):
            batch = batches[step % len(batches)]
            got = train_step(overlapped, batch, cfg, step)
            want = self.serial_step(serial, batch, cfg, step)
            assert got.log_line() == want.log_line()
            assert got.lm_s > 0 and got.nmt_s > 0
            for name, tensor in serial.params.tensors.items():
                assert tensor.data.tobytes() == overlapped.params.tensors[name].data.tobytes(), name
            for opt, other in ((serial.opt_nmt, overlapped.opt_nmt), (serial.opt_lm, overlapped.opt_lm)):
                assert opt.t == other.t == step
                for name in opt.m:
                    assert opt.m[name].tobytes() == other.m[name].tobytes(), name
                    assert opt.v[name].tobytes() == other.v[name].tobytes(), name

    @pytest.mark.parametrize("overlap", [True, False])
    def test_non_finite_lm_loss_message(self, tmp_path, monkeypatch, overlap):
        monkeypatch.setattr(training, "_overlap_lm", lambda cfg, model: overlap)
        monkeypatch.setattr(training, "lm_forward", _nan_lm_forward)
        trainer = Trainer(tiny_train_config(scheme=WeightScheme("cbmi")), tiny_model_config(),
                          toy_pairs(), tmp_path / "run")
        with pytest.raises(TrainingError) as info:
            trainer.run()
        dump = tmp_path / "run" / "divergence_step1.json"
        assert str(info.value) == (
            f"aborted at step 1 (non-finite LM loss at step 1); offending batch dumped to {dump}"
        )
        assert dump.exists()

    @pytest.mark.parametrize("nmt_error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("lm_fails", [False, True])
    def test_failing_step_joins_lm_thread(self, tmp_path, monkeypatch, nmt_error, lm_fails):
        nmt_failed = threading.Event()

        def failing_nmt_forward(*args, **kwargs):
            nmt_failed.set()
            raise nmt_error("NMT pass failed")

        def late_lm_forward(*args, **kwargs):
            # fails only after the NMT pass has failed
            assert nmt_failed.wait(timeout=30)
            return _nan_lm_forward(*args, **kwargs)

        monkeypatch.setattr(training, "_overlap_lm", lambda cfg, model: True)
        monkeypatch.setattr(training, "nmt_forward", failing_nmt_forward)
        if lm_fails:
            monkeypatch.setattr(training, "lm_forward", late_lm_forward)
        trainer = Trainer(tiny_train_config(scheme=WeightScheme("cbmi")), tiny_model_config(),
                          toy_pairs(), tmp_path / "run")
        threads = threading.active_count()
        expected = KeyboardInterrupt if nmt_error is KeyboardInterrupt and not lm_fails else TrainingError
        with pytest.raises(expected) as info:
            trainer.run()
        assert threading.active_count() == threads
        message = "non-finite LM loss at step 1" if lm_fails else "NMT pass failed"
        assert message in str(info.value)
        assert trainer.state.step == 0

    @pytest.mark.parametrize("lm_error", [ValueError, KeyboardInterrupt])
    def test_serial_lm_failure_stops_before_nmt_pass(self, tmp_path, monkeypatch, lm_error):
        def failing_lm_forward(*args, **kwargs):
            raise lm_error("LM pass failed")

        def nmt_forward_not_called(*args, **kwargs):
            raise AssertionError("the NMT pass ran after the LM pass failed")

        monkeypatch.setattr(training, "_overlap_lm", lambda cfg, model: False)
        monkeypatch.setattr(training, "lm_forward", failing_lm_forward)
        monkeypatch.setattr(training, "nmt_forward", nmt_forward_not_called)
        trainer = Trainer(tiny_train_config(scheme=WeightScheme("cbmi")), tiny_model_config(),
                          toy_pairs(), tmp_path / "run")
        threads = threading.active_count()
        with pytest.raises(TrainingError if lm_error is ValueError else KeyboardInterrupt) as info:
            trainer.run()
        assert "LM pass failed" in str(info.value)
        assert threading.active_count() == threads
        assert trainer.state.step == 0


class TestLmLogProbsRelease:
    """The NMT pass holds the LM's [B, T, V] log-probs only while it weights
    the batch: they are freed before its loss is checked, so they do not
    stay alive through the NMT backward and Adam."""

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("kind", ["cbmi", "lm_prior", "prior_select"])
    def test_freed_before_nmt_loss_check(self, monkeypatch, tmp_path, kind, overlap):
        finite_value = training._finite_value
        lm_outputs, freed = [], []
        lm_ended = threading.Event()

        def recorded_lm_forward(*args, **kwargs):
            out = lm_forward(*args, **kwargs)
            lm_outputs.append(weakref.ref(out.data))
            return out

        def signalling_lm_pass(*args, **kwargs):
            try:
                return lm_pass(*args, **kwargs)
            finally:
                lm_ended.set()

        def nmt_forward_after_lm_pass(*args, **kwargs):
            # overlapped, this makes the LM pass's own reference end first
            assert lm_ended.wait(timeout=30)
            lm_ended.clear()
            return nmt_forward(*args, **kwargs)

        def checked_finite_value(loss, model, step):
            if model == "NMT":
                freed.append(lm_outputs[-1]() is None)
            return finite_value(loss, model, step)

        monkeypatch.setattr(training, "_overlap_lm", lambda cfg, model: overlap)
        monkeypatch.setattr(training, "lm_forward", recorded_lm_forward)
        monkeypatch.setattr(training, "lm_pass", signalling_lm_pass)
        monkeypatch.setattr(training, "nmt_forward", nmt_forward_after_lm_pass)
        monkeypatch.setattr(training, "_finite_value", checked_finite_value)
        cfg = tiny_train_config(scheme=WeightScheme(kind), phase1_steps=1, phase2_steps=2)
        trainer = Trainer(cfg, tiny_model_config(), toy_pairs(), tmp_path / "run")
        for step in range(1, cfg.total_steps + 1):
            train_step(trainer.state, trainer.batch_for_step(step), cfg, step)
        assert freed == [True] * cfg.total_steps


class TestGradientEquivalence:
    def test_cbmi_gradient_equals_weighted_per_token_gradients(self):
        """For a fixed batch, the gradient under the cbmi scheme equals the
        weight-scaled sum of per-token CE gradients computed independently."""
        from cbmi_nmt import tensor as T
        from cbmi_nmt.models import nmt_forward
        from cbmi_nmt.tensor import Tape

        mc = tiny_model_config()
        pairs = toy_pairs(8)
        batch = make_batches(pairs, 64, seed=0)[0]
        params = init_params(mc, seed=9, dtype=np.float64)
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.3, 1.7, size=batch.tgt_out.shape) * batch.tgt_mask
        b, t = batch.tgt_out.shape
        flat_targets = batch.tgt_out.reshape(-1)
        flat_weights = weights.reshape(-1)

        def grads_for(w):
            for p in params.tensors.values():
                p.zero_grad()
            with Tape() as tape:
                out = nmt_forward(params, batch.src, batch.tgt_in)
                flat = T.reshape(out, (b * t, mc.vocab_size_tgt))
                loss = T.weighted_cross_entropy(flat, flat_targets, w, 0.1)
                tape.backward(loss)
            return {
                k: p.grad.copy() for k, p in params.tensors.items()
                if k.startswith("nmt.") and p.grad is not None
            }

        combined = grads_for(flat_weights)
        accumulated = None
        for j in range(b * t):
            if flat_weights[j] == 0.0:
                continue
            one = np.zeros(b * t)
            one[j] = flat_weights[j]
            gj = grads_for(one)
            if accumulated is None:
                accumulated = gj
            else:
                for name in accumulated:
                    accumulated[name] += gj[name]
        # relative to the overall gradient scale: key-projection biases have
        # mathematically zero gradient (a shared key offset cancels in the
        # softmax), so per-tensor normalization would compare pure noise
        global_scale = max(np.abs(g).max() for g in combined.values())
        for name, grad in combined.items():
            np.testing.assert_allclose(
                grad, accumulated[name], atol=1e-6 * global_scale, rtol=1e-6
            )


class TestSchemeWeights:
    """``compute_scheme_weights`` on one batch of ``toy_pairs``. The
    context-free schemes look weights up in the run's per-id table; the
    references are the per-position expressions that table replaced."""

    @staticmethod
    def _batch_and_rows(seed=3):
        pairs = toy_pairs()
        batch = make_batches(pairs, 64, seed=seed)[0]
        rng = np.random.default_rng(seed)

        def log_probs():
            logits = rng.normal(size=(batch.tgt_out.size, VOCAB))
            return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))

        return pairs, batch, Tensor(log_probs()), log_probs()

    @pytest.mark.parametrize("kind", ["freq_exp", "freq_chi"])
    def test_freq_weights_are_the_per_position_map(self, kind):
        pairs, batch, rows, _ = self._batch_and_rows()
        # a small T keeps the weights of common ids, </s> among them, off 1.0
        scheme = WeightScheme(kind, baseline=W.BaselineConfig(freq_a=1.5, freq_t=0.05))
        counts = np.bincount([t for pair in pairs for t in pair.tgt], minlength=VOCAB)
        counts[EOS_ID] = len(pairs)  # </s> ends every target once
        fn = W.freq_exponential_weight if kind == "freq_exp" else W.freq_chi_square_weight
        expected = fn(counts[batch.tgt_out], 1.5, 0.05) * batch.tgt_mask
        table = W.id_weight_table(scheme, pairs, VOCAB)
        weights, schedule, prior = training.compute_scheme_weights(
            scheme, batch, rows, None, table, phase=2)
        assert weights.dtype == np.float64 and weights.tobytes() == expected.tobytes()
        assert schedule is None and prior is None
        at_eos = batch.tgt_out == EOS_ID
        assert at_eos.any() and (weights[at_eos] == fn(len(pairs), 1.5, 0.05)).all()

    def test_bmi_weights_are_the_clamped_per_position_map(self):
        pairs, batch, rows, _ = self._batch_and_rows()
        scheme = WeightScheme("bmi")
        s, b = scheme.baseline.bmi_s, scheme.baseline.bmi_b
        values = np.linspace(-20.0, 10.0, VOCAB)
        raw = W.bmi_weight(values[batch.tgt_out], s, b)
        assert (raw[batch.tgt_mask] < 0).any() and (raw[batch.tgt_mask] > 0).any()
        expected = np.maximum(raw, 0) * batch.tgt_mask
        table = W.id_weight_table(scheme, pairs, VOCAB, values)
        weights, _, _ = training.compute_scheme_weights(scheme, batch, rows, None, table, phase=2)
        assert weights.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", W.SCHEME_KINDS)
    def test_phase_one_weights_are_units(self, kind):
        _, batch, rows, _ = self._batch_and_rows()
        weights, schedule, prior = training.compute_scheme_weights(
            WeightScheme(kind), batch, rows, None, None, phase=1)
        assert weights.tobytes() == batch.tgt_mask.astype(np.float64).tobytes()
        assert schedule is None and prior is None

    @pytest.mark.parametrize("kind, message", [
        ("freq_exp", "freq_exp weighting needs a target frequency table"),
        ("freq_chi", "freq_chi weighting needs a target frequency table"),
        ("bmi", "bmi weighting needs a precomputed BMI table"),
    ])
    def test_missing_table_names_the_scheme(self, kind, message):
        pairs, batch, rows, _ = self._batch_and_rows()
        # a bmi table is read from disk, so the pairs alone give no weights
        table = W.id_weight_table(WeightScheme(kind), pairs, VOCAB)
        assert (table is None) == (kind == "bmi")
        with pytest.raises(TrainingError) as caught:
            training.compute_scheme_weights(WeightScheme(kind), batch, rows, None, None, phase=2)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind", sorted(set(W.SCHEME_KINDS) - W.ID_SCHEMES))
    def test_context_schemes_read_each_models_gold_probs_once(self, monkeypatch, kind):
        _, batch, rows, lm_log_probs = self._batch_and_rows()
        assert W.id_weight_table(WeightScheme(kind), [], VOCAB) is None
        reads, original = [], W.gold_token_probs

        def counted(log_probs, targets):
            reads.append(id(log_probs))
            return original(log_probs, targets)

        monkeypatch.setattr(W, "gold_token_probs", counted)
        training.compute_scheme_weights(WeightScheme(kind), batch, rows, lm_log_probs, None, phase=2)
        assert len(reads) == len(set(reads)) and set(reads) <= {id(rows.data), id(lm_log_probs)}


def test_train_pass_reads_the_projection_rows(monkeypatch, tmp_path):
    # the loss head reads the projection's [B*T, V] rows: a none step
    # records two reshape nodes fewer than the [B, T, V] forward and a
    # reshape of it back to rows
    tapes = []

    class RecordingTape(training.Tape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    def reshapes(tape):
        return [n for n in tape.nodes if n.grad_fn.__qualname__.startswith("reshape.")]

    monkeypatch.setattr(training, "Tape", RecordingTape)
    cfg = tiny_train_config()
    trainer = Trainer(cfg, tiny_model_config(), toy_pairs(), tmp_path / "run")
    batch = trainer.batch_for_step(1)
    train_step(trainer.state, batch, cfg, 1)
    (step_tape,) = tapes
    with training.Tape() as forward_tape:
        out = nmt_forward(trainer.state.params, batch.src, batch.tgt_in, training=True,
                          rng=np.random.default_rng(0))
    assert out.shape == batch.tgt_in.shape + (VOCAB,)
    assert len(reshapes(step_tape)) == len(reshapes(forward_tape)) + 1 - 2
    assert not [n for n in reshapes(step_tape) if n.out.shape[-1] == VOCAB]


def test_trainer_collates_only_the_batches_it_trains_on(monkeypatch, tmp_path):
    # the epoch's groups are fixed when the trainer starts; a step collates
    # its batch when it first reads it
    collated = []

    def counting_collate(pairs, indices=None):
        collated.append(list(indices))
        return real_collate(pairs, indices)

    real_collate = corpus.collate
    monkeypatch.setattr(corpus, "collate", counting_collate)
    pairs = toy_pairs()
    cfg = tiny_train_config(phase1_steps=0, phase2_steps=2)
    trainer = Trainer(cfg, tiny_model_config(), pairs, tmp_path / "run")
    assert trainer.batches_per_epoch > 2 and not collated
    trainer.run()
    trained = list(collated)
    epoch = make_batches(pairs, cfg.token_budget, training._epoch_seed(cfg.seed, 0))
    assert trained == [epoch[0].indices, epoch[1].indices]


def test_teacher_forced_accuracy_reads_live_rows_only():
    # the full forward's argmax at the unpadded positions, as before live rows
    pairs = toy_pairs(12, seed=4)
    batches = make_batches(pairs, 40, seed=0)
    params = init_params(tiny_model_config(), seed=2)
    params.tensors["nmt.out.b"].data = np.linspace(0, 2, VOCAB).astype(np.float32)
    correct = total = 0
    for batch in batches:
        pred = nmt_forward(params, batch.src, batch.tgt_in).data.argmax(axis=-1)
        correct += int(((pred == batch.tgt_out) & batch.tgt_mask).sum())
        total += batch.n_tokens
    assert any((~batch.tgt_mask).any() for batch in batches)
    assert 0 < correct < total
    assert teacher_forced_accuracy(params, batches) == correct / total


class TestSmokeCopyTask:
    def test_copy_task_reaches_accuracy(self, tmp_path):
        # pilot-calibrated fixture: a 200-pair copy corpus over a shared
        # vocabulary trains to >0.9 teacher-forced accuracy within 500 steps
        rng = np.random.default_rng(0)
        vocab = 16
        pairs = []
        for _ in range(200):
            toks = list(map(int, rng.integers(4, vocab, size=int(rng.integers(2, 7)))))
            pairs.append(SentencePair(toks, list(toks)))
        mc = ModelConfig(vocab, vocab, embed_dim=32, ff_dim=64, enc_layers=2,
                         dec_layers=2, lm_layers=2, heads=4)
        cfg = TrainConfig(
            base_lr=0.03, warmup_steps=100, phase1_steps=500, phase2_steps=0,
            token_budget=256, seed=3, scheme=WeightScheme("none"), label_smoothing=0.1,
        )
        trainer = Trainer(cfg, mc, pairs, tmp_path / "copy")
        trainer.run()
        batches = make_batches(pairs, 256, seed=0)
        accuracy = teacher_forced_accuracy(trainer.state.params, batches)
        assert accuracy > 0.9
