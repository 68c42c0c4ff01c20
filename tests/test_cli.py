import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cbmi_nmt import cli
from cbmi_nmt import models as M
from cbmi_nmt.cli import ConfigError, FullConfig, parse_config, run
from cbmi_nmt.corpus import UNK_ID, BmiTable, FrequencyTable, Vocabulary, load_parallel_corpus
from cbmi_nmt.decoding import BeamConfig, BleuReport, CbmiAnalysis
from cbmi_nmt.models import ModelConfig
from cbmi_nmt.training import TrainConfig
from cbmi_nmt.weighting import BaselineConfig, CbmiConfig
from conftest import scalar_bmi_values


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(7)
    src_words = [f"s{i}" for i in range(10)]
    tgt_words = [f"t{i}" for i in range(10)]
    with open(root / "train.src", "w") as fs, open(root / "train.tgt", "w") as ft:
        for _ in range(60):
            n = rng.integers(2, 6)
            idx = rng.integers(0, 10, size=n)
            fs.write(" ".join(src_words[i] for i in idx) + "\n")
            ft.write(" ".join(tgt_words[i] for i in idx) + "\n")
    assert run(["preprocess", "--src", str(root / "train.src"), "--tgt", str(root / "train.tgt"),
                "--out-dir", str(root / "data")]) == 0
    return root


FAST_TRAIN = [
    "--phase1-steps", "4", "--phase2-steps", "4", "--base-lr", "0.02",
    "--warmup-steps", "50", "--token-budget", "96",
    "--embed-dim", "16", "--ff-dim", "24", "--enc-layers", "1",
    "--dec-layers", "1", "--lm-layers", "1", "--heads", "2",
]


def train_args(corpus, out, *extra):
    return [
        "train", "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
        "--data-dir", str(corpus / "data"), "--out-dir", str(out), *FAST_TRAIN, *extra,
    ]


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config(path)
        assert config.scale_t == 0.1
        assert config.scale_s == 0.3
        assert config.warmup_steps == 4000
        assert config.beam_size == 4
        assert config.length_penalty == 0.6
        assert config.base_lr == 7e-4
        assert (config.freq_a, config.freq_t) == (1.0, 1.75)
        assert (config.bmi_s, config.bmi_b) == (0.15, 0.8)
        assert (config.alpha, config.gamma) == (0.1, 1.0)
        assert (config.lam, config.tau) == (0.1, 2.0)
        assert (config.th1, config.th2) == (0.0, 8.0)

    def test_no_file_same_defaults(self):
        assert parse_config(None) == FullConfig()

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("scale_t=0.2\n")
        config = parse_config(path, {"scale_t": 0.05})
        assert config.scale_t == 0.05

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("not_a_key=3\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            parse_config(path)

    def test_type_error_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("scale_t=fast\n")
        with pytest.raises(ConfigError, match="scale_t"):
            parse_config(path)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigError, match="scale_t"):
            parse_config(None, {"scale_t": -1.0})

    def test_lambda_file_key_maps_to_lam(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lambda=0.5\n")
        assert parse_config(path).lam == 0.5

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nseed=9\n")
        assert parse_config(path).seed == 9

    def test_profile_scheme_defaults(self):
        assert parse_config(None, {"scheme": "freq_chi"}).freq_t == 2.50
        assert parse_config(None, {"scheme": "freq_exp"}).freq_t == 1.75
        zh = parse_config(None, {"scheme": "freq_exp", "profile": "zh_en"})
        assert zh.freq_t == 0.35
        zh_bmi = parse_config(None, {"scheme": "bmi", "profile": "zh_en"})
        assert (zh_bmi.bmi_s, zh_bmi.bmi_b) == (0.1, 1.0)

    def test_explicit_value_beats_profile(self):
        config = parse_config(None, {"scheme": "freq_chi", "freq_t": 9.0})
        assert config.freq_t == 9.0

    def test_preset_sets_model_shape(self):
        config = parse_config(None, {"preset": "base"})
        assert (config.embed_dim, config.enc_layers, config.heads) == (512, 6, 8)
        desk = parse_config(None)
        assert (desk.embed_dim, desk.enc_layers) == (64, 2)
        for preset in ("base", "big"):
            config = parse_config(None, {"preset": preset})
            for attr, value in M.MODEL_PRESETS[preset].items():
                assert getattr(config, attr) == value, (preset, attr)

    def test_echo_roundtrip(self, tmp_path):
        config = parse_config(None, {"scheme": "cbmi", "scale_t": 0.25, "seed": 13})
        echoed = config.echo_dict()
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(f"{k}={v}" for k, v in echoed.items()) + "\n")
        assert parse_config(path) == config

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigError, match="th1"):
            parse_config(None, {"th1": 9.0, "th2": 8.0})


# every key, in order: the own keys, then the fields of CbmiConfig, BaselineConfig,
# ModelConfig, TrainConfig and BeamConfig; a new component field must be added here
FULL_CONFIG_KEYS = [
    "scheme", "profile", "preset", "max_len", "precision", "min_count", "share_vocab", "bins",
    "blas_threads",
    "scale_t", "scale_s", "use_token", "use_sentence", "sigma_floor",
    "freq_a", "freq_t", "bmi_s", "bmi_b", "alpha", "gamma", "lam", "tau", "th1", "th2",
    "soften_teacher_only",
    "embed_dim", "ff_dim", "enc_layers", "dec_layers", "lm_layers", "heads",
    "dropout_residual", "dropout_attention", "dropout_activation",
    "base_lr", "warmup_steps", "phase1_steps", "phase2_steps", "token_budget", "seed",
    "label_smoothing", "clip_norm", "checkpoint_every", "keep_checkpoints",
    "reset_optimizer_phase2",
    "beam_size", "length_penalty", "max_len_ratio",
]


def test_full_config_keys_are_pinned():
    assert [f.name for f in fields(FullConfig)] == FULL_CONFIG_KEYS


_FLOAT_KEYS = [cli.ATTR_TO_KEY.get(attr, attr) for attr, kind in cli._FIELD_TYPES.items()
               if kind is float]


@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_nan_float_key_is_config_error(key, tmp_path):
    message = f"invalid value for {key}: must not be NaN"
    path = tmp_path / "c.cfg"
    path.write_text(f"{key}=nan\n")
    with pytest.raises(ConfigError) as by_file:
        parse_config(path)
    assert str(by_file.value) == message
    with pytest.raises(ConfigError) as by_flag:
        parse_config(None, {cli.KEY_TO_ATTR.get(key, key): float("nan")})
    assert str(by_flag.value) == message


def _model_config(**values):
    return ModelConfig(10, 10, **values)


_RANGE_CASES = [
    (CbmiConfig, {"scale_s": -0.5}, "scale_s"),
    (CbmiConfig, {"sigma_floor": 0.0}, "sigma_floor"),
    (BaselineConfig, {"tau": 0.0}, "tau"),
    (BaselineConfig, {"th1": 9.0, "th2": 8.0}, "th1"),
    (TrainConfig, {"token_budget": 0}, "token_budget"),
    (TrainConfig, {"base_lr": 0.0}, "base_lr"),
    (TrainConfig, {"label_smoothing": 1.0}, "label_smoothing"),
    (TrainConfig, {"checkpoint_every": -1}, "checkpoint_every"),
    (TrainConfig, {"keep_checkpoints": -1}, "keep_checkpoints"),
    (_model_config, {"dropout_residual": 1.0}, "dropout_residual"),
    (_model_config, {"dropout_attention": -0.1}, "dropout_attention"),
    (_model_config, {"dropout_activation": 1.0}, "dropout_activation"),
    (_model_config, {"ff_dim": 0}, "ff_dim"),
    (_model_config, {"heads": 3, "embed_dim": 16}, "heads"),
    (BeamConfig, {"beam_size": 0}, "beam_size"),
    (BeamConfig, {"max_len_ratio": -1.0}, "max_len_ratio"),
    (BeamConfig, {"max_len_ratio": float("inf")}, "max_len_ratio"),
]


@pytest.mark.parametrize(
    "build, values, key", _RANGE_CASES, ids=[key for _, _, key in _RANGE_CASES]
)
def test_range_check_lives_in_the_component(build, values, key):
    with pytest.raises(ValueError) as direct:
        build(**values)
    message = str(direct.value)
    assert message.startswith(f"invalid value for {key}: ")
    with pytest.raises(ConfigError) as parsed:
        parse_config(None, values)
    assert str(parsed.value) == message


# the string keys, and the two keys whose default + 1 would break embed_dim % heads == 0
_CHOSEN_VALUES = {"scheme": "cbmi", "profile": "zh_en", "preset": "base", "precision": "fp64",
                  "embed_dim": 128, "heads": 8}


def _non_default(attr: str):
    """A valid value for ``attr`` that differs from its default."""
    default = getattr(FullConfig(), attr)
    if attr in _CHOSEN_VALUES:
        return _CHOSEN_VALUES[attr]
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    return default / 2 if default else 0.5


@pytest.mark.parametrize("attr", [f.name for f in fields(FullConfig)])
def test_every_config_key_has_a_matching_flag(attr, tmp_path):
    value = _non_default(attr)
    assert value != getattr(FullConfig(), attr)
    flag = {"lam": "--lambda", "beam_size": "--beam"}.get(attr, "--" + attr.replace("_", "-"))
    args = cli.build_parser().parse_args(["score", "--hyp", "h", "--ref", "r", flag, str(value)])
    path = tmp_path / "c.cfg"
    path.write_text(f"{cli.ATTR_TO_KEY.get(attr, attr)}={value}\n")
    by_flag = cli._effective_config(args)
    assert by_flag == parse_config(path)
    assert getattr(by_flag, attr) == value


class TestCliRuns:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = run([
            "score", "--hyp", str(tmp_path / "missing.txt"), "--ref", str(tmp_path / "missing.txt"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_invalid_value_is_runtime_error(self, corpus, tmp_path, capsys):
        cases = [
            ("scale_t", ["--scale-t", "-1"]),
            ("enc_layers", ["--enc-layers", "-3"]),
            ("dec_layers", ["--dec-layers", "-1"]),
            ("lm_layers", ["--lm-layers", "-1"]),
            ("heads", ["--heads", "3", "--embed-dim", "16"]),
            ("heads", ["--heads", "0"]),
            ("keep_checkpoints", ["--checkpoint-every", "1", "--keep-checkpoints", "-1"]),
            ("checkpoint_every", ["--checkpoint-every", "-1"]),
            ("scale_t", ["--scale-t", "nan"]),
            ("max_len_ratio", ["--max-len-ratio", "nan"]),
            ("max_len_ratio", ["--max-len-ratio", "inf"]),
            ("max_len_ratio", ["--max-len-ratio", "-1"]),
        ]
        for key, flags in cases:
            code = run(train_args(corpus, tmp_path / "o", *flags))
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error:config: invalid value for {key}:"), (flags, err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ratio, category", [
        ("inf", "config"), ("-1", "config"), ("1e308", "invalid"), ("1e300", "invalid"),
    ])
    def test_length_ratio_without_a_finite_limit_is_one_error_line(self, corpus, tmp_path, capsys,
                                                                   ratio, category):
        out = tmp_path / "run"
        assert run(train_args(corpus, out, "--scheme", "none", "--seed", "2")) == 0
        capsys.readouterr()
        hyp = tmp_path / "hyp.txt"
        assert run(["translate", "--checkpoint", str(out / "checkpoint_final"),
                    "--src", str(corpus / "train.src"), "--data-dir", str(corpus / "data"),
                    "--max-len-ratio", ratio, "--out", str(hyp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:{category}: invalid value for max_len_ratio:"), err
        assert err.count("\n") == 1 and not hyp.exists()

    def test_score_identity_is_100(self, corpus, capsys):
        hyp = corpus / "train.tgt"
        assert run(["score", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
        out = capsys.readouterr().out
        assert "bleu=100.0000" in out

    def test_train_twice_byte_identical_metrics(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["--scheme", "cbmi", "--scale-t", "0.1", "--scale-s", "0.3", "--seed", "7"]
        assert run(train_args(corpus, a, *common)) == 0
        assert run(train_args(corpus, b, *common)) == 0
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()

    def test_zero_scale_cbmi_matches_none(self, corpus, tmp_path):
        a, b = tmp_path / "zs", tmp_path / "none"
        assert run(train_args(corpus, a, "--scheme", "cbmi", "--scale-t", "0", "--scale-s", "0",
                              "--seed", "3")) == 0
        assert run(train_args(corpus, b, "--scheme", "none", "--seed", "3")) == 0

        def losses(path):
            lines = (path / "metrics.jsonl").read_text().splitlines()
            return [json.loads(l)["nmt_loss"] for l in lines if '"event"' not in l]

        np.testing.assert_allclose(losses(a), losses(b), atol=1e-6)

    def test_effective_config_echo_reproduces_run(self, corpus, tmp_path):
        first = tmp_path / "first"
        assert run(train_args(corpus, first, "--scheme", "cbmi", "--seed", "11")) == 0
        lines = (first / "metrics.jsonl").read_text().splitlines()
        echo = json.loads(lines[0])
        assert echo["event"] == "config"
        echo.pop("event")
        config_file = tmp_path / "echo.cfg"
        config_file.write_text("\n".join(f"{k}={v}" for k, v in echo.items()) + "\n")
        second = tmp_path / "second"
        assert run([
            "train", "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(corpus / "data"), "--out-dir", str(second),
            "--config", str(config_file),
        ]) == 0
        assert (first / "metrics.jsonl").read_bytes() == (second / "metrics.jsonl").read_bytes()

    def test_translate_and_score_deterministic(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(corpus, out, "--seed", "5")) == 0
        hyp1, hyp2 = tmp_path / "h1.txt", tmp_path / "h2.txt"
        summaries = []
        for hyp in (hyp1, hyp2):
            capsys.readouterr()
            assert run([
                "translate", "--checkpoint", str(out / "checkpoint_final"),
                "--src", str(corpus / "train.src"), "--out", str(hyp),
                "--data-dir", str(corpus / "data"), "--beam", "2",
            ]) == 0
            summaries.append(capsys.readouterr().out.split("; ")[1])
        assert hyp1.read_bytes() == hyp2.read_bytes()
        # the decoding work counts are deterministic too
        assert summaries[0] == summaries[1]
        counts = dict(field.split("=") for field in summaries[0].split())
        assert list(counts) == ["steps", "rows", "greedy_won", "force_finished"]
        steps, rows, greedy_won, forced = (int(v) for v in counts.values())
        sentences = len((corpus / "train.src").read_text().splitlines())
        # a step computes the beam's 2 rows and the greedy row at most
        assert sentences <= steps <= rows <= 3 * steps
        assert 0 <= greedy_won <= sentences and 0 <= forced <= 2 * sentences
        assert run(["score", "--hyp", str(hyp1), "--ref", str(corpus / "train.tgt")]) == 0

    def test_analyze_needs_lm_checkpoint(self, corpus, tmp_path, capsys):
        out = tmp_path / "nolm"
        assert run(train_args(corpus, out, "--scheme", "none", "--seed", "2")) == 0
        code = run([
            "analyze-cbmi", "--checkpoint", str(out / "checkpoint_final"),
            "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(corpus / "data"), "--out", str(tmp_path / "a.txt"),
        ])
        assert code == 1
        assert "error:checkpoint" in capsys.readouterr().err
        resumed = tmp_path / "resumed"
        code = run(train_args(corpus, resumed, "--scheme", "cbmi", "--seed", "2",
                              "--resume", str(out / "checkpoint_final")))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:checkpoint:")
        assert not resumed.exists()

    def test_resume_with_other_model_shape_is_checkpoint_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "wide"
        assert run(train_args(corpus, out, "--seed", "3", "--embed-dim", "64")) == 0
        resumed = tmp_path / "narrow"
        capsys.readouterr()
        code = run(train_args(corpus, resumed, "--seed", "3", "--embed-dim", "32",
                              "--resume", str(out / "checkpoint_final")))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:checkpoint:") and "embed_dim=64" in err and "embed_dim=32" in err
        assert not resumed.exists()

    @pytest.mark.parametrize("flags", [["--max-len", "30"], ["--share-vocab", "true"]],
                             ids=["max_len", "share_vocab"])
    def test_resume_ignores_keys_the_model_does_not_read(self, corpus, tmp_path, flags):
        # the corpus's lines are at most 5 tokens long, below either max_len
        full, resumed = tmp_path / "full", tmp_path / "resumed"
        assert run(train_args(corpus, full, "--seed", "4", "--checkpoint-every", "4")) == 0
        shutil.copytree(full, resumed)
        assert run(train_args(corpus, resumed, "--seed", "4", "--checkpoint-every", "4", *flags,
                              "--resume", str(resumed / "checkpoint_step4"))) == 0
        assert (resumed / "metrics.jsonl").read_bytes() == (full / "metrics.jsonl").read_bytes()

    def test_manifest_with_the_legacy_fields_loads(self, corpus, tmp_path, capsys):
        # a manifest as written before ModelConfig lost share_vocab and max_len:
        # both lines, and a config hash over the fields in their old order
        out = tmp_path / "run"
        assert run(train_args(corpus, out, "--seed", "9", "--checkpoint-every", "4")) == 0
        legacy = tmp_path / "legacy"
        shutil.copytree(out / "checkpoint_step4", legacy)
        manifest = legacy / "manifest.txt"
        entries = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
        assert "config.share_vocab" not in entries and "config.max_len" not in entries
        entries.update({"config.share_vocab": "False", "config.max_len": "130"})
        names = [f.name for f in fields(ModelConfig)] + ["share_vocab", "max_len"]
        payload = ";".join(f"{name}={entries['config.' + name]}" for name in names)
        entries["config_hash"] = hashlib.sha256(
            f"{payload};precision={entries['precision']}".encode()).hexdigest()[:16]
        manifest.write_text("".join(f"{k}={entries[k]}\n" for k in sorted(entries)))

        hyps = []
        for ckpt in (out / "checkpoint_step4", legacy):
            hyps.append(tmp_path / f"{ckpt.name}.hyp")
            assert run(["translate", "--checkpoint", str(ckpt), "--src", str(corpus / "train.src"),
                        "--out", str(hyps[-1]), "--data-dir", str(corpus / "data")]) == 0
        assert hyps[0].read_bytes() == hyps[1].read_bytes()
        resumed = tmp_path / "resumed"
        assert run(train_args(corpus, resumed, "--seed", "9", "--checkpoint-every", "4",
                              "--resume", str(legacy))) == 0
        assert (resumed / "metrics.jsonl").read_text().splitlines() == (
            (out / "metrics.jsonl").read_text().splitlines()[-4:])

        manifest.write_text(manifest.read_text().replace("config.max_len=130", "config.max_len=131"))
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(legacy), "--src", str(corpus / "train.src"),
                    "--out", str(hyps[-1]), "--data-dir", str(corpus / "data")]) == 1
        assert capsys.readouterr().err.startswith(
            "error:checkpoint: manifest config hash does not match its own config fields")

    def test_analyze_and_dump_weights(self, corpus, tmp_path):
        out = tmp_path / "lmrun"
        assert run(train_args(corpus, out, "--scheme", "cbmi", "--seed", "4")) == 0
        report = tmp_path / "analysis.txt"
        assert run([
            "analyze-cbmi", "--checkpoint", str(out / "checkpoint_final"),
            "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(corpus / "data"), "--out", str(report), "--bins", "4",
        ]) == 0
        text = report.read_text().splitlines()
        assert text[0].startswith("# checkpoint_hash=")
        assert sum(1 for l in text if l.startswith("hist\t")) == 4
        dump = tmp_path / "weights.tsv"
        assert run([
            "dump-weights", "--checkpoint", str(out / "checkpoint_final"),
            "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(corpus / "data"), "--out", str(dump),
        ]) == 0
        assert all(len(l.split("\t")) == 8 for l in dump.read_text().splitlines())

    def test_analyze_empty_corpus_is_corpus_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "lmrun"
        assert run(train_args(corpus, out, "--scheme", "cbmi", "--seed", "4")) == 0
        for side in ("empty.src", "empty.tgt"):
            (tmp_path / side).write_text("")
        capsys.readouterr()
        code = run([
            "analyze-cbmi", "--checkpoint", str(out / "checkpoint_final"),
            "--src", str(tmp_path / "empty.src"), "--tgt", str(tmp_path / "empty.tgt"),
            "--data-dir", str(corpus / "data"), "--out", str(tmp_path / "a.txt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:corpus:") and str(tmp_path / "empty.src") in err, err
        assert not (tmp_path / "a.txt").exists()

    def test_dump_weights_empty_corpus_is_corpus_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "lmrun"
        assert run(train_args(corpus, out, "--scheme", "cbmi", "--seed", "4")) == 0
        for side in ("empty.src", "empty.tgt"):
            (tmp_path / side).write_text("")
        capsys.readouterr()
        code = run([
            "dump-weights", "--checkpoint", str(out / "checkpoint_final"),
            "--src", str(tmp_path / "empty.src"), "--tgt", str(tmp_path / "empty.tgt"),
            "--data-dir", str(corpus / "data"), "--out", str(tmp_path / "w.txt"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        empty = tmp_path / "empty.src"
        assert captured.err == f"error:corpus: no sentence pairs to dump weights for in {empty}\n"
        assert captured.out == ""
        assert not (tmp_path / "w.txt").exists()

    @pytest.mark.parametrize("case", ["preprocess_empty", "preprocess_empty_line",
                                      "preprocess_blank_lines", "train_empty",
                                      "train_empty_target_line"])
    def test_bad_corpus_is_corpus_error_naming_the_file(self, corpus, tmp_path, capsys, case):
        # every pair is checked before anything is written
        src, tgt, out = tmp_path / "c.src", tmp_path / "c.tgt", tmp_path / "out"
        src_text, tgt_text, message = {
            "preprocess_empty": ("", "", f"no sentence pairs to preprocess in {src}"),
            "preprocess_empty_line": ("s1 s2\n\ns3\n", "t1 t2\nt4\nt3\n",
                                      f"empty sentence at line 2 of {src}"),
            "preprocess_blank_lines": (" \n\n", "t1\nt2\n", f"empty sentence at line 1 of {src}"),
            "train_empty": ("", "", f"no sentence pairs to train on in {src}"),
            "train_empty_target_line": ("s1 s2\ns4\ns3\n", "t1 t2\n \nt3\n",
                                        f"empty sentence at line 2 of {tgt}"),
        }[case]
        src.write_text(src_text)
        tgt.write_text(tgt_text)
        command = case.split("_")[0]
        argv = [command, "--src", str(src), "--tgt", str(tgt), "--out-dir", str(out)]
        if command == "train":
            argv += ["--data-dir", str(corpus / "data"), *FAST_TRAIN]
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error:corpus: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_pair_over_the_token_budget_leaves_no_run_directory(self, corpus, tmp_path, capsys):
        src, tgt, out = tmp_path / "c.src", tmp_path / "c.tgt", tmp_path / "out"
        src.write_text("s1\ns1 s2 s3 s4\ns2\n")
        tgt.write_text("t1\nt1 t2\nt2\n")
        capsys.readouterr()
        assert run(["train", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(out),
                    "--data-dir", str(corpus / "data"), *FAST_TRAIN, "--token-budget", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error:corpus: sentence pair at line 2 has length 4, exceeding token budget 3\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, side, token", [
        ("preprocess", "tgt", "<pad>"), ("train", "src", "</s>"), ("translate", "src", "<s>"),
        ("analyze-cbmi", "tgt", "<pad>"), ("dump-weights", "src", "</s>"),
    ])
    def test_reserved_token_in_text_is_corpus_error_naming_the_line(self, corpus, tmp_path, capsys,
                                                                      command, side, token):
        src, tgt, out = tmp_path / "c.src", tmp_path / "c.tgt", tmp_path / "out"
        lines = {"src": ["s1 s2", "s3", "s4 s5"], "tgt": ["t1 t2", "t3", "t4 t5"]}
        lines[side][2] = f"{lines[side][2]} {token}"
        src.write_text("\n".join(lines["src"]) + "\n")
        tgt.write_text("\n".join(lines["tgt"]) + "\n")
        data = ["--data-dir", str(corpus / "data")]
        if command in ("preprocess", "train"):
            argv = [command, "--src", str(src), "--tgt", str(tgt), "--out-dir", str(out)]
            argv += [*data, *FAST_TRAIN] if command == "train" else []
        else:
            run_dir = tmp_path / "run"
            assert run(train_args(corpus, run_dir, "--scheme", "cbmi", "--seed", "4")) == 0
            argv = [command, "--checkpoint", str(run_dir / "checkpoint_final"), "--src", str(src),
                    *data, "--out", str(out)]
            argv += [] if command == "translate" else ["--tgt", str(tgt)]
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        path = src if side == "src" else tgt
        assert captured.err == f"error:corpus: reserved token {token!r} at line 3 of {path}\n"
        assert captured.out == "" and not out.exists()

    def test_literal_unk_in_corpus_is_unk(self, tmp_path):
        src, tgt, data = tmp_path / "c.src", tmp_path / "c.tgt", tmp_path / "data"
        src.write_text("s1 <unk> s2\n<unk> s1\ns3\n")
        tgt.write_text("t1 t2\n<unk>\nt3 t3\n")
        assert run(["preprocess", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(data),
                    "--min-count", "2"]) == 0
        assert (data / "vocab.src.txt").read_text() == (
            "<pad>\t0\n<s>\t0\n</s>\t0\n<unk>\t4\ns1\t2\n")
        assert (data / "vocab.tgt.txt").read_text() == (
            "<pad>\t0\n<s>\t0\n</s>\t0\n<unk>\t3\nt3\t2\n")
        src_vocab, tgt_vocab = Vocabulary.load(data / "vocab.src.txt"), Vocabulary.load(
            data / "vocab.tgt.txt")
        pairs = load_parallel_corpus(src, tgt, src_vocab, tgt_vocab)
        assert [(p.src, p.tgt) for p in pairs] == [
            ([4, UNK_ID, UNK_ID], [UNK_ID, UNK_ID]), ([UNK_ID, 4], [UNK_ID]), ([UNK_ID], [4, 4])]

    @pytest.mark.parametrize("command", ["translate_out", "preprocess_src"])
    def test_directory_path_is_io_error(self, corpus, tmp_path, capsys, command):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        if command == "translate_out":
            out = tmp_path / "run"
            assert run(train_args(corpus, out, "--seed", "5")) == 0
            argv = ["translate", "--checkpoint", str(out / "checkpoint_final"),
                    "--src", str(corpus / "train.src"), "--out", str(directory),
                    "--data-dir", str(corpus / "data")]
        else:
            argv = ["preprocess", "--src", str(directory), "--tgt", str(corpus / "train.tgt"),
                    "--out-dir", str(tmp_path / "data")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:io:"), err
        assert str(directory) in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("case", [
        "score_line_count", "score_hyp_not_utf8", "score_ref_not_utf8", "translate_src_not_utf8",
        "preprocess_src_not_utf8", "train_tgt_not_utf8",
    ])
    def test_unreadable_text_is_corpus_error_naming_the_file(self, corpus, tmp_path, capsys, case):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"s1 s2\ns3 \xff s4\n")
        out = tmp_path / "out.txt"
        train_src, train_tgt = str(corpus / "train.src"), str(corpus / "train.tgt")
        if case == "score_line_count":
            hyp = tmp_path / "hyp.txt"
            hyp.write_text("t1 t2\nt3\n", encoding="utf-8")
            argv = ["score", "--hyp", str(hyp), "--ref", train_tgt, "--out", str(out)]
            expected = f"error:corpus: line count mismatch: {hyp} has 2, {train_tgt} has 60\n"
        elif case.startswith("score"):
            hyp, ref = (bad, train_tgt) if case == "score_hyp_not_utf8" else (train_tgt, bad)
            argv = ["score", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out)]
        elif case == "translate_src_not_utf8":
            run_dir = tmp_path / "run"
            assert run(train_args(corpus, run_dir, "--seed", "5")) == 0
            argv = ["translate", "--checkpoint", str(run_dir / "checkpoint_final"),
                    "--src", str(bad), "--out", str(out), "--data-dir", str(corpus / "data")]
        elif case == "preprocess_src_not_utf8":
            out = tmp_path / "data"
            argv = ["preprocess", "--src", str(bad), "--tgt", train_tgt, "--out-dir", str(out)]
        else:
            out = tmp_path / "run"
            argv = ["train", "--src", train_src, "--tgt", str(bad),
                    "--data-dir", str(corpus / "data"), "--out-dir", str(out), *FAST_TRAIN]
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        err = captured.err
        assert err.count("\n") == 1 and err.startswith("error:corpus:"), err
        assert "Traceback" not in err and captured.out == ""
        if case == "score_line_count":
            assert err == expected
        else:
            assert err.startswith(f"error:corpus: {bad} is not UTF-8 text:"), err
        assert not out.exists()

    @pytest.mark.parametrize("damaged, category", [
        ("config", "config"), ("vocab.tgt.txt", "corpus"), ("bmi.tgt.txt", "corpus"),
        ("manifest.txt", "checkpoint"),
    ])
    def test_text_that_is_not_utf8_names_the_file(self, corpus, tmp_path, capsys, damaged,
                                                  category):
        data, run_dir, out = tmp_path / "data", tmp_path / "run", tmp_path / "out"
        shutil.copytree(corpus / "data", data)
        train = ["train", "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
                 "--data-dir", str(data), "--out-dir", str(out), *FAST_TRAIN]
        if damaged == "config":
            bad = tmp_path / "run.cfg"
            argv = [*train, "--config", str(bad)]
        elif damaged == "manifest.txt":
            assert run(train_args(corpus, run_dir, "--seed", "5")) == 0
            bad = run_dir / "checkpoint_final" / damaged
            argv = ["translate", "--checkpoint", str(bad.parent), "--src", str(corpus / "train.src"),
                    "--out", str(out), "--data-dir", str(data)]
        else:
            bad = data / damaged
            argv = [*train, "--scheme", "bmi"]
        bad.write_bytes((bad.read_bytes() if bad.exists() else b"seed=5\n") + b"\xff\n")
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error:{category}: {bad} is not UTF-8 text:"), captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_translate_empty_source_line_names_the_file(self, corpus, tmp_path, capsys):
        run_dir, src, out = tmp_path / "run", tmp_path / "src.txt", tmp_path / "hyp.txt"
        assert run(train_args(corpus, run_dir, "--seed", "5")) == 0
        src.write_text("s1 s2\n \ns3\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(run_dir / "checkpoint_final"), "--src", str(src),
                    "--out", str(out), "--data-dir", str(corpus / "data")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error:corpus: empty source sentence at line 2 of {src}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("out", ["a_directory", "missing/hyp.txt", "hyp.txt"])
    def test_translate_checks_out_before_decoding(self, corpus, tmp_path, capsys, monkeypatch, out):
        run_dir = tmp_path / "run"
        assert run(train_args(corpus, run_dir, "--seed", "5")) == 0
        (tmp_path / "a_directory").mkdir()

        def failing_decoder(*args, **kwargs):
            raise ValueError("decoding failed")

        monkeypatch.setattr(cli, "beam_search_many", failing_decoder)
        path = tmp_path / out
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(run_dir / "checkpoint_final"),
                    "--src", str(corpus / "train.src"), "--out", str(path),
                    "--data-dir", str(corpus / "data")]) == 1
        err = capsys.readouterr().err
        if out == "hyp.txt":
            assert err == "error:invalid: decoding failed\n"
            assert not path.exists()
        else:  # refused before the decoder was called
            assert err.count("\n") == 1 and err.startswith("error:io:"), err
            assert str(path) in err

    @pytest.mark.parametrize("command", ["analyze-cbmi", "score"])
    @pytest.mark.parametrize("out", ["a_directory", "missing/report.txt", "report.txt"])
    def test_report_commands_check_out_before_their_work(self, corpus, tmp_path, capsys,
                                                          monkeypatch, command, out):
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / out

        def failing_work(*args, **kwargs):
            raise ValueError("work failed")

        if command == "score":
            monkeypatch.setattr(cli, "bleu", failing_work)
            argv = ["score", "--hyp", str(corpus / "train.tgt"), "--ref", str(corpus / "train.tgt")]
        else:
            run_dir = tmp_path / "run"
            assert run(train_args(corpus, run_dir, "--scheme", "cbmi", "--seed", "4")) == 0
            monkeypatch.setattr(cli, "analyze_cbmi", failing_work)
            argv = ["analyze-cbmi", "--checkpoint", str(run_dir / "checkpoint_final"),
                    "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
                    "--data-dir", str(corpus / "data")]
        capsys.readouterr()
        assert run([*argv, "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if out == "report.txt":
            assert captured.err == "error:invalid: work failed\n"
            assert not path.exists()
        else:  # refused before the work was called
            assert captured.err.count("\n") == 1 and captured.err.startswith("error:io:"), captured.err
            assert str(path) in captured.err

    @pytest.mark.parametrize("earlier_dump", [False, True])
    def test_failed_dump_weights_leaves_out_as_it_was(self, corpus, tmp_path, capsys, earlier_dump):
        run_dir = tmp_path / "lmrun"
        assert run(train_args(corpus, run_dir, "--scheme", "cbmi", "--seed", "4")) == 0
        params, _, meta = M.load_checkpoint(run_dir / "checkpoint_final")
        projection = params.tensors["nmt.out.w"]
        projection.data = np.full_like(projection.data, np.nan)
        M.save_checkpoint(tmp_path / "nan", params, step=int(meta["step"]), meta=meta)
        out = tmp_path / "w.tsv"
        if earlier_dump:
            out.write_bytes(b"0\t0\t0\t4\t0.5\t1.0\t1.0\t1.0\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run(["dump-weights", "--checkpoint", str(tmp_path / "nan"),
                    "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
                    "--data-dir", str(corpus / "data"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:"), captured.err
        assert captured.out == ""
        # no new file, no staged file left behind, and an earlier dump unchanged
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert out.exists() == earlier_dump

    @pytest.mark.parametrize("earlier_out", [False, True])
    @pytest.mark.parametrize("command", ["translate", "score", "analyze-cbmi", "dump-weights"])
    def test_failed_write_leaves_out_as_it_was(self, corpus, tmp_path, capsys, monkeypatch,
                                               command, earlier_out):
        # a line UTF-8 cannot encode fails the write after it has begun
        def unencodable(lines):
            return [*lines[:-1], lines[-1] + "\udc80"]

        run_dir = tmp_path / "run"
        if command != "score":
            assert run(train_args(corpus, run_dir, "--scheme", "cbmi", "--seed", "4")) == 0
        inputs = ["--checkpoint", str(run_dir / "checkpoint_final"),
                  "--src", str(corpus / "train.src"), "--data-dir", str(corpus / "data")]
        if command == "translate":
            decode = Vocabulary.decode
            monkeypatch.setattr(Vocabulary, "decode", lambda self, ids: [*decode(self, ids), "\udc80"])
        elif command == "score":
            lines = BleuReport.lines
            monkeypatch.setattr(BleuReport, "lines", lambda self: unencodable(lines(self)))
            inputs = ["--hyp", str(corpus / "train.tgt"), "--ref", str(corpus / "train.tgt")]
        elif command == "analyze-cbmi":
            lines = CbmiAnalysis.lines
            monkeypatch.setattr(CbmiAnalysis, "lines",
                                lambda self, header: unencodable(lines(self, header)))
            inputs.extend(["--tgt", str(corpus / "train.tgt")])
        else:
            dump_lines = cli.weight_dump_lines
            monkeypatch.setattr(cli, "weight_dump_lines", lambda *a: unencodable(dump_lines(*a)))
            inputs.extend(["--tgt", str(corpus / "train.tgt")])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "out.txt"
        if earlier_out:
            out.write_bytes(b"line 1\nline 2\nline 3\n")
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        # score prints its report before it writes it; a str buffer takes any line
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([command, *inputs, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:invalid:"), err
        # no new file, no staged file left behind, and an earlier --out unchanged
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("damage", ["junk_line", "duplicate_token"])
    def test_malformed_vocabulary_is_corpus_error(self, corpus, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(corpus / "data", data)
        vocab = data / "vocab.tgt.txt"
        lines = vocab.read_text().splitlines(keepends=True)
        lines.append("junk\n" if damage == "junk_line" else lines[-1])
        vocab.write_text("".join(lines))
        out = tmp_path / "run"
        code = run([
            "train", "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(data), "--out-dir", str(out), *FAST_TRAIN,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:corpus:") and str(vocab) in err, err
        assert (f"line {len(lines)}:" if damage == "junk_line" else "duplicate token") in err
        assert not out.exists()

    def test_vocab_mismatch_detected(self, corpus, tmp_path, capsys):
        out = tmp_path / "vm"
        assert run(train_args(corpus, out, "--seed", "6")) == 0
        other_data = tmp_path / "other_data"
        other_data.mkdir()
        (tmp_path / "alt.src").write_text("zz yy\n")
        (tmp_path / "alt.tgt").write_text("qq rr\n")
        assert run(["preprocess", "--src", str(tmp_path / "alt.src"),
                    "--tgt", str(tmp_path / "alt.tgt"), "--out-dir", str(other_data)]) == 0
        code = run([
            "translate", "--checkpoint", str(out / "checkpoint_final"),
            "--src", str(corpus / "train.src"), "--out", str(tmp_path / "h.txt"),
            "--data-dir", str(other_data),
        ])
        assert code == 1
        assert "error:checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "bad_value", "bad_id", "nan", "inf", "-inf"])
    def test_bmi_table_that_does_not_fit_is_corpus_error(self, corpus, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(corpus / "data", data)
        table = data / "bmi.tgt.txt"
        lines = table.read_text().splitlines(keepends=True)
        if damage == "truncated":
            del lines[-3:]
        elif damage in ("bad_value", "bad_id"):
            lines[2] = "0\tabc\n" if damage == "bad_value" else "zz\n"
        else:
            lines[2] = f"{lines[2].split()[0]}\t{damage}\n"
        table.write_text("".join(lines))
        out = tmp_path / "run"
        code = run([
            "train", "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(data), "--out-dir", str(out), *FAST_TRAIN, "--scheme", "bmi",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:corpus:") and str(table) in err, err
        assert ("entries for a target vocabulary" if damage == "truncated" else "line 3:") in err
        if damage.endswith(("nan", "inf")):
            assert "non-finite value" in err, err
        assert not out.exists()

    def test_preprocess_bmi_table_is_the_scalar_reference(self, tmp_path):
        rng = np.random.default_rng(21)
        with open(tmp_path / "c.src", "w") as fs, open(tmp_path / "c.tgt", "w") as ft:
            for _ in range(80):
                # Zipf-like words with a long tail, so --min-count 2 makes <unk>
                fs.write(" ".join(f"s{w}" for w in rng.zipf(1.5, rng.integers(1, 30))) + "\n")
                ft.write(" ".join(f"t{w}" for w in rng.zipf(1.5, rng.integers(1, 9))) + "\n")
        data = tmp_path / "data"
        assert run(["preprocess", "--src", str(tmp_path / "c.src"), "--tgt", str(tmp_path / "c.tgt"),
                    "--out-dir", str(data), "--min-count", "2"]) == 0
        src_vocab = Vocabulary.load(data / "vocab.src.txt")
        tgt_vocab = Vocabulary.load(data / "vocab.tgt.txt")
        pairs = load_parallel_corpus(tmp_path / "c.src", tmp_path / "c.tgt", src_vocab, tgt_vocab)
        assert any(UNK_ID in p.src for p in pairs) and any(UNK_ID in p.tgt for p in pairs)
        values = scalar_bmi_values(
            pairs, FrequencyTable.from_pairs(pairs, "src", len(src_vocab)),
            FrequencyTable.from_pairs(pairs, "tgt", len(tgt_vocab)), len(tgt_vocab),
        )
        BmiTable(values).save(tmp_path / "oracle.txt")
        assert (data / "bmi.tgt.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()

    @pytest.mark.parametrize(
        "damage", ["truncated_tensors", "manifest_without_heads", "manifest_without_step",
                   "missing_index", "missing_blob", "index_not_utf8", "index_malformed_line"]
    )
    def test_damaged_checkpoint_is_checkpoint_error(self, corpus, tmp_path, capsys, damage):
        out = tmp_path / "run"
        assert run(train_args(corpus, out, "--seed", "8")) == 0
        ckpt = out / "checkpoint_final"
        if damage == "truncated_tensors":
            damaged = ckpt / "tensors.bin"
            damaged.write_bytes(damaged.read_bytes()[: damaged.stat().st_size // 2])
        elif damage.startswith("missing"):
            damaged = ckpt / ("tensors.idx" if damage == "missing_index" else "tensors.bin")
            damaged.unlink()
        elif damage.startswith("index"):
            damaged = ckpt / "tensors.idx"
            with open(damaged, "ab") as fh:
                fh.write(b"\xff\n" if damage == "index_not_utf8" else b"junk\n")
        else:
            damaged = ckpt / "manifest.txt"
            key = "config.heads=" if damage == "manifest_without_heads" else "step="
            lines = damaged.read_text().splitlines(keepends=True)
            damaged.write_text("".join(l for l in lines if not l.startswith(key)))
        capsys.readouterr()
        if damage == "manifest_without_step":
            # the step matters to a resume, which continues from it
            code = run(train_args(corpus, tmp_path / "resumed", "--seed", "8", "--resume", str(ckpt)))
        else:
            code = run([
                "translate", "--checkpoint", str(ckpt),
                "--src", str(corpus / "train.src"), "--out", str(tmp_path / "h.txt"),
                "--data-dir", str(corpus / "data"),
            ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:checkpoint:") and str(damaged) in err
        if damage.startswith("index"):
            # the index is at fault, not the blob it describes
            assert "tensors.bin" not in err, err
        if damage == "index_malformed_line":
            lines = damaged.read_text(encoding="utf-8").splitlines()
            assert f"line {len(lines)} of {damaged}" in err, err


def test_diverging_train_prints_only_its_error_line(corpus, tmp_path):
    # a fresh process, so numpy's warnings would reach stderr as in a user's run
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    args = train_args(corpus, tmp_path / "run", "--base-lr", "1e28", "--clip-norm", "0")
    done = subprocess.run([sys.executable, "-m", "cbmi_nmt", *args], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:train:"), done.stderr


def test_every_scheme_reachable_from_flags(corpus, tmp_path):
    from cbmi_nmt.weighting import SCHEME_KINDS

    for kind in SCHEME_KINDS:
        config = parse_config(None, {"scheme": kind})
        assert config.weight_scheme().kind == kind
