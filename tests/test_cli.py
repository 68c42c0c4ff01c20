import json
from dataclasses import fields

import numpy as np
import pytest

from cbmi_nmt import cli
from cbmi_nmt import models as M
from cbmi_nmt.cli import ConfigError, FullConfig, parse_config, run


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


_STR_VALUES = {"scheme": "cbmi", "profile": "zh_en", "preset": "base", "precision": "fp64"}


def _non_default(attr: str):
    """A valid value for ``attr`` that differs from its default."""
    default = getattr(FullConfig(), attr)
    if attr in _STR_VALUES:
        return _STR_VALUES[attr]
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
        code = run(train_args(corpus, tmp_path / "o", "--scale-t", "-1"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:config:")

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

    def test_translate_and_score_deterministic(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(corpus, out, "--seed", "5")) == 0
        hyp1, hyp2 = tmp_path / "h1.txt", tmp_path / "h2.txt"
        for hyp in (hyp1, hyp2):
            assert run([
                "translate", "--checkpoint", str(out / "checkpoint_final"),
                "--src", str(corpus / "train.src"), "--out", str(hyp),
                "--data-dir", str(corpus / "data"), "--beam", "2",
            ]) == 0
        assert hyp1.read_bytes() == hyp2.read_bytes()
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


def test_every_scheme_reachable_from_flags(corpus, tmp_path):
    from cbmi_nmt.weighting import SCHEME_KINDS

    for kind in SCHEME_KINDS:
        config = parse_config(None, {"scheme": kind})
        assert config.weight_scheme().kind == kind
