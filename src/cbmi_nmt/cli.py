"""Command-line surface: preprocess, train, translate, score, analyze-cbmi,
dump-weights.

Exit codes: 0 success, 1 runtime failure (one-line ``error:<category>:``
message on stderr), 2 usage errors. All randomness is controlled by
``--seed``; configuration comes from defaults, an optional profile/preset,
a flat key=value file, then flag overrides, in that precedence order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import models as M
from .corpus import (
    BmiTable,
    CorpusError,
    FrequencyTable,
    EOS_ID,
    Vocabulary,
    build_vocabularies,
    load_parallel_corpus,
    make_batches,
)
from .decoding import BeamConfig, analyze_cbmi, beam_search, bleu, write_analysis
from .models import CheckpointError, ModelConfig, lm_forward, load_checkpoint, nmt_forward
from .training import TrainConfig, Trainer, TrainingError
from .weighting import (
    BaselineConfig,
    CbmiConfig,
    SCHEME_KINDS,
    WeightScheme,
    cbmi_records_for_batch,
    gold_token_probs,
    weight_dump_lines,
)


class ConfigError(ValueError):
    pass


PROFILES = {
    "en_de": {
        "freq_exp": {"freq_t": 1.75},
        "freq_chi": {"freq_t": 2.50},
        "bmi": {"bmi_s": 0.15, "bmi_b": 0.8},
    },
    "zh_en": {
        "freq_exp": {"freq_t": 0.35},
        "freq_chi": {"freq_t": 1.75},
        "bmi": {"bmi_s": 0.1, "bmi_b": 1.0},
    },
}

# file key -> dataclass attribute (lambda is a Python keyword)
KEY_TO_ATTR = {"lambda": "lam"}
ATTR_TO_KEY = {v: k for k, v in KEY_TO_ATTR.items()}


@dataclass
class FullConfig:
    """The flat configuration namespace behind config files and flags."""

    # weighting scheme
    scheme: str = "none"
    scale_t: float = 0.1
    scale_s: float = 0.3
    use_token: bool = True
    use_sentence: bool = True
    sigma_floor: float = 1e-6
    freq_a: float = 1.0
    freq_t: float = 1.75
    bmi_s: float = 0.15
    bmi_b: float = 0.8
    alpha: float = 0.1
    gamma: float = 1.0
    lam: float = 0.1
    tau: float = 2.0
    soften_teacher_only: bool = False
    th1: float = 0.0
    th2: float = 8.0
    profile: str = "en_de"
    # model
    preset: str = "desk"
    embed_dim: int = 64
    ff_dim: int = 128
    enc_layers: int = 2
    dec_layers: int = 2
    lm_layers: int = 2
    heads: int = 4
    dropout_residual: float = 0.1
    dropout_attention: float = 0.1
    dropout_activation: float = 0.1
    share_vocab: bool = False
    max_len: int = 128
    precision: str = "fp32"
    # training
    base_lr: float = 7e-4
    warmup_steps: int = 4000
    phase1_steps: int = 1000
    phase2_steps: int = 2000
    token_budget: int = 1024
    label_smoothing: float = 0.1
    clip_norm: float = 1.0
    checkpoint_every: int = 0
    keep_checkpoints: int = 2
    reset_optimizer_phase2: bool = False
    seed: int = 1
    min_count: int = 1
    # decoding / analysis
    beam_size: int = 4
    length_penalty: float = 0.6
    max_len_ratio: float = 2.0
    bins: int = 10

    def validate(self) -> "FullConfig":
        checks = [
            (self.scheme in SCHEME_KINDS, "scheme", f"must be one of {SCHEME_KINDS}"),
            (self.scale_t >= 0, "scale_t", "must be non-negative"),
            (self.scale_s >= 0, "scale_s", "must be non-negative"),
            (self.sigma_floor > 0, "sigma_floor", "must be positive"),
            (self.tau > 0, "tau", "must be positive"),
            (self.th1 < self.th2, "th1", "must be below th2"),
            (self.profile in PROFILES, "profile", f"must be one of {tuple(PROFILES)}"),
            (self.preset in M.MODEL_PRESETS, "preset", f"must be one of {tuple(M.MODEL_PRESETS)}"),
            (0 <= self.label_smoothing < 1, "label_smoothing", "must lie in [0, 1)"),
            (self.warmup_steps >= 1, "warmup_steps", "must be at least 1"),
            (self.phase1_steps >= 0, "phase1_steps", "must be non-negative"),
            (self.phase2_steps >= 0, "phase2_steps", "must be non-negative"),
            (self.token_budget >= 1, "token_budget", "must be positive"),
            (self.seed >= 0, "seed", "must be non-negative"),
            (self.min_count >= 1, "min_count", "must be at least 1"),
            (self.beam_size >= 1, "beam_size", "must be at least 1"),
            (self.max_len >= 1, "max_len", "must be positive"),
            (self.bins >= 1, "bins", "must be positive"),
            (self.precision in ("fp32", "fp64"), "precision", "must be fp32 or fp64"),
            (self.base_lr > 0, "base_lr", "must be positive"),
        ]
        for rate_key in ("dropout_residual", "dropout_attention", "dropout_activation"):
            checks.append((0 <= getattr(self, rate_key) < 1, rate_key, "must lie in [0, 1)"))
        for ok, key, message in checks:
            if not ok:
                raise ConfigError(f"invalid value for {ATTR_TO_KEY.get(key, key)}: {message}")
        return self

    # ---- derived configs ----

    def dtype(self):
        return np.float64 if self.precision == "fp64" else np.float32

    def _matching(self, cls, **explicit):
        """An instance of ``cls`` whose fields shared with this config are
        copied by name; ``explicit`` supplies the rest."""
        shared = [f.name for f in fields(cls) if f.name in _FIELD_TYPES and f.name not in explicit]
        return cls(**{name: getattr(self, name) for name in shared}, **explicit)

    def weight_scheme(self) -> WeightScheme:
        return WeightScheme(
            kind=self.scheme,
            cbmi=self._matching(CbmiConfig),
            baseline=self._matching(BaselineConfig),
        )

    def model_config(self, vocab_size_src: int, vocab_size_tgt: int) -> ModelConfig:
        return self._matching(
            ModelConfig,
            vocab_size_src=vocab_size_src,
            vocab_size_tgt=vocab_size_tgt,
            max_len=max(self.max_len + 2, 16),
        )

    def train_config(self) -> TrainConfig:
        return self._matching(TrainConfig, scheme=self.weight_scheme())

    def beam_config(self) -> BeamConfig:
        return self._matching(BeamConfig)

    def echo_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[ATTR_TO_KEY.get(f.name, f.name)] = getattr(self, f.name)
        return out


_FIELD_TYPES: dict[str, type] = {
    f.name: {"int": int, "float": float, "bool": bool, "str": str}[f.type]
    for f in fields(FullConfig)
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {raw!r}")


def _coerce(key: str, raw: str, target_type: type):
    try:
        return _parse_bool(raw) if target_type is bool else target_type(raw)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"invalid value for {key}: {raw!r} is not a {target_type.__name__}")


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value text; blank lines and '#' comments ignored."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_config(path: str | Path | None, overrides: dict[str, object] | None = None) -> FullConfig:
    """Resolve the effective configuration: defaults, then model-preset and
    profile/scheme defaults, then the config file, then flag overrides.
    Unknown keys and invalid values are errors naming the key."""
    overrides = dict(overrides or {})
    file_values: dict[str, object] = {}
    if path is not None:
        for key, raw in read_config_file(path).items():
            attr = KEY_TO_ATTR.get(key, key)
            if attr not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            file_values[attr] = _coerce(key, raw, _FIELD_TYPES[attr])

    for attr in overrides:
        if attr not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {attr!r}")

    merged_for_selectors = {**file_values, **overrides}
    preset = str(merged_for_selectors.get("preset", "desk"))
    profile = str(merged_for_selectors.get("profile", "en_de"))
    scheme = str(merged_for_selectors.get("scheme", "none"))
    if preset not in M.MODEL_PRESETS:
        raise ConfigError(f"invalid value for preset: {preset!r}")
    if profile not in PROFILES:
        raise ConfigError(f"invalid value for profile: {profile!r}")

    values: dict[str, object] = {}
    values.update(M.MODEL_PRESETS[preset])
    values.update(PROFILES[profile].get(scheme, {}))
    values.update(file_values)
    values.update(overrides)
    try:
        config = FullConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    return config.validate()


# ---------------------------------------------------------------------------
# argument parsing


# flags are "--" plus the attribute name with dashes, except these two
_FLAG_SPELLINGS = {"lam": "--lambda", "beam_size": "--beam"}


def _config_flags() -> argparse.ArgumentParser:
    """The flags every subcommand shares, built once and passed to each
    subparser as a parent: adding every flag to each subparser made building
    the parser most of the run time of a short command such as ``score``."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("configuration (flags override --config)")
    group.add_argument("--config", type=str, default=None, help="flat key=value config file")
    for attr, kind in _FIELD_TYPES.items():
        flag = _FLAG_SPELLINGS.get(attr, "--" + attr.replace("_", "-"))
        if kind is bool:
            group.add_argument(flag, dest=attr, type=_parse_bool, default=None, metavar="BOOL")
        else:
            group.add_argument(flag, dest=attr, type=kind, default=None)
    return parser


def _effective_config(args: argparse.Namespace) -> FullConfig:
    overrides = {
        attr: getattr(args, attr) for attr in _FIELD_TYPES if getattr(args, attr) is not None
    }
    return parse_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbmi-nmt",
        description="Desk-scale NMT training with CBMI-based adaptive loss weighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = [_config_flags()]

    p = sub.add_parser(
        "preprocess", help="build vocabularies and corpus statistics", parents=config
    )
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="two-phase training with a weighting scheme", parents=config)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--data-dir", required=True, help="preprocess output directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", default=None, help="checkpoint directory to continue from")
    p.add_argument("--dump-weights", default=None, help="per-step CBMI weight dump file")

    p = sub.add_parser("translate", help="beam-search decode a source file", parents=config)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data-dir", required=True)

    p = sub.add_parser("score", help="corpus BLEU of hypotheses against references", parents=config)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", default=None, help="optional report file")

    p = sub.add_parser(
        "analyze-cbmi", help="CBMI histogram and prior-accuracy report", parents=config
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "dump-weights", help="CBMI weight table for a corpus under a checkpoint", parents=config
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations


def _load_vocabs(data_dir: Path) -> tuple[Vocabulary, Vocabulary]:
    src_path = data_dir / "vocab.src.txt"
    tgt_path = data_dir / "vocab.tgt.txt"
    if not src_path.exists() or not tgt_path.exists():
        raise CorpusError(f"missing vocabulary files under {data_dir}")
    return Vocabulary.load(src_path), Vocabulary.load(tgt_path)


def _target_frequency_table(pairs, vocab_size: int) -> FrequencyTable:
    table = FrequencyTable.from_pairs(pairs, "tgt", vocab_size)
    # the end-of-sentence marker is a real training target, once per sentence
    counts = table.counts.copy()
    counts[EOS_ID] = len(pairs)
    return FrequencyTable(counts)


def cmd_preprocess(args) -> int:
    config = _effective_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_lines = Path(args.src).read_text(encoding="utf-8").splitlines()
    tgt_lines = Path(args.tgt).read_text(encoding="utf-8").splitlines()
    src_vocab, tgt_vocab = build_vocabularies(
        src_lines, tgt_lines, min_count=config.min_count, share=config.share_vocab
    )
    src_vocab.save(out_dir / "vocab.src.txt")
    tgt_vocab.save(out_dir / "vocab.tgt.txt")
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    src_freq = FrequencyTable.from_pairs(pairs, "src", len(src_vocab))
    tgt_freq = FrequencyTable.from_pairs(pairs, "tgt", len(tgt_vocab))
    bmi = BmiTable.build(pairs, src_freq, tgt_freq, len(tgt_vocab))
    bmi.save(out_dir / "bmi.tgt.txt")
    print(
        f"preprocess: {len(pairs)} pairs, source vocab {len(src_vocab)}, "
        f"target vocab {len(tgt_vocab)} -> {out_dir}"
    )
    return 0


def cmd_train(args) -> int:
    config = _effective_config(args)
    data_dir = Path(args.data_dir)
    src_vocab, tgt_vocab = _load_vocabs(data_dir)
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    scheme = config.weight_scheme()
    bmi_table = None
    if scheme.kind == "bmi":
        bmi_path = data_dir / "bmi.tgt.txt"
        if not bmi_path.exists():
            raise CorpusError(f"bmi scheme needs {bmi_path}; run preprocess first")
        bmi_table = BmiTable.load(bmi_path)
    freq_table = _target_frequency_table(pairs, len(tgt_vocab))
    model_config = config.model_config(len(src_vocab), len(tgt_vocab))
    trainer = Trainer(
        config.train_config(),
        model_config,
        pairs,
        args.out_dir,
        dtype=config.dtype(),
        freq_table=freq_table,
        bmi_table=bmi_table,
        resume=args.resume,
        config_echo=config.echo_dict(),
        checkpoint_meta={
            "vocab_src_hash": src_vocab.content_hash(),
            "vocab_tgt_hash": tgt_vocab.content_hash(),
        },
        dump_weights_path=args.dump_weights,
    )
    final = trainer.run()
    print(f"train: finished at step {trainer.state.step}, checkpoint {final}")
    return 0


def _load_checkpoint_for(args, need_lm: bool = False):
    params, _, meta = load_checkpoint(args.checkpoint)
    src_vocab, tgt_vocab = _load_vocabs(Path(args.data_dir))
    if meta.get("vocab_src_hash") not in (None, "", src_vocab.content_hash()):
        raise CheckpointError("checkpoint was trained with a different source vocabulary")
    if meta.get("vocab_tgt_hash") not in (None, "", tgt_vocab.content_hash()):
        raise CheckpointError("checkpoint was trained with a different target vocabulary")
    if need_lm and not params.has_lm:
        raise CheckpointError("this checkpoint has no language model")
    return params, meta, src_vocab, tgt_vocab


def cmd_translate(args) -> int:
    config = _effective_config(args)
    params, _, src_vocab, tgt_vocab = _load_checkpoint_for(args)
    beam_config = config.beam_config()
    lines = Path(args.src).read_text(encoding="utf-8").splitlines()
    outputs = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise CorpusError(f"empty source sentence at line {lineno}")
        ids = src_vocab.encode(tokens)
        hyp_ids = beam_search(params, ids, beam_config)
        outputs.append(" ".join(tgt_vocab.decode(hyp_ids)))
    Path(args.out).write_text("\n".join(outputs) + ("\n" if outputs else ""), encoding="utf-8")
    print(f"translate: {len(outputs)} sentences -> {args.out}")
    return 0


def cmd_score(args) -> int:
    _effective_config(args)
    hyps = Path(args.hyp).read_text(encoding="utf-8").splitlines()
    refs = Path(args.ref).read_text(encoding="utf-8").splitlines()
    report = bleu(hyps, refs)
    for line in report.lines():
        print(line)
    if args.out:
        Path(args.out).write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
    return 0


def cmd_analyze_cbmi(args) -> int:
    config = _effective_config(args)
    params, meta, src_vocab, tgt_vocab = _load_checkpoint_for(args, need_lm=True)
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    analysis = analyze_cbmi(params, pairs, bins=config.bins)
    write_analysis(
        args.out,
        analysis,
        header={"checkpoint_hash": meta["config_hash"], "bins": str(config.bins)},
    )
    print(f"analyze-cbmi: {len(analysis.token_records)} tokens -> {args.out}")
    return 0


def cmd_dump_weights(args) -> int:
    config = _effective_config(args)
    params, _, src_vocab, tgt_vocab = _load_checkpoint_for(args, need_lm=True)
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    batches = make_batches(pairs, config.token_budget, seed=config.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        for index, batch in enumerate(batches):
            nmt_lp = nmt_forward(params, batch.src, batch.tgt_in).data
            lm_lp = lm_forward(params, batch.tgt_in).data
            records = cbmi_records_for_batch(
                gold_token_probs(nmt_lp, batch.tgt_out),
                gold_token_probs(lm_lp, batch.tgt_out),
                batch.tgt_mask,
                config.weight_scheme().cbmi,
            )
            for line in weight_dump_lines(index, records, batch.tgt_mask, batch.tgt_out):
                fh.write(line + "\n")
    print(f"dump-weights: {len(batches)} batches -> {args.out}")
    return 0


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "translate": cmd_translate,
    "score": cmd_score,
    "analyze-cbmi": cmd_analyze_cbmi,
    "dump-weights": cmd_dump_weights,
}

_ERROR_CATEGORIES = [
    (ConfigError, "config"),
    (CorpusError, "corpus"),
    (CheckpointError, "checkpoint"),
    (TrainingError, "train"),
    (FileNotFoundError, "io"),
    (ValueError, "invalid"),
]


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        for exc_type, category in _ERROR_CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return 1
        raise


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
