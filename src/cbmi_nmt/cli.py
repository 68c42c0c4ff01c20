"""Command-line surface: preprocess, train, translate, score, analyze-cbmi,
dump-weights.

Exit codes: 0 success, 1 runtime failure (one-line ``error:<category>:``
message on stderr), 2 usage errors. All randomness is controlled by
``--seed``; configuration comes from defaults, an optional profile/preset,
a flat key=value file, then flag overrides, in that precedence order.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import sys
from dataclasses import dataclass, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from . import models as M
from . import runtime
from .corpus import (
    BmiTable,
    CorpusError,
    FrequencyTable,
    Vocabulary,
    build_vocabularies,
    check_no_reserved,
    load_parallel_corpus,
    make_batches,
    read_aligned_lines,
    read_lines,
    read_parallel_tokens,
    read_tokens,
    split_lines,
)
from .decoding import BeamConfig, DecodeStats, analyze_cbmi, beam_search_many, bleu
from .models import CheckpointError, ModelConfig, lm_forward, load_checkpoint, nmt_forward
from .training import TrainConfig, Trainer, TrainingError
from .weighting import (
    BaselineConfig,
    CbmiConfig,
    SCHEME_KINDS,
    WeightScheme,
    cbmi_schedule,
    gold_token_probs,
    id_weight_table,
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

# The BLAS thread count of the full-size presets. The desk preset keeps the
# default of one: at width 64 a `none` step ran as fast on one thread as on
# the pool (40.7 against 40.6 ms), and the LM pass of an LM scheme gets the
# second core. On a 2-vCPU host a `none` step at a 1024-token budget took
# 2.2 s on two threads against 3.1 s on one at the base preset (a `cbmi`
# step broke even), and 4.0 against 5.5 s at the big preset (512 tokens).
PRESET_BLAS_THREADS = {"base": 2, "big": 2}

# file key -> dataclass attribute (lambda is a Python keyword)
KEY_TO_ATTR = {"lambda": "lam"}
ATTR_TO_KEY = {v: k for k, v in KEY_TO_ATTR.items()}

# each component config with the fields the program sets itself rather than a key
_COMPONENTS = [
    (CbmiConfig, ()),
    (BaselineConfig, ()),
    (ModelConfig, ("vocab_size_src", "vocab_size_tgt")),
    (TrainConfig, ("scheme",)),
    (BeamConfig, ()),
]
# the fields of each component that are keys
_KEYS_OF = {
    cls: tuple(f.name for f in fields(cls) if f.name not in set_by_program)
    for cls, set_by_program in _COMPONENTS
}


@dataclass
class _FullConfigBase:
    """The flat configuration namespace behind config files and flags: the
    keys of the command line itself, and the methods of ``FullConfig``, which
    adds every component field with its component's type and default."""

    scheme: str = "none"
    profile: str = "en_de"
    preset: str = "desk"
    max_len: int = 128
    precision: str = "fp32"
    min_count: int = 1
    share_vocab: bool = False
    bins: int = 10
    blas_threads: int = 1

    # (train, beam, model) configs built by ``validate``; not a field
    _components = None

    def validate(self) -> "FullConfig":
        """Check the own keys here and every component field by building the
        components, whose ``__post_init__`` holds its range checks. The
        components are kept: the accessors below return them, so a config
        is not to be changed once validated."""
        for f in fields(self):  # a NaN would pass or misreport the range checks
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"invalid value for {ATTR_TO_KEY.get(f.name, f.name)}: "
                                  "must not be NaN")
        checks = [
            (self.scheme in SCHEME_KINDS, "scheme", f"must be one of {SCHEME_KINDS}"),
            (self.profile in PROFILES, "profile", f"must be one of {tuple(PROFILES)}"),
            (self.preset in M.MODEL_PRESETS, "preset", f"must be one of {tuple(M.MODEL_PRESETS)}"),
            (self.max_len >= 1, "max_len", "must be positive"),
            (self.precision in ("fp32", "fp64"), "precision", "must be fp32 or fp64"),
            (self.min_count >= 1, "min_count", "must be at least 1"),
            (self.bins >= 1, "bins", "must be positive"),
            (self.blas_threads >= 1, "blas_threads", "must be positive"),
        ]
        for ok, key, message in checks:
            if not ok:
                raise ConfigError(f"invalid value for {key}: {message}")
        try:
            scheme = WeightScheme(kind=self.scheme, cbmi=self._matching(CbmiConfig),
                                  baseline=self._matching(BaselineConfig))
            self._components = (
                self._matching(TrainConfig, scheme=scheme),
                self._matching(BeamConfig),
                self._matching(ModelConfig, vocab_size_src=1, vocab_size_tgt=1),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    # ---- derived configs ----

    def dtype(self):
        return np.float64 if self.precision == "fp64" else np.float32

    def _matching(self, cls, **explicit):
        """An instance of the component ``cls`` whose key fields are copied
        from this config by name; ``explicit`` supplies those the program
        sets."""
        return cls(**{name: getattr(self, name) for name in _KEYS_OF[cls]}, **explicit)

    def _kept(self) -> tuple[TrainConfig, BeamConfig, ModelConfig]:
        if self._components is None:
            self.validate()
        return self._components

    def weight_scheme(self) -> WeightScheme:
        return self._kept()[0].scheme

    def model_config(self, vocab_size_src: int, vocab_size_tgt: int) -> ModelConfig:
        return replace(self._kept()[2], vocab_size_src=vocab_size_src,
                       vocab_size_tgt=vocab_size_tgt)

    def train_config(self) -> TrainConfig:
        return self._kept()[0]

    def beam_config(self) -> BeamConfig:
        return self._kept()[1]

    def echo_dict(self) -> dict:
        return {ATTR_TO_KEY.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}


FullConfig = make_dataclass(
    "FullConfig",
    [
        (f.name, f.type, f.default)
        for cls, _ in _COMPONENTS
        for f in fields(cls)
        if f.name in _KEYS_OF[cls]
    ],
    bases=(_FullConfigBase,),
    namespace={"__module__": __name__},
)

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
    for lineno, line in enumerate(read_lines(path, ConfigError), start=1):
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
            if key.startswith("runtime."):  # how an echoed run ran, recorded beside its keys
                continue
            attr = KEY_TO_ATTR.get(key, key)
            if attr not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            file_values[attr] = _coerce(key, raw, _FIELD_TYPES[attr])

    for attr in overrides:
        if attr not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {attr!r}")

    merged_for_selectors = {**file_values, **overrides}
    preset = str(merged_for_selectors.get("preset", FullConfig.preset))
    profile = str(merged_for_selectors.get("profile", FullConfig.profile))
    scheme = str(merged_for_selectors.get("scheme", FullConfig.scheme))
    if preset not in M.MODEL_PRESETS:
        raise ConfigError(f"invalid value for preset: {preset!r}")
    if profile not in PROFILES:
        raise ConfigError(f"invalid value for profile: {profile!r}")

    values: dict[str, object] = {}
    values.update(M.MODEL_PRESETS[preset])
    if preset in PRESET_BLAS_THREADS:
        values["blas_threads"] = PRESET_BLAS_THREADS[preset]
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


# flags are "--" plus the file key with dashes, except this one
_FLAG_SPELLINGS = {"beam_size": "--beam"}


def _config_flags() -> argparse.ArgumentParser:
    """The flags every subcommand shares, built once and passed to each
    subparser as a parent: adding every flag to each subparser made building
    the parser most of the run time of a short command such as ``score``."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("configuration (flags override --config)")
    group.add_argument("--config", type=str, default=None, help="flat key=value config file")
    for attr, kind in _FIELD_TYPES.items():
        flag = _FLAG_SPELLINGS.get(attr, "--" + ATTR_TO_KEY.get(attr, attr).replace("_", "-"))
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


def _vocab_hashes(src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> dict[str, str]:
    return {"vocab_src_hash": src_vocab.content_hash(), "vocab_tgt_hash": tgt_vocab.content_hash()}


def cmd_preprocess(args, config: FullConfig) -> int:
    # every pair is checked before anything is written
    (src_tokens, src_len), (tgt_tokens, tgt_len) = read_parallel_tokens(
        args.src, args.tgt, config.max_len
    )
    if not src_len.size:
        raise CorpusError(f"no sentence pairs to preprocess in {args.src}")
    src_vocab, tgt_vocab = build_vocabularies(
        src_tokens, tgt_tokens, min_count=config.min_count, share=config.share_vocab
    )
    src_ids, tgt_ids = src_vocab.encode_array(src_tokens), tgt_vocab.encode_array(tgt_tokens)
    del src_tokens, tgt_tokens
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_vocab.save(out_dir / "vocab.src.txt")
    tgt_vocab.save(out_dir / "vocab.tgt.txt")
    src_freq = FrequencyTable.from_ids(src_ids, len(src_vocab))
    tgt_freq = FrequencyTable.from_ids(tgt_ids, len(tgt_vocab))
    bmi = BmiTable.build((src_ids, src_len), (tgt_ids, tgt_len), src_freq, tgt_freq, len(tgt_vocab))
    bmi.save(out_dir / "bmi.tgt.txt")
    print(
        f"preprocess: {src_len.size} pairs, source vocab {len(src_vocab)}, "
        f"target vocab {len(tgt_vocab)} -> {out_dir}"
    )
    return 0


def cmd_train(args, config: FullConfig) -> int:
    data_dir = Path(args.data_dir)
    src_vocab, tgt_vocab = _load_vocabs(data_dir)
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    if not pairs:
        raise CorpusError(f"no sentence pairs to train on in {args.src}")
    scheme = config.weight_scheme()
    bmi_values = None
    if scheme.kind == "bmi":
        bmi_path = data_dir / "bmi.tgt.txt"
        if not bmi_path.exists():
            raise CorpusError(f"bmi scheme needs {bmi_path}; run preprocess first")
        bmi_values = BmiTable.load(bmi_path).values
        if len(bmi_values) != len(tgt_vocab):
            raise CorpusError(
                f"bmi table {bmi_path} has {len(bmi_values)} entries for a target "
                f"vocabulary of {len(tgt_vocab)}; run preprocess again"
            )
    model_config = config.model_config(len(src_vocab), len(tgt_vocab))
    settings = runtime.settings()
    trainer = Trainer(
        config.train_config(),
        model_config,
        pairs,
        args.out_dir,
        dtype=config.dtype(),
        id_weights=id_weight_table(scheme, pairs, len(tgt_vocab), bmi_values),
        resume=args.resume,
        config_echo={**config.echo_dict(), **settings},
        checkpoint_meta={**_vocab_hashes(src_vocab, tgt_vocab), **settings},
        dump_weights_path=args.dump_weights,
    )
    final = trainer.run()
    print(f"train: finished at step {trainer.state.step}, checkpoint {final}")
    return 0


def _load_checkpoint_for(args, need_lm: bool = False):
    params, _, meta = load_checkpoint(args.checkpoint)
    src_vocab, tgt_vocab = _load_vocabs(Path(args.data_dir))
    M.check_compatible(params, meta, _vocab_hashes(src_vocab, tgt_vocab), need_lm)
    return params, meta, src_vocab, tgt_vocab


def _check_output_path(path: Path) -> None:
    """Raise the error that writing ``path`` would raise if it is a
    directory or its parent directory is missing, without creating it."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file for the new content of ``path``: a temporary file beside
    it that replaces ``path`` only if the block ends without an error, and
    is removed if it does not, so a failed run leaves ``path`` as it was."""
    staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(staged, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(staged, path)
    finally:
        staged.unlink(missing_ok=True)


def cmd_translate(args, config: FullConfig) -> int:
    # decoding is the slow part, so a path it cannot write fails before it
    _check_output_path(Path(args.out))
    params, _, src_vocab, tgt_vocab = _load_checkpoint_for(args)
    beam_config = config.beam_config()
    tokens, lengths = read_tokens(args.src)
    if not lengths.all():
        raise CorpusError(
            f"empty source sentence at line {int(lengths.argmin()) + 1} of {args.src}"
        )
    check_no_reserved(tokens, lengths, args.src)
    sources = split_lines(src_vocab.encode(tokens), lengths)
    stats = DecodeStats()
    outputs = [" ".join(tgt_vocab.decode(hyp_ids))
               for hyp_ids in beam_search_many(params, sources, beam_config, stats)]
    with _replacing(Path(args.out)) as fh:
        fh.write("\n".join(outputs) + ("\n" if outputs else ""))
    print(f"translate: {len(outputs)} sentences -> {args.out}; {stats.summary()}")
    return 0


def cmd_score(args, config: FullConfig) -> int:
    if args.out:
        _check_output_path(Path(args.out))
    hyps, refs = read_aligned_lines(args.hyp, args.ref)
    report = bleu(hyps, refs)
    for line in report.lines():
        print(line)
    if args.out:
        with _replacing(Path(args.out)) as fh:
            fh.write("\n".join(report.lines()) + "\n")
    return 0


def cmd_analyze_cbmi(args, config: FullConfig) -> int:
    _check_output_path(Path(args.out))
    params, meta, src_vocab, tgt_vocab = _load_checkpoint_for(args, need_lm=True)
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    if not pairs:
        raise CorpusError(f"no sentence pairs to analyze in {args.src}")
    analysis = analyze_cbmi(params, pairs, bins=config.bins)
    header = {"checkpoint_hash": meta["config_hash"], "bins": str(config.bins)}
    with _replacing(Path(args.out)) as fh:
        fh.write("\n".join(analysis.lines(header)) + "\n")
    print(f"analyze-cbmi: {len(analysis.token_records)} tokens -> {args.out}")
    return 0


def cmd_dump_weights(args, config: FullConfig) -> int:
    _check_output_path(Path(args.out))
    params, _, src_vocab, tgt_vocab = _load_checkpoint_for(args, need_lm=True)
    pairs = load_parallel_corpus(args.src, args.tgt, src_vocab, tgt_vocab, config.max_len)
    if not pairs:
        raise CorpusError(f"no sentence pairs to dump weights for in {args.src}")
    batches = make_batches(pairs, config.token_budget, seed=config.seed)
    cbmi_config = config.weight_scheme().cbmi
    with _replacing(Path(args.out)) as fh:
        for index, batch in enumerate(batches):
            # only the live positions are projected, one model's rows at a time
            mask = batch.tgt_mask
            gold = batch.tgt_out[mask]
            p_nmt = gold_token_probs(nmt_forward(params, batch.src, batch.tgt_in, rows=mask).data, gold)
            p_lm = gold_token_probs(lm_forward(params, batch.tgt_in, rows=mask).data, gold)
            schedule = cbmi_schedule(p_nmt, p_lm, mask, cbmi_config)
            for line in weight_dump_lines(index, schedule, batch.tgt_mask, batch.tgt_out):
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
    (OSError, "io"),
    (ValueError, "invalid"),
]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``run``, built once per process."""
    return build_parser()


def run(argv: list[str]) -> int:
    """Apply the process's runtime policy, parse and dispatch; returns the
    process exit code."""
    runtime.malloc_policy()
    args = _parser().parse_args(argv)
    try:
        config = _effective_config(args)
        runtime.set_blas_threads(config.blas_threads)
        return _COMMANDS[args.command](args, config)
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
