"""The runtime policy each command applies to its own process: glibc's
malloc thresholds and the BLAS thread count (``cbmi_nmt.runtime``)."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cbmi_nmt import models as M
from cbmi_nmt import runtime, training
from cbmi_nmt.cli import ConfigError, FullConfig, parse_config, run
from cbmi_nmt.weighting import WeightScheme

SRC = Path(runtime.__file__).resolve().parents[1]


def python(args, openblas_threads=None):
    """Run ``python <args>`` with this package on the path and
    ``OPENBLAS_NUM_THREADS`` set to ``openblas_threads`` (unset for None)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True,
                          text=True)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """200 pairs over 150 Zipf-distributed words a side, preprocessed: at
    the desk preset, large enough that OpenBLAS splits its products over a
    multi-thread pool."""
    root = tmp_path_factory.mktemp("runtime")
    rng = np.random.default_rng(4)
    lines = [rng.zipf(1.3, rng.integers(3, 13)) % 150 for _ in range(200)]
    for side, prefix in (("src", "s"), ("tgt", "t")):
        (root / f"train.{side}").write_text(
            "".join(" ".join(f"{prefix}{w}" for w in words) + "\n" for words in lines))
    assert run(["preprocess", "--src", str(root / "train.src"), "--tgt", str(root / "train.tgt"),
                "--out-dir", str(root / "data")]) == 0
    return root


def train_args(corpus, out, *extra):
    return ["train", "--src", str(corpus / "train.src"), "--tgt", str(corpus / "train.tgt"),
            "--data-dir", str(corpus / "data"), "--out-dir", str(out), "--scheme", "cbmi",
            "--phase1-steps", "1", "--phase2-steps", "2", "--token-budget", "512", *extra]


def echo(out_dir):
    return json.loads((out_dir / "metrics.jsonl").read_text().splitlines()[0])


def test_same_bytes_whatever_openblas_num_threads_says(corpus, tmp_path):
    # with the default pool, OpenBLAS splits these products' sums over its
    # threads on a multi-core host, which moves the trained weights' bits
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = tmp_path / f"openblas{threads}"
        python(["-m", "cbmi_nmt", *train_args(corpus, runs[threads])], openblas_threads=threads)
    for name in ("metrics.jsonl", "checkpoint_final/tensors.bin"):
        assert filecmp.cmp(runs["1"] / name, runs["2"] / name, shallow=False), name
    if runtime.blas_threads() is not None:
        assert echo(runs["2"])["runtime.blas_threads"] == "1"


def test_blas_threads_key_sets_the_count(corpus, tmp_path):
    if runtime.blas_threads() is None:
        pytest.skip("numpy's BLAS thread count cannot be read here")
    out = tmp_path / "two"
    python(["-m", "cbmi_nmt", *train_args(corpus, out, "--phase2-steps", "0",
                                          "--blas-threads", "2")], openblas_threads="1")
    assert echo(out)["blas_threads"] == 2
    assert echo(out)["runtime.blas_threads"] == "2"


def test_full_size_presets_take_two_blas_threads():
    assert parse_config(None).blas_threads == 1
    assert parse_config(None, {"preset": "base"}).blas_threads == 2
    assert parse_config(None, {"preset": "big"}).blas_threads == 2
    assert parse_config(None, {"preset": "base", "blas_threads": 1}).blas_threads == 1


def test_blas_threads_must_be_positive():
    with pytest.raises(ConfigError, match="invalid value for blas_threads: must be positive"):
        parse_config(None, {"blas_threads": 0})


FAULTS = """
import contextlib, io, resource, sys
from cbmi_nmt.cli import run

def faults(argv):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(*[faults(sys.argv[1:]) for _ in range(3)])
"""


def test_later_calls_fault_few_pages(corpus, tmp_path):
    # glibc's default thresholds hand a call's freed heap and mmap pages
    # back to the kernel, so each later call faulted 300-1200 of them in
    # again here
    if runtime.malloc_policy() == runtime.UNKNOWN:
        pytest.skip("glibc's mallopt is not found")
    assert run(train_args(corpus, tmp_path / "run", "--phase2-steps", "0")) == 0
    args = ["dump-weights", "--checkpoint", tmp_path / "run" / "checkpoint_final",
            "--src", corpus / "train.src", "--tgt", corpus / "train.tgt",
            "--data-dir", corpus / "data", "--out", tmp_path / "weights.tsv"]
    # a fresh process: training here would have raised glibc's dynamic
    # mmap threshold already
    done = python(["-c", FAULTS, *map(str, args)])
    first, *later = map(int, done.stdout.split())
    assert max(later) <= 64, (first, later)


@pytest.mark.parametrize("libc", [
    SimpleNamespace(),                                   # no mallopt (macOS)
    SimpleNamespace(mallopt=lambda param, value: 0),    # musl's stub, which refuses
])
def test_missing_mallopt_records_unknown(monkeypatch, libc):
    monkeypatch.setattr(runtime.ctypes, "CDLL", lambda name: libc)
    assert runtime.malloc_policy.__wrapped__() == runtime.UNKNOWN


def test_missing_openblas_records_unknown(monkeypatch, tmp_path):
    # a numpy without the bundled library: the lookup finds nothing
    monkeypatch.setattr(runtime, "np", SimpleNamespace(__file__=str(tmp_path / "numpy" / "x.py")))
    assert runtime._openblas.__wrapped__() is None
    monkeypatch.setattr(runtime, "_openblas", lambda: None)
    runtime.set_blas_threads(3)
    assert runtime.blas_threads() is None
    assert runtime.settings()["runtime.blas_threads"] == runtime.UNKNOWN
    cfg = training.TrainConfig(scheme=WeightScheme("cbmi"), token_budget=1024)
    assert not training._overlap_lm(cfg, M.ModelConfig(10, 10, embed_dim=64))


def test_runs_record_the_settings(corpus, tmp_path):
    out = tmp_path / "run"
    assert run(train_args(corpus, out, "--phase2-steps", "1", "--checkpoint-every", "1")) == 0
    settings = runtime.settings()
    assert settings["runtime.malloc"] in (runtime.UNKNOWN, "mmap=33554432,trim=1073741824")
    assert {k: echo(out)[k] for k in settings} == settings
    _, _, meta = M.load_checkpoint(out / "checkpoint_final")
    assert {k: meta[k] for k in settings} == settings
    assert echo(out)["blas_threads"] == FullConfig.blas_threads

    # a manifest without the settings still loads, and one with other
    # settings still resumes
    manifest = out / "checkpoint_step1" / "manifest.txt"
    kept = [line for line in manifest.read_text().splitlines() if not line.startswith("runtime.")]
    manifest.write_text("".join(line + "\n" for line in kept))
    assert "runtime.malloc" not in M.load_checkpoint(out / "checkpoint_step1")[2]
    manifest.write_text("".join(line + "\n" for line in sorted(kept + ["runtime.blas_threads=7"])))
    resumed = tmp_path / "resumed"
    assert run(train_args(corpus, resumed, "--phase2-steps", "1",
                          "--resume", str(out / "checkpoint_step1"))) == 0
    assert ((resumed / "checkpoint_final" / "tensors.bin").read_bytes()
            == (out / "checkpoint_final" / "tensors.bin").read_bytes())
