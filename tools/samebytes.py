"""Check that the working tree gives the same output bytes as a git revision.

    python tools/samebytes.py <rev>

The committed tree of ``<rev>`` is extracted (``git archive``) into a
temporary directory. One fixed pipeline then runs against its ``src`` and
against the working tree's ``src``, once with ``OPENBLAS_NUM_THREADS=1``
and once with the variable unset. Since the program sets its own BLAS
thread count (the ``blas_threads`` key, one thread here), the unset run
checks that the variable leaves the bytes alone; against a revision older
than that, it checks what moved from the bytes of OpenBLAS's default pool,
which such a revision ran on (serially on a 2-core host). In both runs the
LM pass of an LM scheme runs on its own thread where a core is spare. Both
sides read the same generated corpus. Every output file is compared with ``cmp``; the script
prints which files match and which differ, and exits 0 only if every file
matches. Under each differing file it prints how the two sides differ: the
numbered lines only one side holds for a text file (the first
``SHOWN_LINES``), the first differing byte offset for a binary one.

The pipeline: ``preprocess --min-count 2``, so both sides hold ``<unk>``,
and once more with ``--share-vocab true`` into its own directory, so one
vocabulary counts both sides; the training and held-out files end in pairs
of tabs, runs of spaces, leading and trailing blanks, no-break spaces and a
literal ``<unk>`` (``MESSY_PAIRS``); ``train`` of every scheme in fp32 and in
fp64 (the desk preset at a 512-token budget, which the LM pass overlaps
at), checkpointing at step 2 of 4, then a copy of the run resumed from
that checkpoint in its own directory (``prior_select`` with thresholds
that reach all three of its regimes, ``cbmi`` with a weight dump, and
``lm_prior`` once more with ``--soften-teacher-only true``);
``translate`` at beams 1, 2 and 4 of a 153-sentence file (three decode
groups; after so few steps every sentence is force-finished), ``score``,
``analyze-cbmi`` and ``dump-weights`` on the ``cbmi`` checkpoint of each
precision, with ``dump-weights`` once more for each of ``DUMP_ABLATIONS``
(no token weight, no sentence weight, other scales). Last, a 20-step
``none`` run without dropout on an easy word-for-word task, whose
``translate`` at beams 1 and 4 ends sentences before their length limit:
the pipeline stops with an error if a beam force-finishes every hypothesis
(the ``translate:`` line's ``force_finished`` counts them). Then ``score``
of a small written hypothesis and reference file that hold BLEU's edge
cases: empty lines on either side, one-token lines, clipped repeats, a pair
with no 4-gram match and a pair that matches whole.
``timing.log`` holds wall-clock times and is not compared.
"""

from __future__ import annotations

import argparse
import difflib
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent
BLAS_SETTINGS = {"blas1": "1", "blas_default": None}
NOT_COMPARED = {"timing.log"}
SHOWN_LINES = 8
# (file suffix, flags) of the extra ``dump-weights`` runs: the CBMI
# schedule's ablation switches and non-default scales
DUMP_ABLATIONS = [
    ("no_token", ["--use-token", "false"]),
    ("no_sentence", ["--use-sentence", "false"]),
    ("scaled", ["--scale-t", "0.5", "--scale-s", "0.7"]),
]


EASY_TEST_LINES = 60
# (hypothesis, reference) lines for the BLEU edge-case score
BLEU_EDGE_LINES = [
    ("", "t1 t2"),
    ("t1", "t1"),
    ("t2 t2 t2 t2 t2", "t2 t2 t3"),
    ("t4 t5 t6 t7 t8", "t4 t5 t6 t8 t7"),
    ("t9 t10 t11 t12", "t9 t10 t11 t12"),
    ("t3 t1", ""),
]


# training pairs whose words are not parted by single spaces: tabs, runs of
# spaces, leading and trailing blanks, a no-break and an ideographic space,
# and a literal <unk>, so that the tokenizer's whitespace rules are compared
MESSY_PAIRS = [
    ("s1\ts2  s3 ", "t1  t2\tt3 "),
    (" s4\u00a0s5 <unk>", "t4 <unk>\u00a0t5  "),
    ("s6   s7\t\ts1\u3000s2\t", "\tt6 t7 t1\u3000t2"),
]


def write_corpus(out: Path, seed: int = 5) -> None:
    """A 300-pair substitution corpus (Zipf-like words, 200 a side, lengths
    3-12, one word in ten replaced at random) and a 150-line held-out set,
    each followed by ``MESSY_PAIRS``;
    under ``easy/``, a 400-pair word-for-word substitution (12 words a side,
    lengths 2-5) and a held-out set of ``EASY_TEST_LINES``; and
    ``bleu_edge.hyp``/``.ref``, the lines of ``BLEU_EDGE_LINES``."""
    rng = np.random.default_rng(seed)
    (out / "easy").mkdir(parents=True)

    def pairs(n: int) -> tuple[list[str], list[str]]:
        src, tgt = [], []
        for _ in range(n):
            words = rng.zipf(1.3, rng.integers(3, 13)) % 200
            noisy = np.where(rng.random(words.size) < 0.1, rng.integers(0, 200, words.size), words)
            src.append(" ".join(f"s{w}" for w in words))
            tgt.append(" ".join(f"t{w}" for w in noisy))
        return src, tgt

    def easy_pairs(n: int) -> tuple[list[str], list[str]]:
        words = [rng.integers(0, 12, rng.integers(2, 6)) for _ in range(n)]
        return ([" ".join(f"s{w}" for w in line) for line in words],
                [" ".join(f"t{w}" for w in line) for line in words])

    train, test = pairs(300), pairs(150)
    for src, tgt in (train, test):
        src += [src_line for src_line, _ in MESSY_PAIRS]
        tgt += [tgt_line for _, tgt_line in MESSY_PAIRS]
    for name, (src, tgt) in (("train", train), ("test", test),
                             ("easy/train", easy_pairs(400)),
                             ("easy/test", easy_pairs(EASY_TEST_LINES))):
        (out / f"{name}.src").write_text("\n".join(src) + "\n", encoding="utf-8")
        (out / f"{name}.tgt").write_text("\n".join(tgt) + "\n", encoding="utf-8")
    for side, lines in zip(("hyp", "ref"), zip(*BLEU_EDGE_LINES)):
        (out / f"bleu_edge.{side}").write_text("\n".join(lines) + "\n", encoding="utf-8")


def pipeline(corpus: str, out: str) -> None:
    """Run the fixed command sequence with the ``cbmi_nmt`` on the path,
    writing every output under ``out`` and each command's stdout, with
    ``out`` written as ``<out>``, to ``out/stdout.txt``."""
    import contextlib
    import io

    from cbmi_nmt.cli import run
    from cbmi_nmt.weighting import SCHEME_KINDS

    c, o = Path(corpus), Path(out)
    data = o / "data"
    log = io.StringIO()

    def cli(*args: str) -> str:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = run([str(a) for a in args])
        log.write(printed.getvalue())
        if code != 0:
            raise SystemExit(f"{' '.join(map(str, args))} exited {code}")
        return printed.getvalue()

    cli("preprocess", "--src", c / "train.src", "--tgt", c / "train.tgt", "--out-dir", data,
        "--min-count", "2")
    cli("preprocess", "--src", c / "train.src", "--tgt", c / "train.tgt",
        "--out-dir", o / "shared_data", "--min-count", "2", "--share-vocab", "true")
    common = ["--src", c / "train.src", "--tgt", c / "train.tgt", "--data-dir", data,
              "--token-budget", "512", "--phase1-steps", "1", "--phase2-steps", "3",
              "--checkpoint-every", "2", "--seed", "3"]
    # (run name, scheme, extra flags): every scheme, plus lm_prior with a
    # student that is not divided by its temperature
    runs = [(scheme, scheme, []) for scheme in SCHEME_KINDS]
    runs.append(("lm_prior_teacher_only", "lm_prior", ["--soften-teacher-only", "true"]))
    for precision in ("fp32", "fp64"):
        for name, scheme, more in runs:
            full, resumed = o / f"{name}_{precision}", o / f"{name}_{precision}_resumed"
            args = [*common, "--scheme", scheme, "--precision", precision, *more]
            if scheme == "prior_select":
                args += ["--th1", "-0.5", "--th2", "0.5"]

            def train(out: Path, *more) -> None:
                dump = ["--dump-weights", out / "weights.tsv"] if scheme == "cbmi" else []
                cli("train", *args, *dump, *more, "--out-dir", out)

            train(full)
            shutil.copytree(full, resumed)
            train(resumed, "--resume", resumed / "checkpoint_step2")
        ckpt = o / f"cbmi_{precision}" / "checkpoint_final"
        ev = o / f"eval_{precision}"
        ev.mkdir()
        test = ["--src", c / "test.src", "--data-dir", data, "--checkpoint", ckpt]
        for beam in ("1", "2", "4"):
            hyp = ev / f"hyp_beam{beam}.txt"
            cli("translate", *test, "--beam", beam, "--out", hyp)
            cli("score", "--hyp", hyp, "--ref", c / "test.tgt", "--out", ev / f"bleu_beam{beam}.txt")
        cli("analyze-cbmi", *test, "--tgt", c / "test.tgt", "--out", ev / "analysis.txt")
        cli("dump-weights", *test, "--tgt", c / "test.tgt", "--out", ev / "weights.tsv")
        for suffix, flags in DUMP_ABLATIONS:
            cli("dump-weights", *test, "--tgt", c / "test.tgt", *flags,
                "--out", ev / f"weights_{suffix}.tsv")
    easy, easy_data, easy_run = c / "easy", o / "easy_data", o / "easy_none"
    cli("preprocess", "--src", easy / "train.src", "--tgt", easy / "train.tgt",
        "--out-dir", easy_data)
    cli("train", "--src", easy / "train.src", "--tgt", easy / "train.tgt", "--data-dir", easy_data,
        "--scheme", "none", "--dropout-residual", "0", "--dropout-attention", "0",
        "--dropout-activation", "0", "--base-lr", "0.05", "--warmup-steps", "10",
        "--phase1-steps", "0", "--phase2-steps", "20", "--token-budget", "256", "--seed", "3",
        "--out-dir", easy_run)
    for beam in ("1", "4"):
        printed = cli("translate", "--src", easy / "test.src", "--data-dir", easy_data,
                      "--checkpoint", easy_run / "checkpoint_final", "--beam", beam,
                      "--out", easy_run / f"hyp_beam{beam}.txt")
        # a beam of width w force-finishes at most w hypotheses a sentence
        hypotheses = int(beam) * EASY_TEST_LINES
        if int(printed.rsplit("force_finished=", 1)[1]) >= hypotheses:
            raise SystemExit(f"easy task, beam {beam}: all {hypotheses} hypotheses "
                             "force-finished; none ends before its length limit")
    cli("score", "--hyp", c / "bleu_edge.hyp", "--ref", c / "bleu_edge.ref",
        "--out", o / "bleu_edge.txt")
    (o / "stdout.txt").write_text(log.getvalue().replace(str(o), "<out>"), encoding="utf-8")


def run_pipeline(src: Path, corpus: Path, out: Path, threads: str | None) -> float:
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TOOLS}")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = "import sys, samebytes; samebytes.pipeline(sys.argv[1], sys.argv[2])"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(corpus), str(out)], env=env, check=True,
                   cwd=out.parent)
    return time.perf_counter() - start


def compare(a: Path, b: Path) -> tuple[list[str], list[str]]:
    """Relative paths of the files under ``a`` and ``b`` that match and that
    differ (or exist on one side only)."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    same, differ = [], []
    for rel in sorted(f for f in files if f.name not in NOT_COMPARED):
        pa, pb = a / rel, b / rel
        match = pa.is_file() and pb.is_file() and filecmp.cmp(pa, pb, shallow=False)
        (same if match else differ).append(str(rel))
    return same, differ


def differences(a: Path, b: Path) -> list[str]:
    """How file ``a`` (the revision's) and file ``b`` (the working tree's)
    differ, one line each, for printing under a ``DIFFERS`` line."""
    if not (a.is_file() and b.is_file()):
        return [f"only in {'rev' if a.is_file() else 'work'}"]
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    try:
        lines_a, lines_b = raw_a.decode("utf-8").splitlines(), raw_b.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        offset = next((i for i, (x, y) in enumerate(zip(raw_a, raw_b)) if x != y),
                      min(len(raw_a), len(raw_b)))
        return [f"first differing byte at offset {offset} ({len(raw_a)} and {len(raw_b)} bytes)"]
    out = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, lines_a, lines_b).get_opcodes():
        if tag != "equal":
            out += [f"rev  line {i + 1}: {lines_a[i]}" for i in range(i1, i2)]
            out += [f"work line {j + 1}: {lines_b[j]}" for j in range(j1, j2)]
    if not out:  # the same lines, but not the same line endings
        return ["the same lines with other line endings"]
    if len(out) > SHOWN_LINES:
        out[SHOWN_LINES:] = [f"... {len(out) - SHOWN_LINES} more differing lines"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        root = Path(tmp)
        rev_tree = root / "rev"
        rev_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", sha, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive, check=True)
        write_corpus(root / "corpus")
        total_same = total_differ = 0
        for label, threads in BLAS_SETTINGS.items():
            outs = {}
            for side, src in (("rev", rev_tree / "src"), ("work", REPO / "src")):
                outs[side] = root / label / side
                outs[side].mkdir(parents=True)
                seconds = run_pipeline(src, root / "corpus", outs[side] / "out", threads)
                print(f"{label} {side}: pipeline ran in {seconds:.1f} s")
            same, differ = compare(outs["rev"] / "out", outs["work"] / "out")
            for rel in same:
                print(f"same    {label}/{rel}")
            for rel in differ:
                print(f"DIFFERS {label}/{rel}")
                for line in differences(outs["rev"] / "out" / rel, outs["work"] / "out" / rel):
                    print(f"    {line}")
            total_same += len(same)
            total_differ += len(differ)
    print(f"samebytes: {total_same + total_differ} files against {args.rev} ({sha[:7]}): "
          f"{total_same} same, {total_differ} differ")
    return 0 if total_differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
