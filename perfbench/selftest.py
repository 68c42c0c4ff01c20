#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny size:

    python3 perfbench/selftest.py

Each workload runs once with every check passing, and the outside-in tracer
does not perturb the program: ``metrics.jsonl``, the hypotheses, the
vocabularies and ``bmi.tgt.txt`` are byte-identical between a traced and an
untraced run with the same seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import cbmi_nmt.decoding
import cbmi_nmt.models
from layers import TARGETS, metric_sources, per_layer
from tracer import Target, Tracer
from workloads import TINY

# outputs of the last round that must not depend on tracing
COMPARED = {
    "train": ["none/metrics.jsonl", "cbmi/metrics.jsonl", "prior_select/metrics.jsonl"],
    "translate": ["beam4.hyp", "beam1.hyp"],
    "stats": ["data/vocab.src.txt", "data/vocab.tgt.txt", "data/bmi.tgt.txt",
              "analysis.txt", "weights.tsv"],
}


def last_round(work: Path) -> Path:
    return max(work.glob("setup*/round*"), key=lambda p: int(p.name[5:]))


class WorkloadTests(unittest.TestCase):
    def _run(self, name: str, trace: bool, work: Path) -> dict:
        res = run.measure(name, seed=3, seconds=0.0, trace=trace, work=work, sizes=TINY)
        ledger = res["ledger"]
        self.assertEqual(ledger.failed, 0, ledger.problems)
        self.assertGreater(ledger.attempted, 0)
        return res

    def _check(self, name: str) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            plain, traced = Path(tmp) / "plain", Path(tmp) / "traced"
            plain.mkdir()
            traced.mkdir()
            res = self._run(name, False, plain)
            self.assertEqual(set(res["e2e"]), set(run.E2E_UNITS))
            self.assertTrue(all(v > 0 for v in res["e2e"].values()), res["e2e"])
            res = self._run(name, True, traced)
            values, status = res["layers"]
            self.assertNotIn("absent", status.values())
            self.assertEqual(values["cli.nonzero_exits"], 0)
            for rel in COMPARED[name]:
                a, b = last_round(plain) / rel, last_round(traced) / rel
                self.assertEqual(a.read_bytes(), b.read_bytes(), rel)

    def test_train(self):
        self._check("train")

    def test_translate(self):
        self._check("translate")

    def test_stats(self):
        self._check("stats")


class ContractTests(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: unit for k, (unit, _, _) in metric_sources().items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))


class TracerTests(unittest.TestCase):
    def test_patches_every_namespace_and_restores(self):
        original = cbmi_nmt.models.nmt_forward
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            self.assertIsNot(cbmi_nmt.models.nmt_forward, original)
            self.assertIs(cbmi_nmt.decoding.nmt_forward, cbmi_nmt.models.nmt_forward)
        finally:
            tracer.uninstall()
        self.assertIs(cbmi_nmt.models.nmt_forward, original)
        self.assertIs(cbmi_nmt.decoding.nmt_forward, original)

    def test_missing_name_is_absent(self):
        tracer = Tracer()
        missing = Target("models", "no_such_function", "models.no_such_function")
        tracer.install([missing, Target("corpus", "NoSuchClass.build", "corpus.x")])
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["models.no_such_function", "corpus.NoSuchClass.build"])
        _, status = per_layer(tracer, 1.0, 0.0)
        self.assertEqual(status["models.nmt_forward.s"], "absent")
        self.assertEqual(status["tensor.self_s"], "present")

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.spans.extend([["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]])
        self.assertEqual(tracer.self_times(), [6.0, 2.0, 1.0, 1.0])
        self.assertEqual(tracer.covered_time(), 10.0)
        self.assertEqual(tracer.ancestor(2, "a"), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
