#!/usr/bin/env python3
"""Run one benchmark workload of ``cbmi_nmt`` and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from the outside-in tracer. The lines before it name
every metric with its unit, the workload's own metrics (``train.*``,
``translate.*``, ``stats.*``) and the run's provenance. ``--workload all``
runs the end-to-end measurement of the three workloads one after another,
each in its own process, and prints their named metrics together.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the value is recorded in the output
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "translate", "stats")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cmd1.items_per_s": "1/s",
    "cmd2.items_per_s": "1/s",
    "cmd3.items_per_s": "1/s",
}


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def guarded(ledger, fn, *args) -> None:
    """Run part of a workload; if the program's outputs break the benchmark's
    own code, count one failed operation instead of stopping the run."""
    try:
        fn(*args)
    except Exception:  # noqa: BLE001 - recorded and counted as a failure
        ledger.check(False, traceback.format_exc(limit=-3).strip().replace("\n", " | "))


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, sizes) -> dict:
    """Set up ``sizes.setup_repeats`` times, run closed-loop rounds for
    ``seconds``, then the final checks. Returns everything the report needs."""
    from workloads import WORKLOADS, Ledger

    ledger = Ledger()
    workload = WORKLOADS[name](seed, sizes, ledger)
    # a set-up counts the program's commands only, not the generation of the
    # inputs; their median is scaled by the host probes taken during set-up
    setup_walls = []
    first_probe = len(ledger.probe_times)
    for repeat in range(sizes.setup_repeats):
        shutil.rmtree(work / f"setup{repeat - 1}", ignore_errors=True)
        (work / f"setup{repeat}").mkdir()
        program_s = ledger.command_seconds
        workload.setup(work / f"setup{repeat}")
        setup_walls.append(ledger.command_seconds - program_s)
    setup_slowdown = ledger.host_slowdown(first_probe, len(ledger.probe_times))

    result = {"ledger": ledger, "setup_walls": setup_walls, "setup_slowdown": setup_slowdown}
    if trace:
        result.update(traced_loop(workload, seconds))
    else:
        index = 0
        loop_started = time.perf_counter()
        while True:
            guarded(ledger, workload.round, index)
            index += 1
            if time.perf_counter() - loop_started >= seconds:
                break
        result.update(rounds=index, loop_wall=time.perf_counter() - loop_started)
    guarded(ledger, workload.final_checks)

    result["e2e"] = {
        "setup_s": statistics.median(setup_walls) / setup_slowdown,
        "peak_rss_mb": peak_rss_mb(),
        **{f"cmd{i + 1}.items_per_s": r for i, r in enumerate(workload.rates())},
    }
    result["report"] = workload.report()
    return result


def traced_loop(workload, seconds: float) -> dict:
    """A warm round, then pairs of an untraced and a traced round of the
    same work for ``seconds``. The per-layer metrics come from the traced
    rounds; the tracing overhead is the median over the pairs of the traced
    over the untraced wall time, less one, so a burst of other load on the
    host moves one pair, not the result."""
    from layers import TARGETS, per_layer
    from tracer import Tracer

    ledger = workload.ledger
    tracer = Tracer()
    guarded(ledger, workload.round, 0)
    index, ratios, traced_wall = 1, [], 0.0
    loop_started = time.perf_counter()
    while True:
        started = time.perf_counter()
        guarded(ledger, workload.round, index)
        untraced = time.perf_counter() - started
        tracer.install(TARGETS)
        started = time.perf_counter()
        guarded(ledger, workload.round, index + 1)
        traced = time.perf_counter() - started
        tracer.uninstall()
        traced_wall += traced
        ratios.append(traced / untraced)
        index += 2
        if time.perf_counter() - loop_started >= seconds:
            break
    overhead = statistics.median(ratios) - 1.0
    return {
        "rounds": index,
        "traced_rounds": len(ratios),
        "loop_wall": time.perf_counter() - loop_started,
        "layers": per_layer(tracer, traced_wall, overhead, rounds=len(ratios)),
        "absent": tracer.absent,
    }


def print_report(name: str, seed: int, trace: bool, res: dict) -> dict:
    from layers import metric_sources
    from workloads import REFERENCE_PROBE_S

    ledger = res["ledger"]
    print(f"workload {name}: seed {seed}, closed loop, one client, {res['rounds']} rounds "
          f"in {res['loop_wall']:.2f} s; program time of each set-up "
          + ", ".join(f"{t:.3f}" for t in res["setup_walls"])
          + f" s, host slowdown during set-up {res['setup_slowdown']:.4f}")
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    print(f"host slowdown {ledger.host_slowdown():.4f}: median probe "
          f"{statistics.median(ledger.probe_times) * 1e3:.3f} ms over {len(ledger.probe_times)} "
          f"probes, reference {REFERENCE_PROBE_S * 1e3:.3f} ms; rates below are scaled to the "
          "reference speed (divide them by the slowdown for wall-clock values); setup_s is "
          "the median set-up divided by the slowdown during set-up")
    for problem in ledger.problems:
        print(f"problem: {problem}")
    for note in ledger.notes:
        print(f"note: {note}")
    fail_frac = ledger.failed / max(1, ledger.attempted)
    if not trace:
        named = {**res["report"], "setup_s": (res["e2e"]["setup_s"], "s"),
                 "peak_rss_mb": (res["e2e"]["peak_rss_mb"], "MB"), "fail_frac": (fail_frac, "ratio")}
        print("report " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in named.items()}))
        for key, (value, unit) in named.items():
            print(f"  {key} = {value:.6g} {unit}")
        for key, unit in E2E_UNITS.items():
            if key.startswith("cmd"):
                print(f"  {key} = {res['e2e'][key]:.6g} {unit}")
        metrics = {k: {"value": res["e2e"][k], "unit": u} for k, u in E2E_UNITS.items()}
    else:
        print(f"  fail_frac = {fail_frac:.6g} ratio")
        values, status = res["layers"]
        print(f"per-layer metrics of the traced run, per round over {res['traced_rounds']} traced "
              "rounds (inclusive busy time .s, self time .self_s); nothing in the package "
              "waits on a queue, so no wait times apply")
        if res["absent"]:
            print("absent from the package: " + ", ".join(res["absent"]))
        sources = metric_sources()
        for key, (unit, _, _) in sources.items():
            print(f"  {key} = {values[key]:.6g} {unit} [{status[key]}]")
        metrics = {k: {"value": values[k], "unit": u} for k, (u, _, _) in sources.items()}
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload untraced in its own process; prints every named metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        report = json.loads(next(line[7:] for line in lines if line.startswith("report ")))
        for key, entry in report.items():
            metrics[key if key.startswith(name) else f"{name}.{key}"] = entry
    print(f"all workloads, seed {args.seed}:")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "cbmi_nmt" / "__init__.py").is_file():
        print(f"error: no cbmi_nmt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from workloads import FULL

    work = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, FULL)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = print_report(args.workload, args.seed, bool(args.trace), res)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
