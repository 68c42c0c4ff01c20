"""The benchmark in ``perfbench/`` traces package functions by name and
reports a name that has left the package as absent instead of failing. This
guard fails as soon as a traced name goes missing, without running a
workload."""

import sys
from pathlib import Path

import cbmi_nmt.cli  # noqa: F401 - the tracer patches only loaded modules

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layers import TARGETS
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    tracer.install(TARGETS)
    tracer.uninstall()
    assert tracer.absent == []
