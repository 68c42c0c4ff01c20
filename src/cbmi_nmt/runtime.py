"""The runtime policy each command applies to its own process: glibc's
malloc thresholds and the BLAS thread count, both set through ``ctypes``.
No environment variable is read, and no setting outside this process is
touched. Where a library lacks the call (musl, macOS, a numpy without its
bundled OpenBLAS), its setting is recorded as ``unknown`` and left alone.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

UNKNOWN = "unknown"

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below 32 MiB (glibc's largest mmap threshold) come from the heap,
# and up to 1 GiB of freed heap stays mapped, so a command's next batch
# reuses the pages of the last one instead of faulting them in again.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


@functools.cache
def malloc_policy() -> str:
    """Set glibc's mmap and trim thresholds, once per process. Returns the
    setting as recorded, ``mmap=<bytes>,trim=<bytes>``, or ``unknown``
    where ``mallopt`` is missing or refuses them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return UNKNOWN
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # musl's mallopt is a stub that returns 0
    if not (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        return UNKNOWN
    return f"mmap={MMAP_THRESHOLD},trim={TRIM_THRESHOLD}"


@functools.cache
def _openblas():
    """The (set, get) thread-count functions of the OpenBLAS that numpy's
    wheel bundles under ``numpy.libs/``, or None. ``ctypes.CDLL(None)`` does
    not see them: numpy loads the library with its symbols kept local."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter, getter = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (AttributeError, OSError):
            continue
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        getter.argtypes, getter.restype = (), ctypes.c_int
        return setter, getter
    return None


def set_blas_threads(count: int) -> None:
    """Run BLAS calls on ``count`` threads; nothing where the library is
    unknown."""
    functions = _openblas()
    if functions is not None:
        functions[0](count)


def blas_threads() -> int | None:
    """The BLAS thread count in effect, or None where it cannot be read."""
    functions = _openblas()
    return None if functions is None else functions[1]()


def settings() -> dict[str, str]:
    """The effective settings, as the config echo and checkpoints record them."""
    threads = blas_threads()
    return {
        "runtime.blas_threads": UNKNOWN if threads is None else str(threads),
        "runtime.malloc": malloc_policy(),
    }
