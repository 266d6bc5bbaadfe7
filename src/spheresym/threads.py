"""Thread counts of numpy's BLAS, read and held for the duration of a call.

``--threads`` holds numpy's BLAS through :func:`thread_limit`, and the Gram
build and the Gaussian Haar oracle read the same count through
:func:`blas_threads`, so one setting (or ``OPENBLAS_NUM_THREADS``) caps all
three.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.cache
def openblas_thread_controls():
    """(get, set) thread-count entry points of the OpenBLAS bundled with numpy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _openblas_limit(threads, get, put):
    before = get()
    put(threads)
    try:
        yield
    finally:
        put(before)


def thread_limit(threads):
    """Context manager holding numpy's BLAS at ``threads`` threads; None if nothing can."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        controls = openblas_thread_controls()
        return None if controls is None else _openblas_limit(threads, *controls)
    return threadpool_limits(limits=threads)


def blas_threads() -> int:
    """Threads numpy's OpenBLAS is set to use now; 1 where that cannot be read."""
    controls = openblas_thread_controls()
    return 1 if controls is None else max(1, controls[0]())
