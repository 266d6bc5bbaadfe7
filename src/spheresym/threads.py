"""Thread counts of numpy's BLAS, and the one fan-out of work over threads.

The resampling pass over the Gram tiles and the Gaussian Haar oracle take the
thread count numpy's OpenBLAS is set to use (``OPENBLAS_NUM_THREADS``) through
:func:`blas_threads` as their thread count, and run their work through
:func:`fan_out`.  :func:`fan_out`, the only place in the package that starts
threads, holds numpy's OpenBLAS at one thread on every call, so no product's
bits depend on the thread count and pool threads never compete with BLAS
threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import queue
from concurrent.futures import ThreadPoolExecutor
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


def blas_threads() -> int:
    """Threads numpy's OpenBLAS is set to use now; 1 where that cannot be read."""
    controls = openblas_thread_controls()
    return 1 if controls is None else max(1, controls[0]())


def fan_out(work, tasks, states) -> None:
    """Run ``work(state, task)`` for every task, on one thread per state, at most one per task.

    Threads take the next task from one shared queue as they finish one, so
    no task may be None; a single state runs them in order on the calling
    thread, with no pool.  Either way numpy's OpenBLAS is held at one thread
    meanwhile, where its count can be set.  An exception from ``work`` propagates.
    """
    states = states[: len(tasks)]
    controls = openblas_thread_controls()
    hold = contextlib.nullcontext() if controls is None else _openblas_limit(1, *controls)
    if len(states) <= 1:
        with hold:
            for task in tasks:
                work(states[0], task)
        return
    todo = queue.SimpleQueue()
    for task in [*tasks, *[None] * len(states)]:
        todo.put(task)

    def drain(state):
        for task in iter(todo.get, None):
            work(state, task)

    with hold, ThreadPoolExecutor(len(states)) as pool:
        list(pool.map(drain, states))
