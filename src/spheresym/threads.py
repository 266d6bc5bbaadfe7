"""Thread counts of numpy's BLAS, and the one fan-out of work over threads.

``--threads`` holds numpy's BLAS through :func:`thread_limit`, and the
resampling pass over the Gram tiles and the Gaussian Haar oracle read the
same count through :func:`blas_threads` and run their work through
:func:`fan_out`, so one setting (or ``OPENBLAS_NUM_THREADS``) caps all
three.  :func:`fan_out` is the only place in the package that starts
threads, and it holds numpy's OpenBLAS at one thread while its pool runs,
so pool threads and BLAS threads never compete for the cores.
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


@contextlib.contextmanager
def _threadpoolctl_limit(threads, threadpool_limits):
    # threadpoolctl sets the limit when the object is built, so build it on enter.
    with threadpool_limits(limits=threads):
        yield


def thread_limit(threads):
    """Context manager holding numpy's BLAS at ``threads`` threads while entered; None if nothing can."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        controls = openblas_thread_controls()
        return None if controls is None else _openblas_limit(threads, *controls)
    return _threadpoolctl_limit(threads, threadpool_limits)


def blas_threads() -> int:
    """Threads numpy's OpenBLAS is set to use now; 1 where that cannot be read."""
    controls = openblas_thread_controls()
    return 1 if controls is None else max(1, controls[0]())


def fan_out(work, tasks, states) -> None:
    """Run ``work(state, task)`` for every task, on one thread per state, at most one per task.

    Threads take the next task from one shared queue as they finish one, so
    no task may be None.  While the pool runs, numpy's OpenBLAS is held at
    one thread where its count can be set.  A single state runs the tasks in
    order on the calling thread, with no pool and BLAS's count untouched.
    An exception from ``work`` propagates.
    """
    states = states[: len(tasks)]
    if len(states) <= 1:
        for task in tasks:
            work(states[0], task)
        return
    todo = queue.SimpleQueue()
    for task in [*tasks, *[None] * len(states)]:
        todo.put(task)

    def drain(state):
        for task in iter(todo.get, None):
            work(state, task)

    controls = openblas_thread_controls()
    hold = contextlib.nullcontext() if controls is None else _openblas_limit(1, *controls)
    with hold, ThreadPoolExecutor(len(states)) as pool:
        list(pool.map(drain, states))
