"""The squared-distance routine ``core`` loads from scipy's distance extension.

It must be the routine public ``cdist(a, b, "sqeuclidean", out=...)`` runs,
loaded without importing ``scipy.spatial``, in either import order, and its
fallback must give the same bits.
"""

import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from spheresym import core

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _blocks():
    """(a, b) pairs: d = 1 to 1000, scales 1e-3 to 1e100, identical rows, strided and Fortran slices."""
    gen = np.random.default_rng(15)
    for d in (1, 2, 3, 10, 127, 1000):
        for scale in (1e-3, 1.0, 50.0, 1e30, 1e100):
            x = scale * gen.standard_normal((37, d))
            yield x, x[5:29]
    x = np.repeat(gen.standard_normal((6, 4)), 3, axis=0)  # identical rows: exact zeros
    yield x, x
    x = gen.standard_normal((80, 12))
    yield x[::3], x[1::2]
    yield x[:, ::2], x[10:40, 1::2]
    f = np.asfortranarray(x)
    yield f[7:40], f[::5]
    yield f[3:50], x[20:70]


@pytest.mark.parametrize("routine", ["loaded", "fallback"])
def test_routine_matches_public_cdist_bit_for_bit(routine, monkeypatch):
    if routine == "fallback":
        monkeypatch.delitem(sys.modules, core._DISTANCE_MODULE, raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    sqeuclidean = core._load_sqeuclidean()
    assert (sqeuclidean is core._sqeuclidean) == (routine == "loaded")
    for a, b in _blocks():
        want = cdist(a, b, "sqeuclidean")
        out = np.full((len(a), len(b)), np.nan)
        assert sqeuclidean(a, b, out=out) is out
        assert np.array_equal(out, want)
        assert (out[(a[:, None] == b[None]).all(axis=2)] == 0.0).all()  # identical rows


def test_extension_that_fails_to_load_falls_back_to_public_cdist(monkeypatch, tmp_path):
    broken = tmp_path / ("_distance_pybind" + importlib.machinery.EXTENSION_SUFFIXES[0])
    broken.write_bytes(b"not a shared object")
    monkeypatch.delitem(sys.modules, core._DISTANCE_MODULE, raising=False)
    monkeypatch.setattr(core, "_distance_extension_path", lambda: str(broken))
    sqeuclidean = core._load_sqeuclidean()
    assert core._DISTANCE_MODULE not in sys.modules
    a, b = next(_blocks())
    out = np.empty((len(a), len(b)))
    assert np.array_equal(sqeuclidean(a, b, out=out), cdist(a, b, "sqeuclidean"))


def test_importing_the_package_loads_neither_scipy_spatial_nor_scipy_sparse():
    loaded = _run(
        "import sys, spheresym, spheresym.cli\n"
        "print('scipy.spatial' in sys.modules, 'scipy.sparse' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.spatial', 'scipy.sparse'))))"
    )
    # the one module under those names is the distance extension itself
    assert loaded.splitlines() == ["False False", "['scipy.spatial._distance_pybind']"]


@pytest.mark.parametrize("first", ["spheresym", "scipy.spatial"])
def test_either_import_order_shares_one_extension(first):
    second = "scipy.spatial" if first == "spheresym" else "spheresym"
    out = _run(
        f"import {first}, {second}\n"
        "import numpy as np\n"
        "from scipy.spatial.distance import _METRIC_ALIAS, cdist\n"
        "from spheresym import core\n"
        "print(_METRIC_ALIAS['sqeuclidean'].cdist_func is core._sqeuclidean)\n"
        "x = np.random.default_rng(0).standard_normal((40, 7))\n"
        "out = np.empty((40, 40))\n"
        "print(np.array_equal(core._sqeuclidean(x, x[::-1], out=out), cdist(x, x[::-1], 'sqeuclidean')))"
    )
    assert out.split() == ["True", "True"]
