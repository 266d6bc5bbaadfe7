"""The benchmark's workload module must import and pass its gates against the current package.

``perfbench/workloads.py`` imports public spheresym names; loading it here
turns a removed or renamed name into a test failure instead of a failed
benchmark run.  The reference gates of the oracle workload and of one
seed-0 ``cli_large`` and one seed-0 ``exact`` op run here too, so an
estimate that drifts from ``perfbench/reference.json``, or a summation-order
change that flips a p-value, fails the tests, not the benchmark.  The files
are loaded by path and not modified.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS_PATH = PERFBENCH / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_workloads_import(monkeypatch):
    module = _load_workloads(monkeypatch)
    assert set(module.WORKLOADS) == {"study", "cli_large", "exact", "oracle"}


def test_oracle_workload_passes_its_reference_gate(monkeypatch, tmp_path):
    module = _load_workloads(monkeypatch)
    refs = json.loads((PERFBENCH / "reference.json").read_text())["oracle"]
    wl = module.Oracle(module.DEFAULT_SEED, str(tmp_path))
    ops = [op for op in wl.round_ops(0) if op.kind.startswith("gaussian_zeta")]
    assert len(ops) == len(module.Oracle.DIMS)
    for op in ops:
        wl.check(op, wl.result(op, wl.invoke(op)), refs[op.key])


def test_one_cli_large_and_one_exact_op_pass_their_reference_gates(monkeypatch, tmp_path):
    module = _load_workloads(monkeypatch)
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    for workload in (module.CliLarge, module.Exact):
        wl = workload(module.DEFAULT_SEED, str(tmp_path))
        op = wl.round_ops(0)[0]
        wl.check(op, wl.result(op, wl.invoke(op)), refs[wl.name][op.key])
