"""The benchmark's workload module must import and pass its gates against the current package.

``perfbench/workloads.py`` imports public spheresym names; loading it here
turns a removed or renamed name into a test failure instead of a failed
benchmark run.  The reference gates of the oracle workload, of the seed-0
``study`` ops at n = 250 and 500 (more than one 128-row block) over the
whole input pool, and of one seed-0 ``cli_large`` and one seed-0 ``exact``
op run here too, so an estimate that drifts from ``perfbench/reference.json``,
or a summation-order change that flips a p-value or a decision, fails the
tests, not the benchmark.  One op of
each workload also runs its ``traced`` composition against its untraced
call, as the benchmark's trace mode does, so the public calls that only the
traced rounds make are run here too.  The files are loaded by path and not
modified.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_workloads_import(monkeypatch):
    module = _load(monkeypatch, "workloads")
    assert set(module.WORKLOADS) == {"study", "cli_large", "exact", "oracle"}


def test_oracle_workload_passes_its_reference_gate(monkeypatch, tmp_path):
    module = _load(monkeypatch, "workloads")
    refs = json.loads((PERFBENCH / "reference.json").read_text())["oracle"]
    wl = module.Oracle(module.DEFAULT_SEED, str(tmp_path))
    ops = wl.round_ops(0)
    assert [op.kind for op in ops] == [f"gaussian_zeta,d={d}" for d in module.Oracle.DIMS] + ["mc_zeta"]
    for op in ops:
        wl.check(op, wl.result(op, wl.invoke(op)), refs[op.key])


def test_study_ops_of_several_blocks_pass_their_reference_gates(monkeypatch, tmp_path):
    module = _load(monkeypatch, "workloads")
    refs = json.loads((PERFBENCH / "reference.json").read_text())["study"]
    wl = module.Study(module.DEFAULT_SEED, str(tmp_path))
    ops = [op for r in range(wl.pool) for op in wl.round_ops(r) if op.kind in ("n=250", "n=500")]
    assert len(ops) == 2 * wl.pool
    for op in ops:
        wl.check(op, wl.result(op, wl.invoke(op)), refs[op.key])


def test_one_cli_large_and_one_exact_op_pass_their_reference_gates(monkeypatch, tmp_path):
    module = _load(monkeypatch, "workloads")
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    for workload in (module.CliLarge, module.Exact):
        wl = workload(module.DEFAULT_SEED, str(tmp_path))
        op = wl.round_ops(0)[0]
        wl.check(op, wl.result(op, wl.invoke(op)), refs[wl.name][op.key])


def test_traced_compositions_equal_the_untraced_ops(monkeypatch, tmp_path):
    module = _load(monkeypatch, "workloads")
    tracer = _load(monkeypatch, "tracing").Tracer()
    picks = [(module.Study, "n=50"), (module.Exact, "n=16,d=2"), (module.CliLarge, "n=2000"),
             (module.Oracle, "mc_zeta")]
    for workload, kind in picks:
        wl = workload(module.DEFAULT_SEED, str(tmp_path))
        (op,) = [op for op in wl.round_ops(0) if op.kind == kind]
        untraced = wl.result(op, wl.invoke(op))
        traced = wl.traced(op, tracer)
        assert traced
        assert sorted(k for k, v in traced.items() if untraced.get(k) != v) == [], wl.name
    # the spans of the calls only the traced rounds make
    assert {"core.build_gram", "core.zeta_hat"} <= {s["name"] for s in tracer.spans}
