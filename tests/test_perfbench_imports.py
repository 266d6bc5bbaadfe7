"""The benchmark's workload module must import against the current package.

``perfbench/workloads.py`` imports public spheresym names; loading it here
turns a removed or renamed name into a test failure instead of a failed
benchmark run.  The file is loaded by path and not modified.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_perfbench_workloads_import(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert set(module.WORKLOADS) == {"study", "cli_large", "exact", "oracle"}
