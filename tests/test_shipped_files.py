"""The configs in ``configs/`` and the drivers in ``scripts/`` must load
against the current package.

Each config is parsed and each script is loaded by path (its ``run`` is not
called), so a renamed ``Cell``, ``ExperimentConfig``, ``run_power_study`` or
``write_records``, or a config the parser now refuses, fails the suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spheresym.experiments import parse_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_shipped_files_exist():
    assert CONFIGS and SCRIPTS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_parses(path):
    assert parse_config(str(path)).cells


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert callable(module.run)
