"""The configs in ``configs/``, the drivers in ``scripts/`` and the README's
examples must load against the current package.

Each config is parsed and each script is loaded by path (its ``run`` is not
called), so a renamed ``Cell``, ``ExperimentConfig``, ``run_power_study`` or
``write_records``, or a config the parser now refuses, fails the suite.  So
does a README command line with a flag the CLI no longer has, or a README
config example the parser refuses.
"""

import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest

from spheresym.cli import build_parser
from spheresym.experiments import parse_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
README = (ROOT / "README.md").read_text()


def _readme_block(heading: str) -> str:
    """The body of the first fenced block under the README's ``## <heading>``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def _readme_command_lines() -> list[list[str]]:
    """Each command of the "Command line" block as argv, without its leading VAR=value tokens."""
    commands = []
    for line in _readme_block("Command line").splitlines():
        tokens = shlex.split(line, comments=True)
        while tokens and re.fullmatch(r"[A-Za-z_]\w*=\S*", tokens[0]):
            tokens.pop(0)
        if tokens:
            commands.append(tokens)
    return commands


COMMANDS = _readme_command_lines()


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


def test_readme_command_line_block_has_every_subcommand():
    assert {argv[1] for argv in COMMANDS} == {"test", "zeta-gaussian", "simulate", "pitman", "subsample"}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_line_parses(argv, capsys):
    assert argv[0] == "spheresym"
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"the CLI refuses {shlex.join(argv)}: {capsys.readouterr().err}")


def test_readme_config_example_parses(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(_readme_block("Configuration files"))
    assert len(parse_config(str(path)).cells) == 2
