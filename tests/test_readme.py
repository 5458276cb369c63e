"""The README's library example runs, its command table is complete, the
check lines it quotes are what the default problem prints and its config
document shows the defaults."""

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

from kirchflow.cli import _build_parser, main
from kirchflow.config import RunConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_line_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})


def test_command_table_lists_the_registered_subcommands():
    documented = re.findall(r"^\| `([a-z-]+)` \|", _command_line_section(),
                            flags=re.MULTILINE)
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert documented == list(subparsers.choices)


def _checks(tmp_path, capsys, command):
    """The check lines ``command`` prints for the default problem."""
    assert main([command, "--out", str(tmp_path)]) == 0
    return [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("wrote ")]


def test_quoted_diagnose_lines_are_printed(tmp_path, capsys):
    (block,) = re.findall(r"```text\n(.*?)```", _command_line_section(), flags=re.DOTALL)
    assert _checks(tmp_path, capsys, "diagnose") == block.splitlines()


def test_quoted_probe_uniqueness_line_is_printed(tmp_path, capsys):
    prose = " ".join(_command_line_section().split())
    (line,) = re.findall(r"`probe-uniqueness` prints `([^`]*)`", prose)
    assert _checks(tmp_path, capsys, "probe-uniqueness") == [line]


def test_config_document_shows_the_defaults():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config document\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)
    defaults = parse_config("{}")
    assert json.loads(block) == {f.name: getattr(defaults, f.name)
                                 for f in fields(RunConfig)}
