"""The README's library example runs, its command table is complete and its
config document shows the defaults."""

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

from kirchflow.cli import _build_parser
from kirchflow.config import RunConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})


def test_command_table_lists_the_registered_subcommands():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert documented == list(subparsers.choices)


def test_config_document_shows_the_defaults():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config document\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)
    defaults = parse_config("{}")
    assert json.loads(block) == {f.name: getattr(defaults, f.name)
                                 for f in fields(RunConfig)}
