"""The README's command-line synopsis and library example stay true to
the code."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from netdrift.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    """The bodies of the README's code blocks fenced as ```language."""
    blocks, body, fence = [], [], None
    for line in README.splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif fence is None:
            body, fence = [], line[3:]
        else:
            if fence == language:
                blocks.append("\n".join(body) + "\n")
            fence = None
    return blocks


def synopsis_options():
    """subcommand -> the options its synopsis lines name."""
    (block,) = [b for b in fenced_blocks("") if b.startswith("netdrift ")]
    options, command = {}, None
    for line in block.splitlines():
        if line.startswith("netdrift "):
            command = line.split()[1]
        options.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return options


def parser_options():
    """subcommand -> the options `build_parser` gives it, -h aside."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, p in sub.choices.items()}


def test_synopsis_names_every_option_of_every_subcommand():
    assert synopsis_options() == parser_options()


def test_library_example_runs():
    (block,) = fenced_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "PositiveRecurrent 0.3111111111111111"
    assert len(lines) == 3 and lines[1].startswith("True ")
