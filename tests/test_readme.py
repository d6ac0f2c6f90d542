"""The README's library example runs as written, and its commands parse."""

import re
import shlex
from pathlib import Path

from dpboot.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert "atoms, residual" in lines[0]
    assert lines[1].split()[0] in ("indistinguishable", "distinguishable")


def test_readme_commands_parse():
    # A flag dropped from the CLI but left in the docs fails here: argparse
    # exits with status 2 on an unknown flag.
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "dpboot":
                commands.append(argv[1:])
    assert {argv[0] for argv in commands} == {"resample", "posterior", "compare", "experiment"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
