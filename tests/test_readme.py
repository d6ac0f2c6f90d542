"""The README's library example runs, its commands parse, and its output headers are real."""

import json
import re
import shlex
from pathlib import Path

from dpboot.cli import build_parser, main

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


def test_readme_output_columns_match_a_real_run(tmp_path, capsys):
    (block,) = _blocks("text")
    documented = dict(line.split(":", 1) for line in block.splitlines())
    data = tmp_path / "data.txt"
    data.write_text("0.5\n1.5\n2.0\n3.25\n4.0\n")
    runs = {
        "compare": ["compare", "--input", str(data), "--method-a", "frequentist",
                    "--method-b", "dp-stickbreak"],
        "experiment": ["experiment", "--n-grid", "5,8", "--generator", "uniform:0,1"],
    }
    assert set(documented) == set(runs)
    for command, argv in runs.items():
        columns = documented[command].strip()
        assert main(argv + ["--b", "20", "--reps", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == columns
        assert main(argv + ["--b", "20", "--reps", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        record = payload if command == "compare" else payload[0]
        assert ",".join(record) == columns
