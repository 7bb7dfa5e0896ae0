"""The examples in README.md run as documented."""

import re
from pathlib import Path

from toriq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(language):
    (block,) = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    return block


def test_library_example_runs():
    exec(compile(fenced_block("python"), "README.md", "exec"), {})


def test_fan_file_example_analyzes(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(fenced_block("json"))
    assert main(["analyze", "--fan", str(path)]) == 0
    assert capsys.readouterr().out.startswith("fan my-F2:")
