"""The examples in README.md run as documented."""

import re
import shlex
from pathlib import Path

from toriq.cli import main

from test_cli import console_run

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


def test_shell_examples_exit_zero():
    # as the console script runs them, each in a process of its own: main()
    # reads the words after "toriq" from sys.argv
    lines = [line.split("#")[0].strip()
             for block in re.findall(r"```sh\n(.*?)```", README, re.S)
             for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines
                if line.startswith("toriq ")]
    assert commands
    for argv in commands:
        assert console_run(*argv[1:])[0] == 0, argv
