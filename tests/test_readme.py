"""The README's examples run as written: its Python session through
doctest, and each line of its "Command line" block through the CLI."""

import doctest
import shlex
from pathlib import Path

import pytest

from bqsos.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_python_example():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("line", command_lines())
def test_command_line(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "bqsos"
    assert main(argv[1:]) == 0, capsys.readouterr().err
