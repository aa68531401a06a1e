"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from fmethod.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang=""):
    """The first fenced block after a `## heading` line."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no code block under {heading!r}"
    return match.group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line").splitlines()
    if line.startswith("fmethod ")
]


def test_readme_lists_the_commands():
    assert len(COMMANDS) == 11


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    # a relative --out path lands in the test's own directory
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text()


def test_readme_api_example_runs(capsys):
    exec(compile(_block("A taste of the API", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("1 [")
