"""The README's CLI examples run as written, so it never advertises an option
that a command no longer takes."""

from __future__ import annotations

import shlex
from pathlib import Path

from click.testing import CliRunner

from kgverify.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_cli_commands() -> list[list[str]]:
    """Each command of the first code block under ``## CLI``, as argv."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name repository-relative inputs
    commands = readme_cli_commands()
    assert len(commands) == 6
    runner = CliRunner()
    for command in commands:
        assert command[0] == "kgverify"
        # everything the examples write to out/ goes to tmp_path instead
        argv = [str(tmp_path / arg) if arg.startswith("out/") else arg for arg in command[1:]]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, f"{shlex.join(command)}\n{result.output}"
