"""The README's CLI examples run as written, and its config example resolves,
so it never advertises an option or a config key that is gone."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from kgverify.cli import RunConfig, main

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


# Runs the CLI, then prints which of the live transport's libraries it loaded,
# and ``email``, which only an HTTP-date ``Retry-After`` needs.
LOADED_AT_EXIT = """
import atexit, sys
atexit.register(lambda: print("loaded:",
                              *sorted({"requests", "urllib3", "email"} & set(sys.modules))))
from kgverify.cli import main
main(prog_name="kgverify")
"""


def test_readme_commands_never_import_the_live_transport(tmp_path):
    """Replay, ``report`` and ``build-dataset`` build no live transport, so
    each README command, in a process of its own, exits without having
    imported ``requests`` or ``urllib3``; nor ``email``, so neither does
    ``import kgverify.cli``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    commands = readme_cli_commands()
    assert {command[1] for command in commands} == {
        "verify-wikidata", "verify-wikipedia", "build-dataset", "evaluate", "report"}
    for command in commands:
        argv = [str(tmp_path / arg) if arg.startswith("out/") else arg for arg in command[1:]]
        done = subprocess.run([sys.executable, "-c", LOADED_AT_EXIT, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"{shlex.join(command)}\n{done.stderr}"
        assert done.stdout.splitlines()[-1] == "loaded:", shlex.join(command)


def readme_config_example() -> dict:
    """The JSON block under ``### Configuration``."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n### Configuration\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_config_example_resolves(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("KGVERIFY_"):  # the file alone decides
            monkeypatch.delenv(name)
    example = readme_config_example()
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(example), encoding="utf-8")
    config = RunConfig.resolve({"config_file": str(config_file)})
    assert {key: getattr(config, key) for key in example} == example
