"""The README's CLI examples run as written, and its config example resolves,
so it never advertises an option or a config key that is gone."""

from __future__ import annotations

import json
import os
import shlex
from pathlib import Path

from kgverify.cli import RunConfig

from conftest import run_kgverify

ROOT = Path(__file__).resolve().parent.parent


def readme_cli_commands() -> list[list[str]]:
    """Each command of the first code block under ``## CLI``, as argv."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_commands_never_import_the_live_transport(tmp_path):
    """Each README command, in README order, runs as a process of its own with
    no credentials and exits 0. Replay, ``report`` and ``build-dataset`` build
    no live transport, so none has imported ``requests`` or ``urllib3`` at
    exit; nor ``email``, so neither does ``import kgverify.cli``."""
    commands = readme_cli_commands()
    assert len(commands) == 6
    assert {command[1] for command in commands} == {
        "verify-wikidata", "verify-wikipedia", "build-dataset", "evaluate", "report"}
    for command in commands:
        assert command[0] == "kgverify"
        # everything the examples write to out/ goes to tmp_path instead
        argv = [str(tmp_path / arg) if arg.startswith("out/") else arg for arg in command[1:]]
        # the examples name repository-relative inputs
        done = run_kgverify(argv, cwd=ROOT)
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
