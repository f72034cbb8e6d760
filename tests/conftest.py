from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgverify
from kgverify.errors import FixtureMissing
from kgverify.llm import LlmParams, Prompt
from kgverify.net import HttpRequest, HttpResponse, request_fingerprint

FIXTURES = Path(__file__).parent / "fixtures"
REPLAY_DIR = FIXTURES / "replay"

# what a live run's environment holds; no recorded file may hold any of it
CREDENTIALS = {"KGVERIFY_LLM_TOKEN": "test-token-1f3a", "KGVERIFY_SEARCH_KEY": "test-key-7c2e",
               "KGVERIFY_SEARCH_CX": "test-cx-94b0"}

# Runs the CLI, then prints the file of the package it ran and which of the
# live transport's libraries it loaded, and ``email``, which only an HTTP-date
# ``Retry-After`` needs.
KGVERIFY_PROCESS = """
import atexit, sys
import kgverify
from kgverify.cli import main


@atexit.register
def report():
    print("package:", kgverify.__file__)
    print("loaded:", *sorted({"requests", "urllib3", "email"} & set(sys.modules)))


main(prog_name="kgverify")
"""


def run_kgverify(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``kgverify argv`` as a process of its own, from ``cwd`` and with no
    credentials. It runs the package this process imported, from the
    checkout's ``src`` or as installed (asserted), and its stdout ends with
    the ``loaded:`` line."""
    env = {name: value for name, value in os.environ.items() if name not in CREDENTIALS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(kgverify.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", KGVERIFY_PROCESS, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-2:-1] == [f"package: {kgverify.__file__}"], done.stderr
    return done


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def replay_dir() -> Path:
    return REPLAY_DIR


class DictTransport:
    """In-memory transport: maps request fingerprints to responses."""

    def __init__(self):
        self.responses: dict[str, HttpResponse] = {}
        self.requests: list[HttpRequest] = []

    def add(self, req: HttpRequest, status: int = 200, body: str | bytes = b"",
            content_type: str = "text/html; charset=utf-8") -> None:
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.responses[request_fingerprint(req)] = HttpResponse(
            status=status, headers={"content-type": content_type}, body=body, url=req.url
        )

    def add_json(self, req: HttpRequest, payload, status: int = 200) -> None:
        self.add(req, status=status, body=json.dumps(payload, ensure_ascii=False),
                 content_type="application/json")

    def send(self, req: HttpRequest) -> HttpResponse:
        self.requests.append(req)
        key = request_fingerprint(req)
        if key not in self.responses:
            raise AssertionError(f"unexpected request: {req.method} {req.url} {req.params}")
        return self.responses[key]


@pytest.fixture
def dict_transport() -> DictTransport:
    return DictTransport()


class ScriptedProvider:
    """LLM provider returning canned responses in script order.

    For orchestration tests where the n-th verification call must see the
    n-th response. Raises when the script runs dry.
    """

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self.calls = 0

    def complete(self, params: LlmParams, prompt: Prompt) -> str:
        if self.calls >= len(self._responses):
            raise FixtureMissing(f"scripted provider exhausted after {self.calls} responses")
        text = self._responses[self.calls]
        self.calls += 1
        return text
