from __future__ import annotations

import json
from pathlib import Path

import pytest

from kgverify.errors import FixtureMissing
from kgverify.llm import LlmParams, Prompt
from kgverify.net import HttpRequest, HttpResponse, request_fingerprint

FIXTURES = Path(__file__).parent / "fixtures"
REPLAY_DIR = FIXTURES / "replay"


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
