from __future__ import annotations

import itertools
import json
import re
import shutil
import sys
import threading
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from click.testing import CliRunner

from kgverify.cli import RunConfig, main
from kgverify.datasets import read_instances
from kgverify.errors import ContextOverflow, ProviderUnavailable
from kgverify.llm import DEFAULT_MODEL, LlmGateway, ReplicateHttpProvider
from kgverify.prompting import render_rdf_prompt

from concurrency import await_thread_blocked_in, interrupt_thread_start
from conftest import CREDENTIALS, FIXTURES, REPLAY_DIR, run_kgverify


@pytest.fixture
def runner():
    return CliRunner()


def replay_args(out_dir, fixtures=REPLAY_DIR):
    return ["--replay", "--fixtures", str(fixtures), "--out", str(out_dir),
            "--fixed-clock", "2024-03-02T13:27:25Z"]


UC1 = (["verify-wikidata", "Q36233", "--max-statements", "1"], "verify-wikidata-Q36233")
UC2 = (["verify-wikipedia", "Q179924", "--statements", str(FIXTURES / "biolum_statements.tsv"),
        "--model", "gpt-4-1106-preview"], "verify-wikipedia-Q179924")


def uc2_three_times(tmp_path, second_object=None) -> list[str]:
    """The uc2 command over its statements file written 3 times; a
    ``second_object`` replaces the object of the second statement."""
    line = (FIXTURES / "biolum_statements.tsv").read_text(encoding="utf-8")
    second = line.replace("\tphosphorescence\t", f"\t{second_object}\t") if second_object else line
    path = tmp_path / "three.tsv"
    path.write_text(line + second + line, encoding="utf-8")
    return [*UC2[0][:2], "--statements", str(path), *UC2[0][4:]]


def answer_from_fixtures(req):
    """What the live remote side answers, from the bundled replay fixtures: LLM
    completions, search API results, pages and API responses."""
    from kgverify.llm import LlmParams, Prompt
    from kgverify.net import HttpResponse
    from kgverify.store import FixtureStore

    recorded = FixtureStore(REPLAY_DIR)

    def answer(status, payload):
        return HttpResponse(status=status, headers={"content-type": "application/json"},
                            body=json.dumps(payload).encode("utf-8"))

    if req.method == "POST":
        model = req.url.split("/models/", 1)[1].rsplit("/predictions", 1)[0]
        params = LlmParams(model=model)
        prompt = Prompt.of(params, json.loads(req.body)["input"]["prompt"])
        return answer(201, {"output": recorded.complete(params, prompt)})
    return recorded.send(req)


@pytest.fixture
def live_remote(monkeypatch):
    """Answers every live request in-process with ``answer_from_fixtures``.
    Returns the (method, url) of each request it answered."""
    from kgverify.net import LiveTransport

    asked = []

    def remote(self, req):
        asked.append((req.method, req.url))
        return answer_from_fixtures(req)

    monkeypatch.setattr(LiveTransport, "send", remote)
    for name, value in CREDENTIALS.items():
        monkeypatch.setenv(name, value)
    return asked


class TestVerifyWikidata:
    def test_havel_replay(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify-wikidata", "Q36233", "--max-statements", "1",
            *replay_args(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        xml_path = tmp_path / "verify-wikidata-Q36233.xml"
        html_path = tmp_path / "verify-wikidata-Q36233.html"
        assert xml_path.exists() and html_path.exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["traces"] == 2
        assert manifest["replay"] is True
        assert manifest["templates"]  # template hashes recorded

    def test_replay_is_bit_identical(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, [
                "verify-wikidata", "Q36233", "--max-statements", "1",
                *replay_args(out),
            ])
            assert result.exit_code == 0, result.output
        xml_a = (out_a / "verify-wikidata-Q36233.xml").read_bytes()
        xml_b = (out_b / "verify-wikidata-Q36233.xml").read_bytes()
        assert xml_a == xml_b
        html_a = (out_a / "verify-wikidata-Q36233.html").read_bytes()
        assert html_a == (out_b / "verify-wikidata-Q36233.html").read_bytes()

    def test_havel_replays_without_credentials(self, runner, tmp_path, monkeypatch):
        """Replay needs no credentials, and the ones a run has change nothing."""
        outputs = []
        for credentials in ({}, CREDENTIALS):
            for name in CREDENTIALS:
                monkeypatch.delenv(name, raising=False)
            for name, value in credentials.items():
                monkeypatch.setenv(name, value)
            out = tmp_path / str(len(credentials))
            result = runner.invoke(main, [*UC1[0], *replay_args(out)])
            assert result.exit_code == 0, result.output
            outputs.append([(out / f"{UC1[1]}.{ext}").read_bytes() for ext in ("xml", "html")])
        assert outputs[0] == outputs[1]

    def test_replay_at_another_hit_limit_is_a_missing_fixture(self, runner, tmp_path):
        """The search record answers the hit limit it was recorded at, and no other."""
        result = runner.invoke(main, [*UC1[0], "--hit-limit", "4", *replay_args(tmp_path)])
        assert result.exit_code == 5, result.output
        assert "customsearch" in result.output and "fingerprint" in result.output

    def test_missing_fixture_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify-wikidata", "Q99999999", *replay_args(tmp_path),
        ])
        # no fixture exists for this entity: replay mode reports the miss
        assert result.exit_code == 5
        assert "fingerprint" in result.output

    def test_unknown_entity_named_in_error(self, runner, tmp_path, monkeypatch):
        """The subject's entity record is asked first: an entity that does not
        exist exits 6, naming it, and asks no SPARQL; only its record (a
        "missing" payload) is recorded."""
        from kgverify.net import HttpRequest, HttpResponse, write_fixture
        from kgverify.wikidata import WIKIDATA_API, WikidataClient

        fixtures = tmp_path / "fixtures"
        entity_req = HttpRequest.get(WIKIDATA_API, params={
            "action": "wbgetentities", "ids": "Q99", "props": "info|labels|sitelinks/urls",
            "languages": "en", "sitefilter": "enwiki", "format": "json",
        })
        write_fixture(fixtures / "http", entity_req, HttpResponse(
            status=200, headers={"content-type": "application/json"},
            body=json.dumps({"entities": {"Q99": {"id": "Q99", "missing": ""}}}).encode(),
        ))
        queries = []
        sparql = WikidataClient._sparql

        def counted(self, query):
            queries.append(query)
            return sparql(self, query)

        monkeypatch.setattr(WikidataClient, "_sparql", counted)
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify-wikidata", "Q99",
                                      *replay_args(out, fixtures=fixtures)])
        assert result.exit_code == 6, result.output
        assert "error: entity Q99 does not exist" in result.output
        assert queries == []
        assert not out.exists()

    def test_invalid_entity_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["verify-wikidata", "not-an-id",
                                      *replay_args(tmp_path)])
        assert result.exit_code == 2

    def test_invalid_entity_reported_before_live_setup(self, runner, tmp_path, monkeypatch):
        # without an LLM token a live runtime cannot be built: the usage error comes first
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        result = runner.invoke(main, ["verify-wikidata", "not-an-id", "--live",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output

    def test_replay_reports_recorded_latency(self, runner, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(REPLAY_DIR, fixtures)
        log_path = fixtures / "llm" / "responses.jsonl"
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        log_path.write_text("".join(
            json.dumps({**record, "latency_ms": 1234}) + "\n" for record in records))
        out = tmp_path / "out"
        result = runner.invoke(main, [*UC1[0], *replay_args(out, fixtures=fixtures)])
        assert result.exit_code == 0, result.output
        xml_text = (out / f"{UC1[1]}.xml").read_text(encoding="utf-8")
        assert xml_text.count("<duration-ms>1234</duration-ms>") == 2
        assert "<duration-ms>0</duration-ms>" not in xml_text

    def test_replay_requires_fixtures(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify-wikidata", "Q36233", "--replay", "--out", str(tmp_path),
        ])
        assert result.exit_code == 2
        assert "fixtures" in result.output

    def test_env_values_are_coerced(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("KGVERIFY_MAX_STATEMENTS", "1")
        monkeypatch.setenv("KGVERIFY_REPLAY", "true")
        monkeypatch.setenv("KGVERIFY_FIXTURES_DIR", str(REPLAY_DIR))
        result = runner.invoke(main, [
            "verify-wikidata", "Q36233", "--out", str(tmp_path),
            "--fixed-clock", "2024-03-02T13:27:25Z",
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["statements_selected"] == 1
        assert manifest["config"]["max_statements"] == 1
        assert manifest["config"]["replay"] is True

    def test_flags_override_environment(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("KGVERIFY_MAX_STATEMENTS", "6")
        result = runner.invoke(main, [
            "verify-wikidata", "Q36233", "--max-statements", "1",
            *replay_args(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["max_statements"] == 1

    def test_bad_env_value_reports_usage_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("KGVERIFY_HIT_LIMIT", "many")
        result = runner.invoke(main, [
            "verify-wikidata", "Q36233", *replay_args(tmp_path),
        ])
        assert result.exit_code == 2
        assert "hit_limit" in result.output


class TestVerifyWikipedia:
    def test_bioluminescence_replay(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify-wikipedia", "Q179924",
            "--statements", str(FIXTURES / "biolum_statements.tsv"),
            "--model", "gpt-4-1106-preview",
            *replay_args(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        xml_text = (tmp_path / "verify-wikipedia-Q179924.xml").read_text(encoding="utf-8")
        assert "<subject-id>179924</subject-id>" in xml_text
        assert "oldid=1206514418" in xml_text
        assert "Phosphorus was thought to be the source of light" in xml_text

    def test_failing_second_statement_exits_4_and_writes_no_report(self, runner, tmp_path,
                                                                    monkeypatch):
        """Overlapping statements keep the serial run's failure rule: the first
        failure in statement order gives the exit code, and nothing is written."""
        from kgverify.errors import Unavailable
        from kgverify.verifier import Verifier

        verify = Verifier.verify_via_wikipedia
        started = []
        second_failed = threading.Event()

        def second_fails(self, statement, **kwargs):
            started.append(statement.object_label)
            if statement.object_label == "luminescence":
                second_failed.set()
                raise Unavailable("second statement down")
            # the second starts once the first has queued its items and left a worker idle
            session = verify(self, statement, **kwargs)
            assert second_failed.wait(5.0)  # the first is still in flight when it fails
            return session

        monkeypatch.setattr(Verifier, "verify_via_wikipedia", second_fails)
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", "4")  # two statements at once
        out = tmp_path / "out"
        result = runner.invoke(main, [*uc2_three_times(tmp_path, "luminescence"),
                                      *replay_args(out)])
        assert result.exit_code == 4, result.output
        assert "second statement down" in result.output
        assert not out.exists()
        assert sorted(started) == ["luminescence", "phosphorescence"]  # the third never starts

    def test_an_entity_without_an_english_article_verifies_nothing(self, runner, tmp_path,
                                                                   monkeypatch):
        """The article is resolved once, before the first statement: an entity
        without an English article exits 6 before any statement starts."""
        from kgverify.net import HttpRequest, HttpResponse, write_fixture
        from kgverify.store import FixtureStore
        from kgverify.wikidata import WIKIDATA_API

        fixtures = tmp_path / "fixtures"
        entity_req = HttpRequest.get(WIKIDATA_API, params={
            "action": "wbgetentities", "ids": "Q99", "props": "info|labels|sitelinks/urls",
            "languages": "en", "sitefilter": "enwiki", "format": "json",
        })
        write_fixture(fixtures / "http", entity_req, HttpResponse(
            status=200, headers={"content-type": "application/json"},
            body=json.dumps({"entities": {"Q99": {
                "id": "Q99", "lastrevid": 5, "labels": {"en": {"value": "Nowhere"}},
                "sitelinks": {}}}}).encode(),
        ))
        completions = []
        monkeypatch.setattr(FixtureStore, "complete",
                            lambda self, params, prompt: completions.append(prompt))
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify-wikipedia", "Q99", "--statements",
                                      str(FIXTURES / "biolum_statements.tsv"),
                                      *replay_args(out, fixtures=fixtures)])
        assert result.exit_code == 6, result.output
        assert "error: entity Q99 has no English Wikipedia article" in result.output
        assert "verifying:" not in result.output
        assert completions == []
        assert not out.exists()

    def test_a_missing_revision_record_ends_the_run_before_its_first_statement(
            self, runner, tmp_path, monkeypatch):
        """The article's revision is asked before the first statement: a replay
        that lacks its record exits 5 having asked no completion, and writes nothing."""
        from kgverify.store import FixtureStore

        completions = []
        complete = FixtureStore.complete

        def counted(self, params, prompt):
            completions.append(prompt)
            return complete(self, params, prompt)

        monkeypatch.setattr(FixtureStore, "complete", counted)
        result = runner.invoke(main, fault_args("revision-record-missing", tmp_path))
        assert result.exit_code == 5, result.output
        assert "error: no recorded fixture" in result.output
        assert "verifying:" not in result.output
        assert completions == []
        assert not (tmp_path / "out").exists()

    def test_one_entity_lookup_per_run(self, runner, tmp_path, monkeypatch):
        """Three statements ask the subject's entity record once in all, before
        the first statement: it gives both the article and the report summary."""
        from kgverify.wikidata import WikidataClient

        entity_info = WikidataClient.entity_info
        asked = []

        def counted(self, entity):
            asked.append(str(entity))
            return entity_info(self, entity)

        monkeypatch.setattr(WikidataClient, "entity_info", counted)
        result = runner.invoke(main, [*uc2_three_times(tmp_path), *replay_args(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert result.output.count("verifying:") == 3
        assert asked == ["Q179924"]

    def test_chunk_over_the_context_budget_is_a_skip(self, runner, tmp_path, monkeypatch):
        """An article chunk over the context budget is recorded as a skip in a
        complete report, not a failed run."""
        from kgverify.reporting import validate_report

        monkeypatch.setenv("KGVERIFY_LLM_CONTEXT_TOKENS", "200")
        result = runner.invoke(main, [*UC2[0], *replay_args(tmp_path)])
        assert result.exit_code == 0, result.output
        root = ET.fromstring((tmp_path / f"{UC2[1]}.xml").read_bytes())
        validate_report(root)
        (session,) = root.findall("session")
        skips = session.findall("skips/skip")
        assert [(skip.get("kind"), skip.get("target")) for skip in skips] == [
            ("context-overflow", "https://en.wikipedia.org/wiki/Bioluminescence")]
        assert skips[0].text == "prompt of 1462 chars exceeds budget of 800 chars"
        assert session.findtext("paragraphs-queried") == "0"
        assert len(session.find("traces")) == 0
        assert (tmp_path / f"{UC2[1]}.html").exists()

    def test_a_byte_order_mark_is_not_content(self, runner, tmp_path):
        """A statements file and a config file saved with a UTF-8 BOM are read
        as without it: the first subject carries no BOM, so the replay finds
        its fixtures and writes the same report."""
        statements, config = tmp_path / "bom.tsv", tmp_path / "bom.json"
        line = (FIXTURES / "biolum_statements.tsv").read_text(encoding="utf-8")
        statements.write_text("\ufeff" + line, encoding="utf-8")
        config.write_text('\ufeff{"llm_requests": 1}', encoding="utf-8")
        result = runner.invoke(main, [*UC2[0][:2], "--statements", str(statements),
                                      *UC2[0][4:], "--config", str(config),
                                      *replay_args(tmp_path / "bom")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [*UC2[0], *replay_args(tmp_path / "plain")])
        assert result.exit_code == 0, result.output
        assert ((tmp_path / "bom" / f"{UC2[1]}.xml").read_bytes()
                == (tmp_path / "plain" / f"{UC2[1]}.xml").read_bytes())

    def test_malformed_statements_file(self, runner, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-one-column\n", encoding="utf-8")
        result = runner.invoke(main, [
            "verify-wikipedia", "Q179924", "--statements", str(bad),
            *replay_args(tmp_path),
        ])
        assert result.exit_code == 3
        assert "line 1" in result.output

    def test_empty_statements_file(self, runner, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing here\n", encoding="utf-8")
        result = runner.invoke(main, [
            "verify-wikipedia", "Q179924", "--statements", str(empty),
            *replay_args(tmp_path),
        ])
        assert result.exit_code == 3

    def test_unreadable_statements_reported_before_live_setup(self, runner, tmp_path,
                                                              monkeypatch):
        # without an LLM token a live runtime cannot be built: the input error comes first
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        result = runner.invoke(main, [
            "verify-wikipedia", "Q1", "--statements", str(tmp_path / "nonexistent.tsv"),
            "--live", "--out", str(tmp_path),
        ])
        assert result.exit_code == 3, result.output
        assert "cannot read statements file" in result.output


class TestTraceAudit:
    """A reader can re-check every evidence trace of a replayed report from the
    report and the recorded fixtures alone."""

    @pytest.mark.parametrize("command,run_id,traces", [(*UC1, 2), (*UC2, 1)],
                             ids=["uc1", "uc2"])
    def test_each_trace_rests_on_its_completion_and_its_page(self, runner, tmp_path,
                                                             command, run_id, traces):
        from kgverify.html_text import extract_paragraphs, strip_archive_chrome
        from kgverify.llm import (LlmParams, completion_fingerprint, extract_justification,
                                  parse_option)
        from kgverify.model import Statement, VerdictKind
        from kgverify.net import HttpRequest
        from kgverify.store import FixtureStore

        result = runner.invoke(main, [*command, *replay_args(tmp_path)])
        assert result.exit_code == 0, result.output
        root = ET.fromstring((tmp_path / f"{run_id}.xml").read_bytes())
        records = [json.loads(line) for line in
                   (REPLAY_DIR / "llm" / "responses.jsonl").read_bytes().splitlines()]
        completions = {record["fingerprint"]: record["raw_text"] for record in records}
        pages = FixtureStore(REPLAY_DIR)
        audited = 0
        for session in root.findall("session"):
            statement = Statement(*(session.findtext(f"statement/{part}")
                                    for part in ("subject", "predicate", "object")))
            for trace in session.findall("traces/trace"):
                paragraph, url = trace.findtext("paragraph"), trace.findtext("document-url")
                prompt = render_rdf_prompt(statement, paragraph)
                raw = completions[completion_fingerprint(
                    LlmParams(model=trace.findtext("llm-model")), prompt)]
                assert trace.findtext("verdict") == "direct-proof"
                assert parse_option(raw) is VerdictKind.DIRECT_PROOF
                assert extract_justification(raw) == trace.findtext("justification")
                html = pages.send(HttpRequest.get(url)).text
                if trace.findtext("retrieval-source") == "web-archive":
                    html = strip_archive_chrome(html)
                assert paragraph in extract_paragraphs(html)
                # the article is never an authority, only the sources it cites
                assert url != root.findtext("summary/wikipedia-url")
                audited += 1
        assert audited == traces


class TestConfig:
    @pytest.mark.parametrize("command", [
        ["evaluate", "--task", "triples", "--live", "--dataset", "dataset/biored_verify.jsonl"],
        [*UC1[0], "--replay", "--fixtures", str(REPLAY_DIR)],
    ])
    def test_unknown_decision_mode_is_a_usage_error(self, runner, tmp_path, monkeypatch,
                                                    command):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["build-dataset", "--biored", str(FIXTURES / "biored_mini"),
                                      "--out", "dataset"])
        assert result.exit_code == 0, result.output
        # no LLM token: building a live runtime would fail with exit 4 instead
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        monkeypatch.setenv("KGVERIFY_DECISION_MODE", "bogus")
        result = runner.invoke(main, [*command, "--out", "out"])
        assert result.exit_code == 2, result.output
        assert "unknown decision mode 'bogus'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload,message", [
        ({"hit_limit": [5]}, "bad value for hit_limit"),
        ({"sparql_requests": 2, "fetch_requests": 4},
         "unknown configuration keys: fetch_requests, sparql_requests"),
        ({"max_statements": -1}, "max_statements must be at least 1"),
        ({"max_statements": 0}, "max_statements must be at least 1"),
        ({"hit_limit": 0}, "hit_limit must be at least 1"),
        ({"chunk_chars": 10000}, "unknown configuration keys: chunk_chars"),
        ([1, 2], "cannot read config file"),
        ({"llm_context_tokens": 0}, "llm_context_tokens must be at least 1"),
        ({"llm_context_tokens": -5}, "llm_context_tokens must be at least 1"),
        ({"hit_limit": 11}, "hit_limit must be at most 10"),
        ({"cache_ttl_seconds": float("nan")}, "cache_ttl_seconds must be a number of at least 0"),
        ({"cache_ttl_seconds": -1}, "cache_ttl_seconds must be a number of at least 0"),
    ])
    def test_bad_config_file_is_a_usage_error(self, runner, tmp_path, payload, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        # without UC1's --max-statements flag, which would override the file's
        result = runner.invoke(main, [*UC1[0][:2], *replay_args(tmp_path),
                                      "--config", str(config)])
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "manifest.json").exists()

    def test_a_hit_limit_above_the_search_api_maximum_asks_nothing(self, runner, tmp_path,
                                                                   live_remote):
        """The search API returns at most 10 hits a request: a live run asked
        for 11 is a usage error (exit 2) before its SPARQL queries."""
        result = runner.invoke(main, [*UC1[0], "--hit-limit", "11", "--live",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "hit_limit must be at most 10" in result.output
        assert live_remote == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_cache_ttl_in_the_environment_asks_nothing(self, runner, tmp_path, monkeypatch,
                                                           live_remote, value):
        """A TTL that no age is within would silently ask every request again:
        it is a usage error (exit 2) before any request."""
        monkeypatch.setenv("KGVERIFY_CACHE_TTL_SECONDS", value)
        result = runner.invoke(main, [*UC1[0], "--live", "--cache-dir", str(tmp_path / "cache"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "cache_ttl_seconds must be a number of at least 0" in result.output
        assert live_remote == []
        assert not (tmp_path / "out").exists()

    def test_an_infinite_cache_ttl_never_expires(self, monkeypatch):
        monkeypatch.setenv("KGVERIFY_CACHE_TTL_SECONDS", "inf")
        assert RunConfig.resolve({}).cache_ttl_seconds == float("inf")

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("off", False),
    ])
    def test_boolean_spellings(self, monkeypatch, text, value):
        monkeypatch.setenv("KGVERIFY_REPLAY", text)
        monkeypatch.setenv("KGVERIFY_FIXTURES_DIR", str(REPLAY_DIR))
        assert RunConfig.resolve({}).replay is value

    @pytest.mark.parametrize("key,value,source", [
        ("replay", "ture", "environment"),
        ("replay", "ture", "config file"),
        ("fixed_clock", "bogus", "environment"),
        ("fixed_clock", "bogus", "flag"),
    ])
    def test_bad_value_is_a_usage_error_before_any_runtime(self, runner, tmp_path, monkeypatch,
                                                           key, value, source):
        # with no LLM token, building a live runtime (a misread replay) would exit 4
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        args = [*UC1[0], "--fixtures", str(REPLAY_DIR), "--out", str(tmp_path / "out")]
        if source == "environment":
            monkeypatch.setenv(f"KGVERIFY_{key.upper()}", value)
        elif source == "config file":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            args += ["--config", str(config)]
        else:
            args += ["--fixed-clock", value]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"bad value for {key}: {value!r}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_a_value_utf8_cannot_encode_is_a_usage_error(self, runner, tmp_path, monkeypatch,
                                                         source):
        """argv and the environment hold a byte that does not decode (``\\xff``)
        as a lone surrogate (``\\udcff``), which no request or prompt can carry."""
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        args = [*UC1[0], *replay_args(tmp_path / "out")]
        if source == "flag":
            key, value = "model", "\udcff"
            args += ["--model", value]
        else:
            key, value = "sparql_endpoint", "https://query.example/\udcff"
            monkeypatch.setenv("KGVERIFY_SPARQL_ENDPOINT", value)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"bad value for {key}: {value!r}" in result.output
        assert not (tmp_path / "out").exists()

    def test_a_path_may_be_any_name_the_system_accepts(self, tmp_path):
        """A POSIX name need not decode: ``--out`` and the fixture and cache
        directories are paths, which Python holds with lone surrogates."""
        names = {key: str(tmp_path / f"{key}\udcff") for key in ("out_dir", "fixtures_dir",
                                                                 "cache_dir")}
        config = RunConfig.resolve(dict(names))
        assert {key: getattr(config, key) for key in names} == names

    @pytest.mark.parametrize("text", ['{"model": "\\ud800"}', "[" * 100_000],
                             ids=["lone-surrogate", "nested-too-deeply"])
    def test_a_config_file_no_run_can_carry_is_a_usage_error(self, runner, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        result = runner.invoke(main, [*UC1[0], *replay_args(tmp_path / "out"),
                                      "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"cannot read config file {config}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload", [
        {"out_dir": 5}, {"out_dir": None}, {"model": ["m"]}, {"fixed_clock": 20240302},
        {"replay": 1}, {"llm_requests": 2.7}, {"max_statements": True}, {"hit_limit": 1.9},
        {"cache_ttl_seconds": True},
    ], ids=["int", "null", "list", "int-clock", "int-bool", "float-int", "bool-int",
            "float-hit-limit", "bool-float"])
    def test_wrong_typed_config_value_is_a_usage_error_before_any_runtime(
            self, runner, tmp_path, monkeypatch, payload):
        from kgverify.verifier import Verifier

        sessions = []
        monkeypatch.setattr(Verifier, "verify_via_web_search",
                            lambda self, *args: sessions.append(args))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("KGVERIFY_LLM_REQUESTS", raising=False)  # it would override the file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"replay": True, **payload}))
        # without UC1's --max-statements flag, which would override the file's
        result = runner.invoke(main, [*UC1[0][:2], "--fixtures", str(REPLAY_DIR),
                                      "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        key, value = next(iter(payload.items()))
        assert f"bad value for {key}: {value!r}" in result.output
        assert sessions == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,option", [
        (["report", "x.xml"], "--replay"),
        (["report", "x.xml"], "--model"),
        (["build-dataset", "--biored", "x"], "--fixed-clock"),
        (["build-dataset", "--biored", "x"], "--endpoint"),
        (UC1[0], "--decision-mode"),
        (["evaluate", "--dataset", "x"], "--endpoint"),
    ])
    def test_commands_take_only_the_options_they_read(self, runner, command, option):
        result = runner.invoke(main, [*command, option, "x"])
        assert result.exit_code == 2
        assert "No such option" in result.output and option in result.output


class TestBuildDataset:
    def test_mini_corpus(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("KGVERIFY_CORRUPTION_SEED", "7")  # --seed wins
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "build-dataset", "--biored", str(FIXTURES / "biored_mini"),
            "--seed", "42", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "Positive_Correlation: 3 positives, 3 negatives" in result.output
        instances = read_instances(out / "biored_verify.jsonl")
        assert len(instances) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset"]["relations"]["Negative_Correlation"]["positives"] == 2
        assert manifest["seeds"]["corruption"] == manifest["config"]["corruption_seed"] == 42

    def test_rerun_same_seed_byte_identical(self, runner, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "build-dataset", "--biored", str(FIXTURES / "biored_mini"),
                "--seed", "42", "--out", str(out),
            ])
            assert result.exit_code == 0
            outputs.append((out / "biored_verify.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_input_path(self, runner, tmp_path):
        result = runner.invoke(main, [
            "build-dataset", "--biored", str(tmp_path / "nope"), "--out", str(tmp_path),
        ])
        assert result.exit_code == 3

    def test_a_positive_without_a_replacement_is_skipped(self, runner, tmp_path):
        """A one-document corpus has a single disease, so its gene-disease
        positive has no replacement: the run still writes the dataset and
        names the skip."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(FIXTURES / "biored_mini" / "Test_mini.BioC.JSON", corpus)
        out = tmp_path / "out"
        result = runner.invoke(main, ["build-dataset", "--biored", str(corpus), "--seed", "42",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "Negative_Correlation: 1 positives, 0 negatives" in result.output
        assert "skipped 1 positives with no usable replacement" in result.output
        assert len(read_instances(out / "biored_verify.jsonl")) == 3


class TestEvaluate:
    def build_dataset(self, runner, tmp_path) -> Path:
        out = tmp_path / "dataset"
        result = runner.invoke(main, [
            "build-dataset", "--biored", str(FIXTURES / "biored_mini"),
            "--seed", "42", "--out", str(out),
        ])
        assert result.exit_code == 0
        return out / "biored_verify.jsonl"

    def test_triples_replay(self, runner, tmp_path):
        dataset = self.build_dataset(runner, tmp_path)
        out = tmp_path / "eval"
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(dataset), "--task", "triples",
            "--replay", "--fixtures", str(FIXTURES / "eval_replay"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        results = json.loads((out / "results.json").read_text())
        overall = results["overall"]
        # scripted replay: one flipped positive and one flipped negative
        assert (overall["tp"], overall["tn"], overall["fp"], overall["fn"]) == (4, 4, 1, 1)
        assert overall["precision"] == 80.0
        assert overall["recall"] == 80.0

    def test_nli_replay(self, runner, tmp_path):
        out = tmp_path / "nli"
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(FIXTURES / "snli" / "test_mini.jsonl"),
            "--task", "nli", "--snli-train", str(FIXTURES / "snli" / "train_mini.jsonl"),
            "--replay", "--fixtures", str(FIXTURES / "eval_replay"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        results = json.loads((out / "results.json").read_text())
        assert results["total"] == 12
        assert results["unparsed"] == 1
        assert results["accuracy"] == 83.3
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["example_pair_ids"]) == 3

    @pytest.mark.parametrize("sample,code", [(3, 0), (99, 3), (-1, 2), (0, 2)])
    def test_nli_sample(self, runner, tmp_path, sample, code):
        """--sample N judges N records drawn by the sample seed (the paper's
        sampled SNLI protocol); more than the split holds exits 3, fewer than
        one is a usage error."""
        out = tmp_path / "nli"
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(FIXTURES / "snli" / "test_mini.jsonl"),
            "--task", "nli", "--snli-train", str(FIXTURES / "snli" / "train_mini.jsonl"),
            "--sample", str(sample), "--replay", "--fixtures", str(FIXTURES / "eval_replay"),
            "--out", str(out),
        ])
        assert result.exit_code == code, result.output
        if code:
            assert ("error: requested 99 records but the split holds only 12" if code == 3
                    else f"{sample} is not in the range x>=1") in result.output
            assert not out.exists()
            return
        assert json.loads((out / "results.json").read_text())["total"] == 3
        assert json.loads((out / "manifest.json").read_text())["records"] == 3

    @pytest.mark.parametrize("flags", [
        ["--sample", "3"],
        ["--snli-train", "/nonexistent/train.jsonl"],
        ["--sample", "3", "--snli-train", "/nonexistent/train.jsonl"],
    ], ids=["sample", "snli-train", "both"])
    def test_nli_flags_with_the_triples_task_are_a_usage_error(self, runner, tmp_path, flags):
        """--task triples reads neither flag: naming one exits 2 before any
        input is read (the dataset here does not exist, which would exit 3)."""
        out = tmp_path / "eval"
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(tmp_path / "nonexistent.jsonl"), "--task", "triples",
            *flags, "--replay", "--fixtures", str(FIXTURES / "eval_replay"), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "--sample and --snli-train apply only to --task nli" in result.output
        assert not out.exists()

    def evaluate_args(self, runner, tmp_path, task: str) -> list[str]:
        if task == "triples":
            inputs = ["--dataset", str(self.build_dataset(runner, tmp_path))]
        else:
            inputs = ["--dataset", str(FIXTURES / "snli" / "test_mini.jsonl"),
                      "--snli-train", str(FIXTURES / "snli" / "train_mini.jsonl")]
        return ["evaluate", *inputs, "--task", task,
                "--replay", "--fixtures", str(FIXTURES / "eval_replay")]

    @pytest.mark.parametrize("task", ["triples", "nli"])
    def test_replay_bytes_match_at_width_one(self, runner, tmp_path, monkeypatch, task):
        """Results do not depend on how many instances are judged at once."""
        args = self.evaluate_args(runner, tmp_path, task)
        out = tmp_path / "eval"
        outputs = []
        for width in ("1", None):
            if width is None:
                monkeypatch.delenv("KGVERIFY_LLM_REQUESTS", raising=False)
            else:
                monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", width)
            result = runner.invoke(main, [*args, "--out", str(out)])
            assert result.exit_code == 0, result.output
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["llm_requests"] == int(width or 4)
            outputs.append([(out / name).read_bytes()
                            for name in ("results.json", "results.txt", "manifest.json")])
        # the manifest records the width itself; nothing else may differ
        outputs[0][2] = outputs[0][2].replace(b'"llm_requests": 1', b'"llm_requests": 4')
        assert outputs[0] == outputs[1]

    @staticmethod
    def patch_complete(monkeypatch, fail):
        """Each model call waits, 10 ms for the first three and 100 ms for
        later ones, then raises what ``fail(call_number, prompt)`` returns, if
        anything. So a failure among the first three surfaces while a later
        call still runs. Returns the counts of calls started and still running."""
        original = LlmGateway.complete
        lock = threading.Lock()
        counts = {"started": 0, "running": 0}

        def complete(self, prompt):
            with lock:
                counts["started"] += 1
                counts["running"] += 1
                number = counts["started"]
            try:
                time.sleep(0.01 if number <= 3 else 0.1)
                exc = fail(number, prompt)
                if exc is not None:
                    raise exc
                return original(self, prompt)
            finally:
                with lock:
                    counts["running"] -= 1

        monkeypatch.setattr(LlmGateway, "complete", complete)
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", "4")
        return counts

    def assert_nothing_written(self, out: Path) -> None:
        for name in ("results.json", "results.txt", "manifest.json"):
            assert not (out / name).exists()

    @pytest.mark.parametrize("task,instances", [("triples", 10), ("nli", 12)])
    def test_interrupt_exits_130_after_every_task_ends(self, runner, tmp_path, monkeypatch,
                                                       task, instances):
        args = self.evaluate_args(runner, tmp_path, task)
        counts = self.patch_complete(
            monkeypatch, lambda number, prompt: KeyboardInterrupt() if number == 3 else None)
        out = tmp_path / "eval"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 130, result.output
        assert "error: interrupted" in result.output
        assert "Traceback" not in result.output
        assert counts["running"] == 0
        # tasks still queued when the interrupt came never ran
        assert counts["started"] < instances
        self.assert_nothing_written(out)

    def test_context_overflow_exits_1(self, runner, tmp_path, monkeypatch):
        args = self.evaluate_args(runner, tmp_path, "triples")
        counts = self.patch_complete(
            monkeypatch,
            lambda number, prompt: ContextOverflow("too long") if number == 3 else None)
        out = tmp_path / "eval"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "error: too long" in result.output
        assert counts["running"] == 0
        self.assert_nothing_written(out)

    def test_first_failure_in_instance_order_wins(self, runner, tmp_path, monkeypatch):
        args = self.evaluate_args(runner, tmp_path, "triples")
        prompts = [render_rdf_prompt(i.statement, i.grounding_text)
                   for i in read_instances(args[args.index("--dataset") + 1])]

        def fail(number, prompt):
            # the second instance fails last, after the third
            if prompt == prompts[1]:
                time.sleep(0.15)
                return ContextOverflow("instance 2 overflows")
            if prompt == prompts[2]:
                return ProviderUnavailable("instance 3 unavailable")
            return None

        counts = self.patch_complete(monkeypatch, fail)
        out = tmp_path / "eval"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "instance 2 overflows" in result.output
        assert "instance 3" not in result.output
        assert counts["running"] == 0
        self.assert_nothing_written(out)

    def test_unreadable_dataset_reported_before_live_setup(self, runner, tmp_path, monkeypatch):
        """Input errors keep their exit code even without LLM credentials."""
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(tmp_path / "nonexistent.jsonl"), "--task", "triples",
            "--live", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 3, result.output
        assert "cannot read dataset" in result.output

    def test_missing_snli_train_reported_before_live_setup(self, runner, tmp_path,
                                                           monkeypatch):
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN", raising=False)
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(FIXTURES / "snli" / "test_mini.jsonl"),
            "--task", "nli", "--live", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert "--snli-train" in result.output

    def test_empty_dataset(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(empty), "--task", "triples",
            "--replay", "--fixtures", str(FIXTURES / "eval_replay"),
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 3


class TestReport:
    @pytest.mark.parametrize("command,run_id", [UC1, UC2], ids=["uc1", "uc2"])
    def test_rerender(self, runner, tmp_path, command, run_id):
        """``report`` re-renders a run's HTML byte for byte from its XML; uc2's
        report also holds a Wikipedia anchor."""
        run_out = tmp_path / "run"
        result = runner.invoke(main, [*command, *replay_args(run_out)])
        assert result.exit_code == 0
        xml_path = run_out / f"{run_id}.xml"
        rerender_out = tmp_path / "rerender"
        result = runner.invoke(main, [
            "report", str(xml_path), "--out", str(rerender_out),
        ])
        assert result.exit_code == 0, result.output
        regenerated = (rerender_out / f"{run_id}.html").read_bytes()
        original = (run_out / f"{run_id}.html").read_bytes()
        assert regenerated == original

    def test_invalid_xml_fails_cleanly(self, runner, tmp_path):
        broken = tmp_path / "broken.xml"
        broken.write_text("<verification-report <<<", encoding="utf-8")
        result = runner.invoke(main, ["report", str(broken), "--out", str(tmp_path)])
        assert result.exit_code == 7
        assert "well-formed" in result.output

    @pytest.mark.parametrize("fault,code,named", [
        ("directory", 3, "cannot read report"),
        ("missing", 3, "cannot read report"),
        ("not-well-formed", 7, "not well-formed XML"),
        ("wrong-root", 7, "unexpected root element"),
        ("child-in-a-value", 7,
         "verification-report/summary[1]/llm-model[1]: element must not have children"),
        ("stray-text", 7, "verification-report/summary[1]: unexpected text content"),
        ("text-after-a-child", 7,
         "verification-report/summary[1]: unexpected text after <llm-model>"),
    ])
    def test_a_failed_report_exits_with_its_code_and_creates_no_output(self, runner, tmp_path,
                                                                       fault, code, named):
        xml_file = tmp_path / "in.xml"
        if fault == "directory":
            xml_file.mkdir()
        elif fault == "not-well-formed":
            xml_file.write_text("<verification-report <<<", encoding="utf-8")
        elif fault == "wrong-root":
            xml_file.write_text("<html/>", encoding="utf-8")
        elif fault != "missing":  # uc1's report, tampered with
            assert runner.invoke(main, [*UC1[0], *replay_args(tmp_path / "run")]).exit_code == 0
            text = (tmp_path / "run" / f"{UC1[1]}.xml").read_text(encoding="utf-8")
            old, new = {"child-in-a-value": ("</llm-model>", "<b/></llm-model>"),
                        "stray-text": ("<summary>", "<summary>stray"),
                        "text-after-a-child": ("</llm-model>", "</llm-model>tail")}[fault]
            assert old in text
            xml_file.write_text(text.replace(old, new, 1), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["report", str(xml_file), "--out", str(out)])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"error: {named}" in result.output
        if code == 3:
            assert str(xml_file) in result.output
        assert not out.exists()


class TestPoolWidth:
    """Reports do not depend on how wide a session fans out."""

    @pytest.mark.parametrize("command,run_id", [
        (["verify-wikidata", "Q36233", "--max-statements", "1"], "verify-wikidata-Q36233"),
        (["verify-wikipedia", "Q179924", "--statements", str(FIXTURES / "biolum_statements.tsv"),
          "--model", "gpt-4-1106-preview"], "verify-wikipedia-Q179924"),
    ])
    def test_replay_bytes_match_at_width_one(self, runner, tmp_path, monkeypatch,
                                              command, run_id):
        outputs = []
        for width in ("1", None):
            if width is None:
                monkeypatch.delenv("KGVERIFY_LLM_REQUESTS", raising=False)
            else:
                monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", width)
            out = tmp_path / f"width-{width}"
            result = runner.invoke(main, [*command, *replay_args(out)])
            assert result.exit_code == 0, result.output
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["llm_requests"] == int(width or 4)
            outputs.append([(out / f"{run_id}.{ext}").read_bytes() for ext in ("xml", "html")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [UC1[0], UC2[0]], ids=["verify-wikidata",
                                                               "verify-wikipedia"])
    def test_a_run_that_fails_early_stops_its_workers(self, runner, tmp_path, command):
        """A replay over no fixtures fails on its first request (exit 5), the
        subject's entity lookup, before the first statement. No worker of the
        run is left alive."""
        before = set(threading.enumerate())
        result = runner.invoke(main, [*command, *replay_args(tmp_path / "out",
                                                             fixtures=tmp_path)])
        assert result.exit_code == 5, result.output
        assert "error: no recorded fixture" in result.output
        leaked = [thread for thread in threading.enumerate()
                  if thread.name == "kgverify" and thread not in before]
        assert leaked == []

    @pytest.mark.parametrize("command,width,nth", [
        (["evaluate", "--dataset", str(FIXTURES / "snli" / "test_mini.jsonl"), "--task", "nli",
          "--snli-train", str(FIXTURES / "snli" / "train_mini.jsonl"),
          "--replay", "--fixtures", str(FIXTURES / "eval_replay")], 2, 2),
        ([*UC1[0], "--replay", "--fixtures", str(REPLAY_DIR)], 3, 5),
    ], ids=["run-pool", "statement-pool"])
    def test_a_worker_that_cannot_start_exits_1(self, runner, tmp_path, monkeypatch,
                                                command, width, nth):
        """A thread or process limit makes a ``Thread.start`` raise
        RuntimeError: at the run pool's second worker (evaluate), or at the
        statements' second (a verify run, whose run pool has 3). The command
        exits 1 with an ``error:`` line and writes nothing; no statement
        runs, and the workers that started stop."""
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", str(width))
        before = set(threading.enumerate())
        interrupt_thread_start(monkeypatch, "kgverify", nth, start=False,
                               error=RuntimeError("can't start new thread"))
        result = runner.invoke(main, [*command, "--out", str(tmp_path / "out")])
        monkeypatch.undo()
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "error: cannot start a worker thread: can't start new thread" in result.output
        assert "verifying:" not in result.output
        assert not (tmp_path / "out").exists()
        assert [thread for thread in threading.enumerate()
                if thread.name == "kgverify" and thread not in before] == []

    def test_request_knobs_must_be_positive(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", "0")
        result = runner.invoke(main, [
            "verify-wikidata", "Q36233", *replay_args(tmp_path),
        ])
        assert result.exit_code == 2
        assert "llm_requests" in result.output

    @pytest.mark.parametrize("width", [1, 4])
    def test_requests_in_flight_never_exceed_the_width(self, runner, tmp_path, monkeypatch,
                                                       width):
        """Across every remote (wiki APIs, pages, the archive, the LLM) at once,
        a live run has at most llm_requests requests in flight, and at most
        max(1, llm_requests - 1) statements."""
        from urllib.parse import parse_qsl

        import requests

        from kgverify.net import HttpRequest
        from kgverify.verifier import Verifier

        lock = threading.Lock()
        seen = {"in_flight": 0, "peak": 0, "requests": 0, "statements": 0, "statement_peak": 0}
        verify = Verifier.verify_via_wikipedia

        def counted_verify(self, statement, **kwargs):
            with lock:
                seen["statements"] += 1
                seen["statement_peak"] = max(seen["statement_peak"], seen["statements"])
            try:
                return verify(self, statement, **kwargs)
            finally:
                with lock:
                    seen["statements"] -= 1

        def slow_remote(adapter, prepared, **kwargs):
            with lock:
                seen["in_flight"] += 1
                seen["requests"] += 1
                seen["peak"] = max(seen["peak"], seen["in_flight"])
            try:
                time.sleep(0.01)
                url, _, query = prepared.url.partition("?")
                params = tuple(sorted(parse_qsl(query, keep_blank_values=True)))
                answer = answer_from_fixtures(
                    HttpRequest(prepared.method, url, params, body=prepared.body))
            finally:
                with lock:
                    seen["in_flight"] -= 1
            resp = requests.Response()
            resp.status_code, resp._content, resp.url = answer.status, answer.body, answer.url
            resp.headers.update(answer.headers)
            return resp

        monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", slow_remote)
        monkeypatch.setattr(Verifier, "verify_via_wikipedia", counted_verify)
        monkeypatch.setenv("KGVERIFY_LLM_TOKEN", "test-token")
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", str(width))
        result = runner.invoke(main, [*uc2_three_times(tmp_path), "--live",
                                      "--out", str(tmp_path / "out"),
                                      "--fixed-clock", "2024-03-02T13:27:25Z"])
        assert result.exit_code == 0, result.output
        assert seen["requests"] > 10
        assert seen["peak"] <= width
        assert seen["peak"] > 1 or width == 1  # the run did fan out
        assert seen["statement_peak"] <= max(1, width - 1)
        assert seen["statement_peak"] > 1 or width == 1  # statements did overlap

    def test_live_statements_bytes_match_at_width_one(self, runner, tmp_path, live_remote,
                                                      monkeypatch):
        """Overlapping statements in a live run write the serial run's reports,
        with the sessions in statement order."""
        import types

        from kgverify.errors import FixtureMissing
        from kgverify.net import HttpResponse, LiveTransport

        remote = LiveTransport.send

        def send(self, req):
            try:
                return remote(self, req)
            except FixtureMissing:  # the second statement's prompts: no support
                return HttpResponse(201, {"content-type": "application/json"},
                                    b'{"output": "The correct answer is: c)"}')

        monkeypatch.setattr(LiveTransport, "send", send)
        # a completion's latency is reported; pin it so the runs can be compared
        monkeypatch.setattr("kgverify.llm.time", types.SimpleNamespace(monotonic=lambda: 0.0))
        command = uc2_three_times(tmp_path, "luminescence")
        outputs = []
        for width in ("1", "4"):
            monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", width)
            out = tmp_path / f"width-{width}"
            result = runner.invoke(main, [*command, "--live", "--out", str(out),
                                          "--fixed-clock", "2024-03-02T13:27:25Z"])
            assert result.exit_code == 0, result.output
            assert result.output.count("verifying: ") == 3
            outputs.append([(out / f"{UC2[1]}.{ext}").read_bytes() for ext in ("xml", "html")])
        assert outputs[0] == outputs[1]
        sessions = ET.fromstring(outputs[0][0]).findall("session")
        objects = [session.find("statement/object").text for session in sessions]
        assert objects == ["phosphorescence", "luminescence", "phosphorescence"]


def main_thread_waits() -> bool:
    """Whether the main thread is inside a ``threading`` wait, as it is while
    it waits for statements to start or end."""
    frame = sys._current_frames().get(threading.main_thread().ident)
    while frame is not None:
        code = frame.f_code
        if code.co_name == "wait" and code.co_filename == threading.__file__:
            return True
        frame = frame.f_back
    return False


class TestInterrupt:
    """Ctrl-C during the sessions still writes a (partial) report, then exits 130."""

    def test_interrupt_while_resolving_the_article_writes_nothing(self, runner, tmp_path,
                                                                  monkeypatch):
        """A Ctrl-C before the first statement, here in verify-wikipedia's
        article lookup, exits 130 and writes nothing."""
        from kgverify.wikidata import WikidataClient

        def interrupt(self, entity):
            raise KeyboardInterrupt

        monkeypatch.setattr(WikidataClient, "entity_info", interrupt)
        out = tmp_path / "out"
        result = runner.invoke(main, [*UC2[0], *replay_args(out)])
        assert result.exit_code == 130, result.output
        assert "error: interrupted" in result.output
        assert "verifying:" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command,method,run_id", [
        (["verify-wikidata", "Q36233", "--max-statements", "1"],
         "verify_via_web_search", "verify-wikidata-Q36233"),
        (["verify-wikipedia", "Q179924", "--statements", str(FIXTURES / "biolum_statements.tsv"),
          "--model", "gpt-4-1106-preview"], "verify_via_wikipedia", "verify-wikipedia-Q179924"),
    ])
    def test_first_session_interrupted(self, runner, tmp_path, monkeypatch,
                                       command, method, run_id):
        from kgverify.reporting import validate_report
        from kgverify.verifier import Verifier

        calls = []

        def interrupt(self, *args, **kwargs):
            calls.append(args)
            raise KeyboardInterrupt

        monkeypatch.setattr(Verifier, method, interrupt)
        result = runner.invoke(main, [*command, *replay_args(tmp_path)])
        assert result.exit_code == 130, result.output
        assert len(calls) == 1
        root = ET.fromstring((tmp_path / f"{run_id}.xml").read_bytes())
        validate_report(root)
        assert root.findall("session") == []
        assert (tmp_path / f"{run_id}.html").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["sessions"] == 0
        assert manifest["traces"] == 0


    def test_a_live_interrupted_run_asks_nothing_after_the_interrupt(self, runner, tmp_path,
                                                                    live_remote, monkeypatch):
        """The report's Wikidata fields were asked before the first statement:
        a live run interrupted in its first session writes its partial report
        with no further request."""
        from kgverify.reporting import validate_report
        from kgverify.verifier import Verifier

        asked_before = []

        def interrupt(self, *args, **kwargs):
            asked_before.append(len(live_remote))
            raise KeyboardInterrupt

        monkeypatch.setattr(Verifier, "verify_via_web_search", interrupt)
        out = tmp_path / "out"
        result = runner.invoke(main, [*UC1[0], "--live", "--out", str(out),
                                      "--fixed-clock", "2024-03-02T13:27:25Z"])
        assert result.exit_code == 130, result.output
        assert asked_before == [len(live_remote)]
        validate_report(ET.fromstring((out / f"{UC1[1]}.xml").read_bytes()))
        assert json.loads((out / "manifest.json").read_text())["interrupted"] is True

    def test_second_statement_interrupted_writes_the_first_session(self, runner, tmp_path,
                                                                    monkeypatch):
        from kgverify.reporting import validate_report
        from kgverify.verifier import Verifier

        verify = Verifier.verify_via_wikipedia

        def interrupt_second(self, statement, **kwargs):
            if statement.object_label == "luminescence":
                raise KeyboardInterrupt
            return verify(self, statement, **kwargs)

        monkeypatch.setattr(Verifier, "verify_via_wikipedia", interrupt_second)
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", "4")  # two statements at once
        out = tmp_path / "out"
        result = runner.invoke(main, [*uc2_three_times(tmp_path, "luminescence"),
                                      *replay_args(out)])
        assert result.exit_code == 130, result.output
        root = ET.fromstring((out / f"{UC2[1]}.xml").read_bytes())
        validate_report(root)
        assert len(root.findall("session")) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["sessions"] == 1

    @pytest.mark.parametrize("in_flight", [1, 2])
    def test_sigint_lets_the_statements_in_flight_finish(self, runner, tmp_path, monkeypatch,
                                                         in_flight):
        """A real Ctrl-C reaches the main thread while statements are in flight,
        a lone statement too: they finish, and the report holds every one that did."""
        import signal

        from kgverify.reporting import validate_report
        from kgverify.verifier import Verifier

        verify = Verifier.verify_via_wikipedia
        arrivals = itertools.count()
        together = threading.Barrier(in_flight)
        interrupted = threading.Event()
        finished = []

        def on_sigint(signum, frame):
            if not interrupted.is_set():  # a signal sent again is not a second Ctrl-C
                interrupted.set()
                raise KeyboardInterrupt

        def interrupt_while_verifying(self, statement, **kwargs):
            # held once its session is done: the next statement starts only
            # after this one has queued its items and left a worker idle
            session = verify(self, statement, **kwargs)
            if next(arrivals) < in_flight:
                if together.wait(5.0) == 0:  # one of them, once all are in flight
                    # the Ctrl-C comes once the main thread waits (one while it
                    # starts a thread is tests/test_fanout.py's)
                    deadline = time.monotonic() + 5.0
                    while not main_thread_waits():
                        assert time.monotonic() < deadline, "the main thread never waited"
                        time.sleep(0.001)
                    # one that lands as the main thread enters its lock wait is
                    # handled only when that wait ends: send it until it is handled
                    while not interrupted.is_set():
                        assert time.monotonic() < deadline, "the Ctrl-C was never handled"
                        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                        interrupted.wait(0.05)
                assert interrupted.wait(5.0)
            finished.append(statement)
            return session

        monkeypatch.setattr(Verifier, "verify_via_wikipedia", interrupt_while_verifying)
        monkeypatch.setenv("KGVERIFY_LLM_REQUESTS", "4")  # two statements at once
        command = UC2[0] if in_flight == 1 else uc2_three_times(tmp_path)
        out = tmp_path / "out"
        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            result = runner.invoke(main, [*command, *replay_args(out)])
        finally:
            signal.signal(signal.SIGINT, previous)
        assert result.exit_code == 130, result.output
        assert len(finished) >= in_flight
        root = ET.fromstring((out / f"{UC2[1]}.xml").read_bytes())
        validate_report(root)
        assert len(root.findall("session")) == len(finished)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["sessions"] == len(finished)


    def test_one_sigint_is_handled_within_a_second(self, runner, tmp_path, monkeypatch):
        """One Ctrl-C, sent once the main thread waits for the statements, is
        handled within a second, not only when the statement in flight ends."""
        import signal

        from kgverify.verifier import Verifier

        verify = Verifier.verify_via_wikipedia
        handled = threading.Event()
        delays = []

        def on_sigint(signum, frame):
            handled.set()
            raise KeyboardInterrupt

        def interrupt_once_waited_for(self, statement, **kwargs):
            await_thread_blocked_in("join")
            sent = time.monotonic()
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            handled.wait(5.0)  # the statement stays in flight until then
            delays.append(time.monotonic() - sent)
            return verify(self, statement, **kwargs)

        monkeypatch.setattr(Verifier, "verify_via_wikipedia", interrupt_once_waited_for)
        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            result = runner.invoke(main, [*UC2[0], *replay_args(tmp_path / "out")])
        finally:
            signal.signal(signal.SIGINT, previous)
        assert result.exit_code == 130, result.output
        assert len(delays) == 1 and delays[0] < 1.0, delays

    def test_a_second_sigint_still_lets_the_statement_in_flight_finish(self, runner, tmp_path,
                                                                        monkeypatch):
        """Two Ctrl-Cs while the main thread waits for the statements: the
        second ends that wait, but closing the statements' pool still waits
        for the statement in flight, and the report holds its session."""
        import signal

        from kgverify.reporting import validate_report
        from kgverify.verifier import Verifier

        verify = Verifier.verify_via_wikipedia
        handled, finished = [], []

        def on_sigint(signum, frame):
            handled.append(signum)
            raise KeyboardInterrupt

        def interrupt_twice(self, statement, **kwargs):
            for count in (1, 2):
                await_thread_blocked_in("join")
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                deadline = time.monotonic() + 5.0
                while len(handled) < count:
                    assert time.monotonic() < deadline, f"Ctrl-C {count} was never handled"
                    time.sleep(0.001)
            session = verify(self, statement, **kwargs)
            finished.append(statement)
            return session

        monkeypatch.setattr(Verifier, "verify_via_wikipedia", interrupt_twice)
        out = tmp_path / "out"
        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            result = runner.invoke(main, [*UC2[0], *replay_args(out)])
        finally:
            signal.signal(signal.SIGINT, previous)
        assert result.exit_code == 130, result.output
        assert len(handled) == 2 and len(finished) == 1
        root = ET.fromstring((out / f"{UC2[1]}.xml").read_bytes())
        validate_report(root)
        assert len(root.findall("session")) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["interrupted"] is True and manifest["sessions"] == 1


class TestLiveWithCache:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_a_cache_dir_that_cannot_be_a_directory_asks_nothing(self, runner, tmp_path,
                                                                live_remote, under):
        """A live run whose --cache-dir names a file, or lies under one, is a
        usage error (exit 2) before any request; a replay never writes there."""
        taken = tmp_path / "taken"
        taken.write_text("")
        cache = taken / "cache" if under else taken
        result = runner.invoke(main, [*UC1[0], "--live", "--cache-dir", str(cache),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"cache directory {cache}: {taken} is not a directory" in result.output
        assert live_remote == []
        assert not (tmp_path / "out").exists()
        result = runner.invoke(main, [*UC1[0], *replay_args(tmp_path / "replay"),
                                      "--cache-dir", str(cache)])
        assert result.exit_code == 0, result.output

    def test_a_cache_that_cannot_take_a_record_exits_1(self, runner, tmp_path, live_remote):
        """A live run whose cache cannot take a record (here ``http`` is a file)
        exits 1 with ``error: cannot write`` naming the record, as an output
        file does, and writes no report."""
        out, cache = tmp_path / "out", tmp_path / "cache"
        cache.mkdir()
        (cache / "http").write_text("")
        result = runner.invoke(main, [*UC1[0], "--live", "--cache-dir", str(cache),
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert "Traceback" not in result.output
        assert re.search(rf"error: cannot write {re.escape(str(cache / 'http'))}/\w+\.json: "
                         "File exists", result.output), result.output
        assert not (out / f"{UC1[1]}.xml").exists()

    def test_completions_stay_out_of_the_page_cache(self, runner, tmp_path, live_remote):
        """A live run (its remote side served from the replay fixtures) caches
        pages and API answers under http/ and records every completion in
        llm/responses.jsonl, but never answers a completion from the cache."""
        cache = tmp_path / "cache"
        posts_per_run = []
        for out in (tmp_path / "out", tmp_path / "again"):
            result = runner.invoke(main, [
                *UC2[0], "--live", "--cache-dir", str(cache),
                "--out", str(out), "--fixed-clock", "2024-03-02T13:27:25Z",
            ])
            assert result.exit_code == 0, result.output
            posts_per_run.append(sum(method == "POST" for method, _ in live_remote))
        llm_posts = posts_per_run[0]
        assert llm_posts
        # a second run over the same cache asks the model again, every time
        assert posts_per_run[1] == 2 * llm_posts
        cached = [json.loads(p.read_text()) for p in cache.rglob("*.json")]
        assert {p.parent.name for p in cache.rglob("*.json")} == {"http"}
        assert all(r["request"]["method"] == "GET" for r in cached)
        assert not any("replicate" in r["request"]["url"] for r in cached)
        log_text = (tmp_path / "out" / "responses.jsonl").read_text()
        log = [json.loads(line) for line in log_text.splitlines()]
        assert len(log) == llm_posts
        assert {r["timestamp"] for r in log} == {"2024-03-02T13:27:25Z"}
        assert (cache / "llm" / "responses.jsonl").read_text() == (
            log_text + (tmp_path / "again" / "responses.jsonl").read_text())

    def test_search_api_get_is_cached_in_http(self, runner, tmp_path, live_remote,
                                              monkeypatch):
        """A cached run records the search API's GET in http/ like any other
        request, without its credentials; a run with another key hits it."""
        from kgverify.retrieval import GoogleSearchProvider

        cache = tmp_path / "cache"
        searches = []
        for key in ("first-key", "second-key"):
            monkeypatch.setenv("KGVERIFY_SEARCH_KEY", key)
            result = runner.invoke(main, [*UC1[0], "--live", "--cache-dir", str(cache),
                                          "--out", str(tmp_path / key)])
            assert result.exit_code == 0, result.output
            searches.append(live_remote.count(("GET", GoogleSearchProvider.API_URL)))
        assert searches == [1, 1]
        records = [json.loads(p.read_text()) for p in (cache / "http").iterdir()]
        (search,) = [r for r in records if r["request"]["url"] == GoogleSearchProvider.API_URL]
        params = dict(search["request"]["params"])
        assert params["key"] == params["cx"] == "<redacted>"
        assert params["num"] == "5"

    def test_replay_of_the_cache_matches_the_live_run(self, runner, tmp_path, live_remote):
        """--replay --fixtures C reproduces, byte for byte, the reports of the
        live runs that --cache-dir C recorded."""
        cache = tmp_path / "cache"
        clock = ["--fixed-clock", "2024-03-02T13:27:25Z"]
        for command, run_id in (UC1, UC2):
            result = runner.invoke(main, [*command, "--live", "--cache-dir", str(cache),
                                          "--out", str(tmp_path / "live"), *clock])
            assert result.exit_code == 0, result.output
        assert {p.name for p in cache.iterdir()} == {"http", "llm"}
        for path in cache.rglob("*"):
            if path.is_file():
                data = path.read_bytes()
                assert not any(secret.encode() in data for secret in CREDENTIALS.values())
        asked = len(live_remote)
        for command, run_id in (UC1, UC2):
            result = runner.invoke(main, [*command, *replay_args(tmp_path / "replay", cache)])
            assert result.exit_code == 0, result.output
            for ext in ("xml", "html"):
                live = (tmp_path / "live" / f"{run_id}.{ext}").read_bytes()
                assert (tmp_path / "replay" / f"{run_id}.{ext}").read_bytes() == live
        assert len(live_remote) == asked

    @pytest.mark.parametrize("command,run_id", [UC1, UC2], ids=["uc1", "uc2"])
    def test_live_run_asks_each_distinct_request_once(self, runner, tmp_path, live_remote,
                                                      monkeypatch, command, run_id):
        """Each distinct request, completions included, reaches the remote once
        per run, however often the run asks for it; the reports are the
        replay's bytes."""
        from kgverify.net import LiveTransport, request_fingerprint

        remote = LiveTransport.send
        sent = []

        def send(self, req):
            sent.append(request_fingerprint(req))
            return remote(self, req)

        monkeypatch.setattr(LiveTransport, "send", send)
        cache = tmp_path / "cache"
        clock = ["--fixed-clock", "2024-03-02T13:27:25Z"]
        result = runner.invoke(main, [*command, "--live", "--cache-dir", str(cache),
                                      "--out", str(tmp_path / "live"), *clock])
        assert result.exit_code == 0, result.output
        assert len(sent) == len(set(sent))
        result = runner.invoke(main, [*command, *replay_args(tmp_path / "replay", cache)])
        assert result.exit_code == 0, result.output
        for ext in ("xml", "html"):
            live = (tmp_path / "live" / f"{run_id}.{ext}").read_bytes()
            assert (tmp_path / "replay" / f"{run_id}.{ext}").read_bytes() == live

    def test_a_reused_completion_replays_with_its_first_latency(self, runner, tmp_path,
                                                               live_remote, monkeypatch):
        """Against a slow LLM, a completion that answers several judgments
        reports the first ask's latency for each, so the replay of the cached
        run is the live run's bytes."""
        from kgverify.net import LiveTransport

        remote = LiveTransport.send

        def slow(self, req):
            if req.method == "POST":
                time.sleep(0.02)
            return remote(self, req)

        monkeypatch.setattr(LiveTransport, "send", slow)
        statements = (FIXTURES / "biolum_statements.tsv").read_text(encoding="utf-8")
        twice = tmp_path / "twice.tsv"
        twice.write_text(statements + statements, encoding="utf-8")
        command = [*UC2[0][:2], "--statements", str(twice), *UC2[0][4:]]
        cache = tmp_path / "cache"
        result = runner.invoke(main, [*command, "--live", "--cache-dir", str(cache),
                                      "--out", str(tmp_path / "live"),
                                      "--fixed-clock", "2024-03-02T13:27:25Z"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [*command, *replay_args(tmp_path / "replay", cache)])
        assert result.exit_code == 0, result.output
        live = (tmp_path / "live" / f"{UC2[1]}.xml").read_text(encoding="utf-8")
        durations = [int(ms) for ms in re.findall(r"<duration-ms>(\d+)</duration-ms>", live)]
        assert len(durations) >= 2 and min(durations) >= 20
        for ext in ("xml", "html"):
            assert (tmp_path / "replay" / f"{UC2[1]}.{ext}").read_bytes() == (
                tmp_path / "live" / f"{UC2[1]}.{ext}").read_bytes()

    def test_repeated_statements_reuse_every_request(self, runner, tmp_path, live_remote,
                                                     monkeypatch):
        """A statement verified twice in one run asks the remote nothing new;
        the response log still holds one line per judgment."""
        from kgverify.net import LiveTransport

        remote = LiveTransport.send
        sent = []

        def send(self, req):
            sent.append((req.method, req.url, req.params, req.body))
            return remote(self, req)

        monkeypatch.setattr(LiveTransport, "send", send)
        statements = (FIXTURES / "biolum_statements.tsv").read_text(encoding="utf-8")
        twice = tmp_path / "twice.tsv"
        twice.write_text(statements + statements, encoding="utf-8")
        counts = []
        for name, path in (("once", FIXTURES / "biolum_statements.tsv"), ("twice", twice)):
            sent.clear()
            command = [*UC2[0][:2], "--statements", str(path), *UC2[0][4:]]
            result = runner.invoke(main, [*command, "--live", "--out", str(tmp_path / name),
                                          "--fixed-clock", "2024-03-02T13:27:25Z"])
            assert result.exit_code == 0, result.output
            assert len(set(sent)) == len(sent)
            log = (tmp_path / name / "responses.jsonl").read_text().splitlines()
            counts.append((len(sent), len(log)))
        (once_sent, once_logged), (twice_sent, twice_logged) = counts
        assert twice_sent == once_sent
        assert twice_logged == 2 * once_logged


    def test_a_live_manifest_names_no_fixtures(self, runner, tmp_path, live_remote):
        """A live run reads no fixtures, so its manifest names none, even with
        --fixtures set; its config snapshot keeps the setting as given. A
        replay's manifest names its fixtures and their digest."""
        manifests = {}
        for mode in ("--live", "--replay"):
            out = tmp_path / mode.strip("-")
            result = runner.invoke(main, [*UC1[0], mode, "--fixtures", str(REPLAY_DIR),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            manifests[mode] = json.loads((out / "manifest.json").read_text())
        live, replay = manifests["--live"], manifests["--replay"]
        assert (live["fixtures_dir"], live["fixtures_sha256"]) == (None, None)
        assert live["config"]["fixtures_dir"] == str(REPLAY_DIR)
        assert replay["fixtures_dir"] == str(REPLAY_DIR)
        assert re.fullmatch(r"[0-9a-f]{64}", replay["fixtures_sha256"])


class TestPageMemory:
    def test_a_run_keeps_the_parsed_text_of_its_pages_not_their_bodies(self, tmp_path,
                                                                     monkeypatch):
        """Distinct pages fetched through the runtime's fetcher leave allocated
        their parsed text and a small constant; their bodies are dropped, also
        those of the PDFs and 404 pages whose failures are kept."""
        from contextlib import closing

        from kgverify.cli import _Runtime
        from kgverify.errors import Unavailable, UnsupportedMediaType
        from kgverify.net import HttpResponse, LiveTransport

        pages, page_bytes = 40, 64 * 1024
        script = "<script>" + "var state = 0;\n" * (page_bytes // 15) + "</script>"
        paragraph = "words of the page " * 100

        def send(self, req):
            if req.url.endswith(".pdf"):
                return HttpResponse(200, {"content-type": "application/pdf"},
                                    b"%PDF-1.4" + bytes(page_bytes), req.url)
            body = f"<html><head>{script}</head><body><p>{req.url} {paragraph}</p></body></html>"
            status = 404 if req.url.endswith("/gone") else 200
            return HttpResponse(status, {"content-type": "text/html"}, body.encode(), req.url)

        monkeypatch.setattr(LiveTransport, "send", send)
        for name, value in CREDENTIALS.items():
            monkeypatch.setenv(name, value)
        with closing(_Runtime(RunConfig(out_dir=str(tmp_path)))) as runtime:
            fetch = runtime.fetcher.fetch_document
            fetch("https://warm-up.example/")  # what the first parse imports and caches
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                text = 0
                for i in range(pages):
                    text += sum(len(p) for p in fetch(f"https://site.example/{i}").paragraphs)
                    for failing in (f"https://site.example/{i}.pdf",
                                    f"https://site.example/{i}/gone"):
                        with pytest.raises((Unavailable, UnsupportedMediaType)):
                            fetch(failing)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert text > pages * len(paragraph)
        assert kept < text + 256 * 1024, f"{kept} bytes kept for {text} characters of text"


class TestResponseLogFailures:
    """A live run whose response log cannot be written exits 1 with an
    ``error: cannot write`` line naming the log, as an output file does, and
    writes no report."""

    @staticmethod
    def assert_cannot_write(result, out: Path, path: Path, reason: str) -> None:
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert "Traceback" not in result.output
        assert f"error: cannot write {path}: {reason}" in result.output
        assert not (out / f"{UC1[1]}.xml").exists()

    def test_a_directory_at_the_out_log(self, runner, tmp_path, live_remote):
        out = tmp_path / "out"
        (out / "responses.jsonl").mkdir(parents=True)
        result = runner.invoke(main, [*UC1[0], "--live", "--out", str(out)])
        self.assert_cannot_write(result, out, out / "responses.jsonl", "Is a directory")
        assert ("POST", ReplicateHttpProvider.API_URL.format(model=DEFAULT_MODEL)) in live_remote

    def test_a_directory_at_the_cache_log(self, runner, tmp_path, live_remote):
        out, cache = tmp_path / "out", tmp_path / "cache"
        (cache / "llm" / "responses.jsonl").mkdir(parents=True)
        result = runner.invoke(main, [*UC1[0], "--live", "--cache-dir", str(cache),
                                      "--out", str(out)])
        self.assert_cannot_write(result, out, cache / "llm" / "responses.jsonl",
                                 "Is a directory")

    def test_a_write_that_fails_mid_run(self, runner, tmp_path, live_remote, monkeypatch):
        """The second line's write raises as a full disk does; the lines
        written stay whole."""
        import errno
        import os

        import kgverify.llm

        open_for_append = kgverify.llm._open_for_append
        lines = []

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, line):
                lines.append(bytes(line))
                if len(lines) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.handle.write(line)

            def close(self):
                self.handle.close()

        monkeypatch.setattr(kgverify.llm, "_open_for_append",
                            lambda path: FullDisk(open_for_append(path)))
        out = tmp_path / "out"
        result = runner.invoke(main, [*UC1[0], "--live", "--out", str(out)])
        self.assert_cannot_write(result, out, out / "responses.jsonl", "No space left")
        written = (out / "responses.jsonl").read_bytes()
        assert written.startswith(lines[0])
        assert all(json.loads(line) for line in written.splitlines())


class TestRemoteFailures:
    """A live remote that cannot give a run what it needs, after the
    transport's retries, exits 4 with an ``error:`` line naming the failure."""

    @staticmethod
    def answer(monkeypatch, prefix: str, status: int, content_type: str, body: bytes) -> None:
        """Answer each live request for a URL starting with ``prefix`` so."""
        from kgverify.net import HttpResponse, LiveTransport

        remote = LiveTransport.send

        def send(self, req):
            if req.url.startswith(prefix):
                return HttpResponse(status, {"content-type": content_type}, body, req.url)
            return remote(self, req)

        monkeypatch.setattr(LiveTransport, "send", send)

    @pytest.mark.parametrize("status,content_type,body,named", [
        (404, "text/html", b"gone", "returned HTTP 404"),
        (200, "application/pdf", b"%PDF-1.4", "unsupported media type application/pdf"),
    ], ids=["404", "pdf"])
    def test_an_article_that_cannot_be_fetched(self, runner, tmp_path, live_remote,
                                               monkeypatch, status, content_type, body, named):
        article = "https://en.wikipedia.org/wiki/Bioluminescence"
        self.answer(monkeypatch, article, status, content_type, body)
        result = runner.invoke(main, [*UC2[0], "--live", "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert f"error: cannot fetch article {article}" in result.output
        assert named in result.output
        assert not (tmp_path / "out" / f"{UC2[1]}.xml").exists()

    @pytest.mark.parametrize("status,named", [
        (429, "search quota exhausted"),
        (503, "search provider returned HTTP 503"),
        (403, "search request failed with HTTP 403"),
    ])
    def test_a_search_that_fails(self, runner, tmp_path, live_remote, monkeypatch,
                                 status, named):
        from kgverify.retrieval import GoogleSearchProvider

        self.answer(monkeypatch, GoogleSearchProvider.API_URL, status, "application/json",
                    b'{"error": {}}')
        result = runner.invoke(main, [*UC1[0], "--live", "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert f"error: {named}" in result.output
        assert not (tmp_path / "out" / f"{UC1[1]}.xml").exists()


    def test_a_completion_holding_a_lone_surrogate(self, runner, tmp_path, live_remote,
                                                   monkeypatch):
        """A JSON "\\ud800" escape in a prediction decodes to a lone surrogate,
        which the response log cannot hold: a malformed answer, not a traceback."""
        self.answer(monkeypatch, "https://api.replicate.com/", 201, "application/json",
                    b'{"output": "a) \\ud800"}')
        result = runner.invoke(main, [*UC1[0], "--live", "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert "error: unexpected prediction payload" in result.output
        assert "surrogates not allowed" in result.output
        assert not (tmp_path / "out" / f"{UC1[1]}.xml").exists()


class TestMissingCredentials:
    """A live run without the credentials of a remote it needs exits 4 before
    it asks any remote, and writes nothing."""

    def test_verify_wikidata_without_search_credentials(self, runner, tmp_path, live_remote,
                                                        monkeypatch):
        monkeypatch.delenv("KGVERIFY_SEARCH_KEY")
        monkeypatch.delenv("KGVERIFY_SEARCH_CX")
        result = runner.invoke(main, [*UC1[0], "--live", "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "error: search credentials are not configured" in result.output
        assert "Traceback" not in result.output
        assert live_remote == []
        assert not (tmp_path / "out").exists()

    def test_evaluate_without_an_llm_token(self, runner, tmp_path, live_remote, monkeypatch):
        monkeypatch.delenv("KGVERIFY_LLM_TOKEN")
        result = runner.invoke(main, [
            "evaluate", "--dataset", str(FIXTURES / "snli" / "test_mini.jsonl"), "--task", "nli",
            "--snli-train", str(FIXTURES / "snli" / "train_mini.jsonl"),
            "--live", "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "error: LLM API token is not configured" in result.output
        assert "Traceback" not in result.output
        assert live_remote == []
        assert not (tmp_path / "out").exists()


def unsourced_record(fixtures: Path) -> Path:
    """The recorded answer to uc1's first SPARQL query."""
    from kgverify.net import HttpRequest, request_fingerprint
    from kgverify.wikidata import WIKIDATA_SPARQL_ENDPOINT, EntityId, unsourced_statements_query

    query = unsourced_statements_query(EntityId(36233))
    req = HttpRequest.get(WIKIDATA_SPARQL_ENDPOINT, params={"query": query, "format": "json"})
    return fixtures / "http" / f"{request_fingerprint(req)}.json"


def made_a_directory(fault: str, fixtures: Path) -> Path:
    """The file that an ``*-is-a-directory`` fault turns into a directory."""
    return (unsourced_record(fixtures) if fault.startswith("record")
            else fixtures / "llm" / "responses.jsonl")


def fault_args(fault: str, tmp_path: Path) -> list[str]:
    """The argv of a command that meets ``fault``: its inputs and fixtures are
    built under ``tmp_path``, and its output goes to ``tmp_path / "out"``
    unless the fault is the output directory."""
    out = ["--out", str(tmp_path / "out")]
    taken = tmp_path / "taken"
    bad = tmp_path / "bad.jsonl"
    if fault == "out-names-a-file":
        taken.write_text("", encoding="utf-8")
        return [*TestOutputs.command("report", tmp_path / "missing"), "--out", str(taken)]
    if fault == "cache-dir-under-a-file":
        taken.write_text("", encoding="utf-8")
        return [*UC1[0], "--live", "--cache-dir", str(taken / "cache"), *out]
    if fault in ("grounding-text-empty", "grounding-text-lone-surrogate",
                 "snli-sentences-empty", "snli-premise-lone-surrogate",
                 "response-log-lone-surrogate", "response-log-torn",
                 "response-log-nested-too-deeply", "dataset-nested-too-deeply"):
        fixtures = tmp_path / "eval_replay"
        shutil.copytree(FIXTURES / "eval_replay", fixtures)
        dataset = TestEvaluate().build_dataset(CliRunner(), tmp_path)
        args = ["evaluate", "--dataset", str(dataset), "--replay", "--fixtures", str(fixtures)]
    else:
        fixtures = tmp_path / "replay"
        shutil.copytree(REPLAY_DIR, fixtures)
        args = [*UC1[0], *replay_args(tmp_path / "out", fixtures)]
    # json.dumps writes a lone surrogate as its escape, "\ud800"
    if fault.startswith("grounding-text"):
        line = json.loads(dataset.read_text(encoding="utf-8").splitlines()[0])
        text = "" if fault.endswith("empty") else "\ud800" + line["grounding_text"]
        bad.write_text(json.dumps({**line, "grounding_text": text}) + "\n", encoding="utf-8")
        args[2] = str(bad)
    elif fault.startswith("snli"):
        premise = "" if fault.endswith("empty") else "A premise\udfff."
        bad.write_text(json.dumps({"gold_label": "neutral", "sentence1": premise,
                                   "sentence2": "A hypothesis."}) + "\n", encoding="utf-8")
        args[2] = str(bad)
        args += ["--task", "nli", "--snli-train", str(FIXTURES / "snli" / "train_mini.jsonl")]
    elif fault == "response-log-lone-surrogate":
        log_path = fixtures / "llm" / "responses.jsonl"
        records = [json.loads(line) for line in log_path.read_text("utf-8").splitlines()]
        records[-1]["raw_text"] += "\ud800"
        log_path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    elif fault == "response-log-torn":
        with (fixtures / "llm" / "responses.jsonl").open("a", encoding="utf-8") as log:
            log.write('{"fingerprint": "abc", "raw_te')
    elif fault == "response-log-nested-too-deeply":
        with (fixtures / "llm" / "responses.jsonl").open("a", encoding="utf-8") as log:
            log.write("[" * 100_000 + "\n")
    elif fault == "dataset-nested-too-deeply":
        bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
        args[2] = str(bad)
    elif fault == "bioc-text-lone-surrogate":
        corpus = tmp_path / "biored"
        shutil.copytree(FIXTURES / "biored_mini", corpus)
        path = corpus / "Test_mini.BioC.JSON"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["documents"][0]["passages"][0]["text"] += "\ud800"
        path.write_text(json.dumps(payload), encoding="utf-8")
        args = ["build-dataset", "--biored", str(corpus)]
    elif fault.endswith("-is-a-directory"):
        path = made_a_directory(fault, fixtures)
        path.unlink()
        path.mkdir()
    elif fault == "statements-not-utf-8":
        bad.write_bytes(b"\xffnot\tutf\t8\n")
        args = ["verify-wikipedia", "Q179924", "--statements", str(bad),
                *replay_args(tmp_path / "out", fixtures)]
    elif fault == "revision-record-missing":
        (revision,) = [path for path in (fixtures / "http").iterdir()
                       if '"titles"' in path.read_text(encoding="utf-8")]
        revision.unlink()
        args = [*UC2[0], *replay_args(tmp_path / "out", fixtures)]
    elif fault == "record-nested-too-deeply":
        unsourced_record(fixtures).write_text("[" * 100_000, encoding="utf-8")
    else:
        record_path = unsourced_record(fixtures)
        record = json.loads(record_path.read_text(encoding="utf-8"))
        if fault == "record-without-response":
            del record["response"]
        elif fault == "record-header-lone-surrogate":
            record["response"]["headers"]["content-type"] += "\ud800"
        elif fault == "sparql-label-lone-surrogate":
            body = json.loads(record["response"]["body_text"])
            for row in body["results"]["bindings"]:
                for name, binding in row.items():
                    if name.endswith("Label"):
                        binding["value"] += "\ud800"
            record["response"]["body_text"] = json.dumps(body)
        elif fault == "sparql-nested-too-deeply":
            record["response"]["body_text"] = "[" * 100_000
        else:
            record["response"]["body_text"] = '{"results": {"bindings": null}}'
        record_path.write_text(json.dumps(record), encoding="utf-8")
    return [*args, *out]


class TestMalformedInput:
    """An input file or recorded fixture of the wrong shape exits 3, and a
    remote answer of the wrong shape 4, each with an ``error:`` line naming
    it, never a traceback."""

    @pytest.mark.parametrize("fault,code,named", [
        ("grounding-text-empty", 3, "bad.jsonl:1"),
        ("grounding-text-lone-surrogate", 3, "bad.jsonl:1"),
        ("snli-sentences-empty", 3, "empty dataset"),
        ("snli-premise-lone-surrogate", 3, "bad.jsonl:1"),
        ("response-log-lone-surrogate", 3, "responses.jsonl:"),
        ("response-log-torn", 3, "responses.jsonl:"),
        ("record-without-response", 3, "http"),
        ("statements-not-utf-8", 3, "cannot read statements file"),
        ("record-is-a-directory", 3, "cannot read fixture"),
        ("response-log-is-a-directory", 3, "cannot read response log"),
        ("sparql-bindings-null", 4, "unexpected SPARQL payload"),
        ("sparql-label-lone-surrogate", 4, "unexpected SPARQL payload"),
        ("sparql-nested-too-deeply", 4, "unexpected SPARQL payload"),
        ("record-nested-too-deeply", 3, "http"),
        ("record-header-lone-surrogate", 3, "http"),
        ("response-log-nested-too-deeply", 3, "responses.jsonl:"),
        ("dataset-nested-too-deeply", 3, "bad.jsonl:1"),
        ("bioc-text-lone-surrogate", 3, "Test_mini.BioC.JSON"),
    ])
    def test_exits_with_its_code(self, runner, tmp_path, fault, code, named):
        args = fault_args(fault, tmp_path)
        if fault.endswith("-is-a-directory"):
            named += f" {made_a_directory(fault, tmp_path / 'replay')}"  # the message names the path
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "error: " in result.output and named in result.output

    @pytest.mark.parametrize("fault,code,named", [
        ("grounding-text-lone-surrogate", 3, "bad.jsonl:1"),
        ("sparql-label-lone-surrogate", 4, "unexpected SPARQL payload"),
        ("bioc-text-lone-surrogate", 3, "Test_mini.BioC.JSON"),
        ("out-names-a-file", 2, "output directory"),
        ("cache-dir-under-a-file", 2, "cache directory"),
        ("revision-record-missing", 5, "no recorded fixture"),
    ])
    def test_a_process_exits_with_its_code(self, tmp_path, fault, code, named):
        """As a process of its own, the exit status is the code, and stderr holds
        the ``error:`` line and no traceback. Nothing is verified or written."""
        done = run_kgverify(fault_args(fault, tmp_path), cwd=tmp_path)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        # a usage error is click's "Error:" line
        [error] = [line for line in done.stderr.splitlines() if line.lower().startswith("error:")]
        assert named in error
        assert "verifying:" not in done.stderr
        assert not (tmp_path / "out").exists()


class TestOutputs:
    """Every command writes through one writer: ``--out`` is checked before any
    input is read, files are written atomically, and the manifest comes last."""

    @staticmethod
    def command(name: str, missing: Path) -> list[str]:
        """The command, with every input and fixture directory it names missing."""
        replay = ["--replay", "--fixtures", str(missing)]
        return {
            "uc1": [*UC1[0], *replay],
            "uc2": ["verify-wikipedia", "Q179924", "--statements", str(missing / "s.tsv"),
                    *replay],
            "evaluate-triples": ["evaluate", "--dataset", str(missing / "d.jsonl"),
                                 "--task", "triples", *replay],
            "evaluate-nli": ["evaluate", "--dataset", str(missing / "d.jsonl"), "--task", "nli",
                             "--snli-train", str(missing / "t.jsonl"), *replay],
            "build-dataset": ["build-dataset", "--biored", str(missing)],
            "report": ["report", str(missing / "r.xml")],
        }[name]

    COMMANDS = ["uc1", "uc2", "evaluate-triples", "evaluate-nli", "build-dataset", "report"]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("name", COMMANDS)
    def test_out_naming_a_file_is_a_usage_error_before_any_input(self, runner, tmp_path,
                                                                 name, under):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken / "sub" if under else taken
        args = self.command(name, tmp_path / "missing")
        result = runner.invoke(main, [*args, "--out", str(out)])
        # an input read first would exit 3, and a fixture asked first 5
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        [error] = [line for line in result.output.splitlines() if line.lower().startswith("error:")]
        assert str(taken) in error and "not a directory" in error
        assert list(tmp_path.iterdir()) == [taken]  # nothing created

    @staticmethod
    def replace_recorder(monkeypatch, fail_at: int | None = None,
                         failure: BaseException | None = None) -> list[str]:
        """Records the name each ``os.replace`` gives a file; the call numbered
        ``fail_at`` (from 1) raises ``failure`` instead, by default as a full
        disk does."""
        import errno
        import os

        replace = os.replace
        names: list[str] = []

        def recording(src, dst, **kwargs):
            names.append(Path(dst).name)
            if len(names) == fail_at:
                raise failure or OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", recording)
        return names

    def run_args(self, runner, tmp_path, name: str) -> list[str]:
        if name == "uc1":
            return [*UC1[0], *replay_args(tmp_path / "out")]
        if name == "build-dataset":
            return ["build-dataset", "--biored", str(FIXTURES / "biored_mini"), "--seed", "42",
                    "--out", str(tmp_path / "out")]
        return [*TestEvaluate().evaluate_args(runner, tmp_path, "nli"), "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("name,written", [
        ("uc1", ["verify-wikidata-Q36233.xml", "verify-wikidata-Q36233.html", "manifest.json"]),
        ("build-dataset", ["biored_verify.jsonl", "manifest.json"]),
        ("evaluate-nli", ["results.json", "results.txt", "manifest.json"]),
    ])
    def test_each_file_is_replaced_whole_and_the_manifest_last(self, runner, tmp_path,
                                                               monkeypatch, name, written):
        names = self.replace_recorder(monkeypatch)
        result = runner.invoke(main, self.run_args(runner, tmp_path, name))
        assert result.exit_code == 0, result.output
        assert names == written
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(written)

    @pytest.mark.parametrize("name,second", [
        ("uc1", "verify-wikidata-Q36233.html"),
        ("build-dataset", "manifest.json"),
        ("evaluate-nli", "results.txt"),
    ])
    def test_a_failed_write_leaves_no_output_and_exits_1(self, runner, tmp_path, monkeypatch,
                                                        name, second):
        args = self.run_args(runner, tmp_path, name)
        self.replace_recorder(monkeypatch, fail_at=2)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        assert f"error: cannot write {tmp_path / 'out' / second}: No space left" in result.output
        # no file under its final name, no manifest, no .<name>.* temporary file
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("name", ["uc1", "build-dataset", "evaluate-nli"])
    def test_an_interrupted_write_leaves_no_output_and_exits_130(self, runner, tmp_path,
                                                                 monkeypatch, name):
        """A Ctrl-C inside the second file's write is not a write error: the
        file written before it is removed, and the interrupt exits 130."""
        args = self.run_args(runner, tmp_path, name)
        names = self.replace_recorder(monkeypatch, fail_at=2, failure=KeyboardInterrupt())
        result = runner.invoke(main, args)
        assert result.exit_code == 130, result.output
        assert "Traceback" not in result.output and "cannot write" not in result.output
        assert "error: interrupted" in result.output
        assert len(names) == 2
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_rerun_removes_the_earlier_manifest_before_it_writes(self, runner, tmp_path,
                                                                  monkeypatch):
        args = self.run_args(runner, tmp_path, "evaluate-nli")
        assert runner.invoke(main, args).exit_code == 0
        self.replace_recorder(monkeypatch, fail_at=1)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        # the first run's results are left, but no manifest vouches for them
        assert not (tmp_path / "out" / "manifest.json").exists()
