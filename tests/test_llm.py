from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgverify.errors import (
    ContextOverflow,
    FixtureMissing,
    KgVerifyError,
    MalformedInput,
    MalformedResponse,
    ProviderUnavailable,
)
from kgverify.llm import (
    LlmGateway,
    LlmParams,
    Prompt,
    ReplicateHttpProvider,
    ResponseLog,
    _log_line,
    completion_fingerprint,
    extract_justification,
    parse_nli_label,
    parse_option,
    write_response_log,
)
from kgverify.model import NliLabel, Statement, VerdictKind
from kgverify.net import HttpResponse, canonical_json
from kgverify.prompting import OPTION_TEXTS, render_rdf_prompt
from kgverify.store import FixtureStore

from conftest import ScriptedProvider

CORPUS = Path(__file__).parent / "fixtures" / "parser_corpus.jsonl"
EVAL_REPLAY = Path(__file__).parent / "fixtures" / "eval_replay"

FIG2 = (
    "The correct answer is: a) The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof. The snippet explicitly mentions \"Concordia Prize\" "
    "in the list of awards received by Václav Havel, which directly verifies the RDF "
    "statement."
)
FIG4 = (
    "The correct answer is: a) The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof. The snippet explicitly mentions \"Previous winners "
    "of the award... include former Czech president, Václav Havel\", which directly "
    "verifies the RDF statement [\"Václav Havel\" - \"award received\" - \"Gottlieb "
    "Duttweiler Prize\"]."
)
FIG7 = (
    "Based on the given texts, I would say that the correct label is:c) contradiction. The "
    "reason is that the premise states that the man is waiting for a green light, but the "
    "hypothesis states that the man is waiting at a red light. This is a clear "
    "contradiction, as the man cannot be waiting for a green light if he is already at a "
    "red light."
)
FIG8 = (
    "The correct answer is c) contradiction. The premise states \"A woman is sitting in a "
    "chair\", while the hypothesis states \"a girl is sitting\". The contradiction lies in "
    "the fact that \"woman\" and \"girl\" are not the same, so the hypothesis mentions "
    "something that would not be possible in the premise."
)
FIG9 = (
    "Based on the given texts, I would choose option c) contradiction. The premise states "
    "that the man \"chokes\" the woman, but it's in the context of an overly dramatic "
    "couple posing for a picture, and the quotation marks around \"chokes\" suggest that "
    "it's not meant to be taken literally. In contrast, the hypothesis states \"A man "
    "chokes a woman\" without any indication that it's not meant to be taken literally. "
    "Therefore, the hypothesis contradicts the premise because it implies a level of "
    "violence or aggression that is not present in the original context."
)


class TestDefaultParams:
    def test_pinned_values(self):
        params = LlmParams()
        assert params.model == "meta/meta-llama-3-70b-instruct"
        assert params.seed == 42
        assert params.top_p == 0.9
        assert params.temperature == 0.1
        assert params.max_new_tokens == 500
        assert params.min_new_tokens == -1
        assert params.system_prompt == (
            "You are a helpful assistant. Work only with the text given to you."
        )

    def test_constant_across_calls(self):
        assert LlmParams() == LlmParams()

    def test_validation(self):
        with pytest.raises(ValueError):
            LlmParams(top_p=0.0)
        with pytest.raises(ValueError):
            LlmParams(temperature=-0.5)
        with pytest.raises(ValueError):
            LlmParams(max_new_tokens=0)


class TestFingerprint:
    def test_deterministic(self):
        params = LlmParams()
        assert completion_fingerprint(params, "hello") == completion_fingerprint(params, "hello")

    def test_sensitive_to_params_and_prompt(self):
        params = LlmParams()
        assert completion_fingerprint(params, "a") != completion_fingerprint(params, "b")
        other = LlmParams(model="gpt-4-1106-preview")
        assert completion_fingerprint(params, "a") != completion_fingerprint(other, "a")

    def test_pinned_to_a_bundled_completion(self):
        """The bytes hashed stay exact: a prompt of the bundled evaluate replay
        still has its recorded fingerprint, and the affixes are built once."""
        statement = Statement("Ibuprofen", "Positive_Correlation", "inflammation")
        grounding = ("Ibuprofen and markers of inflammation. Ibuprofen intake correlated with "
                     "inflammation markers in the treatment arm; an association with headache "
                     "was also recorded.")
        params = LlmParams()
        prompt = render_rdf_prompt(statement, grounding)
        assert completion_fingerprint(params, prompt) == "14cacf689e69d0f3aee5cf72"
        assert "14cacf689e69d0f3aee5cf72" in FixtureStore(EVAL_REPLAY).completions
        assert params.fingerprint_affixes is params.fingerprint_affixes


# Any text but lone surrogates (which no UTF-8 request can carry), with the
# characters JSON escapes or that a narrower encoding would mangle made common.
TEXTS = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é中😀'),
    st.characters(blacklist_categories=("Cs",))))
PARAMS = st.one_of(st.just(LlmParams()), st.builds(
    LlmParams, model=TEXTS, seed=st.integers(-2**63, 2**63), top_p=st.floats(0.01, 1.0),
    temperature=st.floats(0.0, 2.0), max_new_tokens=st.integers(1, 10**6),
    min_new_tokens=st.integers(-1, 10**6), system_prompt=TEXTS))


@settings(max_examples=300, deadline=None)
@given(params=PARAMS, prompt=TEXTS.filter(bool))
def test_fingerprint_and_request_body_are_byte_exact(params, prompt):
    """The fingerprint and a live request body, both built around the gateway's
    one encoding of the prompt, are exactly the canonical JSON they stand for."""
    descriptor = canonical_json({**dataclasses.asdict(params), "prompt": prompt}).encode("utf-8")
    assert completion_fingerprint(params, prompt) == hashlib.sha256(descriptor).hexdigest()[:24]
    sent = []

    class Capture:
        def send(self, req):
            sent.append(req)
            return HttpResponse(201, {"content-type": "application/json"}, b'{"output": "a"}')

    LlmGateway(ReplicateHttpProvider(Capture(), api_token="token"), params=params).complete(prompt)
    [req] = sent
    assert req.body == canonical_json({"input": {
        "prompt": prompt,
        "system_prompt": params.system_prompt,
        "seed": params.seed,
        "top_p": params.top_p,
        "temperature": params.temperature,
        "max_new_tokens": params.max_new_tokens,
        "min_new_tokens": params.min_new_tokens,
    }}).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(params=PARAMS, prompt=TEXTS.filter(bool), raw_text=TEXTS,
       latency_ms=st.integers(0, 10**9),
       stamp=st.datetimes(timezones=st.just(timezone.utc)))
def test_log_line_and_prompt_encoding_are_json_dumps(params, prompt, raw_text, latency_ms,
                                                      stamp):
    """A response-log line and a prompt's encoding, each built without a JSON
    encoder, are the bytes ``json.dumps(..., ensure_ascii=False)`` gives."""
    asked = Prompt.of(params, prompt)
    assert asked.encoded == json.dumps(prompt, ensure_ascii=False)
    record = {
        "fingerprint": asked.fingerprint,
        "model": params.model,
        "prompt_sha256": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
        "raw_text": raw_text,
        "latency_ms": latency_ms,
        "timestamp": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    line = _log_line(asked, params, raw_text, latency_ms, stamp)
    assert line.encode("utf-8") == json.dumps(record, ensure_ascii=False).encode("utf-8")


class TestProviders:
    def test_scripted_in_order(self):
        provider = ScriptedProvider(["one", "two"])
        params = LlmParams()
        assert provider.complete(params, Prompt.of(params, "p1")) == "one"
        assert provider.complete(params, Prompt.of(params, "p2")) == "two"
        assert provider.calls == 2

    def test_scripted_exhaustion(self):
        provider = ScriptedProvider([])
        with pytest.raises(FixtureMissing):
            provider.complete(LlmParams(), Prompt.of(LlmParams(), "p"))

    def test_replay_round_trip(self, tmp_path):
        params = LlmParams()
        log_path = tmp_path / "llm" / "responses.jsonl"
        write_response_log(log_path, [(params, "prompt one", "answer one")])
        provider = FixtureStore(tmp_path)
        assert len(provider.completions) == 1
        assert provider.complete(params, Prompt.of(params, "prompt one")) == "answer one"

    @pytest.mark.parametrize("body", [
        b"<html><body>Bad gateway</body></html>",
        b'["a", "list"]',
    ], ids=["html", "json-list"])
    def test_malformed_prediction_is_a_malformed_response(self, body):
        """A 201 whose body is not a prediction object raises the package's
        error (exit code 4), with an excerpt of the body, never a raw one."""

        class Answer:
            def send(self, req):
                return HttpResponse(201, {"content-type": "application/json"}, body)

        provider = ReplicateHttpProvider(Answer(), api_token="token")
        with pytest.raises(MalformedResponse, match="unexpected prediction payload") as caught:
            provider.complete(LlmParams(), Prompt.of(LlmParams(), "p"))
        assert repr(body[:10])[2:-1] in str(caught.value)
        assert caught.value.exit_code == 4

    @pytest.mark.parametrize("output", ['"\\ud800"', '["a", "\\udfff"]'],
                             ids=["text", "list"])
    def test_a_lone_surrogate_in_a_completion_is_a_malformed_response(self, output):
        """A JSON ``\\ud800`` escape decodes to a lone surrogate, which no log
        line or report can hold: the answer is malformed (exit code 4)."""
        body = b'{"output": ' + output.encode("ascii") + b"}"

        class Answer:
            def send(self, req):
                return HttpResponse(201, {"content-type": "application/json"}, body)

        provider = ReplicateHttpProvider(Answer(), api_token="token")
        with pytest.raises(MalformedResponse, match="surrogates not allowed") as caught:
            provider.complete(LlmParams(), Prompt.of(LlmParams(), "p"))
        assert caught.value.exit_code == 4

    @pytest.mark.parametrize("last_line", [
        '{"fingerprint": "abc", "raw_te',
        '{"fingerprint": "abc", "latency_ms": 5}',
        '["abc", "text"]',
    ], ids=["torn", "no-raw-text", "list"])
    def test_malformed_response_log_is_malformed_input(self, tmp_path, last_line):
        """A log a killed run left torn, or with a record of another shape,
        raises the package's error (exit code 3) naming its line."""
        log_path = tmp_path / "llm" / "responses.jsonl"
        write_response_log(log_path, [(LlmParams(), "prompt one", "answer one")])
        with log_path.open("a", encoding="utf-8") as log:
            log.write(last_line)
        with pytest.raises(MalformedInput, match="responses.jsonl:2") as caught:
            FixtureStore(tmp_path).complete(LlmParams(), Prompt.of(LlmParams(), "prompt one"))
        assert caught.value.exit_code == 3

    def test_replay_missing_names_fingerprint(self, tmp_path):
        log_path = tmp_path / "llm" / "responses.jsonl"
        write_response_log(log_path, [])
        provider = FixtureStore(tmp_path)
        params = LlmParams()
        prompt = Prompt.of(params, "absent")
        with pytest.raises(FixtureMissing, match=prompt.fingerprint):
            provider.complete(params, prompt)


class TestGateway:
    def test_returns_scripted_text(self):
        gateway = LlmGateway(ScriptedProvider(["The correct answer is: a)"]))
        response = gateway.complete("a prompt")
        assert response.raw_text == "The correct answer is: a)"

    def test_empty_prompt_rejected(self):
        gateway = LlmGateway(ScriptedProvider(["x"]))
        with pytest.raises(ValueError):
            gateway.complete("")

    def test_context_overflow(self):
        gateway = LlmGateway(ScriptedProvider(["x"]), context_tokens=10)
        # budget is 40 chars; the system prompt alone exceeds it
        with pytest.raises(ContextOverflow):
            gateway.complete("p" * 50)

    def test_appends_to_response_log(self, tmp_path):
        log = ResponseLog(tmp_path / "llm" / "responses.jsonl")
        gateway = LlmGateway(ScriptedProvider(["answer"]), response_log=log)
        gateway.complete("prompt")
        log.close()
        record = json.loads((tmp_path / "llm" / "responses.jsonl").read_text().splitlines()[0])
        assert record["fingerprint"] == completion_fingerprint(gateway.params, "prompt")
        assert record["raw_text"] == "answer"
        # a log written this way is replayable
        provider = FixtureStore(tmp_path)
        assert provider.complete(gateway.params, Prompt.of(gateway.params, "prompt")) == "answer"

    def test_response_log_writes_every_path(self, tmp_path):
        paths = [tmp_path / "out" / "responses.jsonl", tmp_path / "cache" / "llm" / "log.jsonl"]
        log = ResponseLog(*paths)
        gateway = LlmGateway(ScriptedProvider(["one", "two"]), response_log=log)
        gateway.complete("first")
        gateway.complete("second")
        log.close()
        first, second = (path.read_bytes() for path in paths)
        assert first == second and len(first.splitlines()) == 2

    def test_replay_reports_the_recorded_latency(self, tmp_path):
        params = LlmParams()
        log_path = tmp_path / "llm" / "responses.jsonl"
        write_response_log(log_path, [(params, "prompt", "answer")])
        record = json.loads(log_path.read_text())
        log_path.write_text(json.dumps({**record, "latency_ms": 1234}) + "\n")
        response = LlmGateway(FixtureStore(tmp_path)).complete("prompt")
        assert response.raw_text == "answer"
        assert response.latency_ms == 1234

    def test_response_log_flushes_every_line_and_reopens_after_close(self, tmp_path):
        path = tmp_path / "llm" / "responses.jsonl"
        log = ResponseLog(path)
        gateway = LlmGateway(ScriptedProvider(["one", "two", "three"]), response_log=log)
        gateway.complete("first")
        gateway.complete("second")
        assert len(path.read_text().splitlines()) == 2  # readable while the log is open
        log.close()
        gateway.complete("third")
        log.close()
        assert [json.loads(line)["raw_text"] for line in path.read_text().splitlines()] == [
            "one", "two", "three"]

    @pytest.mark.parametrize("earlier, torn", [
        (["kept"], '{"fingerprint": "abc", "raw_te'),
        (["kept"], '{"raw_text": "' + "x" * 5000),
        ([], '{"fingerprint": "abc", "raw_te'),
    ], ids=["after-a-record", "over-a-page", "alone"])
    def test_a_torn_last_line_is_cut_before_the_next_completion(self, tmp_path, earlier, torn):
        """A killed run left the log's last line unterminated: the next
        completion gets a line of its own, and replay reads it."""
        path = tmp_path / "llm" / "responses.jsonl"
        params = LlmParams()
        path.parent.mkdir()
        if earlier:
            write_response_log(path, [(params, "earlier", text) for text in earlier])
        with open(path, "ab") as handle:
            handle.write(torn.encode("utf-8"))
        log = ResponseLog(path)
        LlmGateway(ScriptedProvider(["answer"]), params=params, response_log=log).complete("now")
        log.close()
        assert [json.loads(line)["raw_text"] for line in path.read_text().splitlines()] == [
            *earlier, "answer"]
        store = FixtureStore(tmp_path)
        assert store.complete(params, Prompt.of(params, "now")) == "answer"
        if earlier:
            assert store.complete(params, Prompt.of(params, "earlier")) == "kept"

    @staticmethod
    def log_with_writes(monkeypatch, write):
        """A response log whose files take each write through ``write(handle, data)``."""
        import kgverify.llm

        open_for_append = kgverify.llm._open_for_append

        class Writes:
            def __init__(self, path):
                self.handle = open_for_append(path)

            def write(self, data):
                return write(self.handle, bytes(data))

            def __getattr__(self, name):
                return getattr(self.handle, name)

        monkeypatch.setattr(kgverify.llm, "_open_for_append", Writes)

    def test_a_short_write_is_continued(self, tmp_path, monkeypatch):
        """A write that takes fewer bytes than asked (as a signal, or a disk
        that fills, can make it) is continued until the line is whole."""
        calls = []

        def short(handle, data):
            calls.append(len(data))
            return handle.write(data[:7])

        self.log_with_writes(monkeypatch, short)
        path = tmp_path / "responses.jsonl"
        log = ResponseLog(path)
        gateway = LlmGateway(ScriptedProvider(["one", "two"]), response_log=log)
        gateway.complete("first")
        gateway.complete("second")
        log.close()
        assert [json.loads(line)["raw_text"] for line in path.read_text().splitlines()] == [
            "one", "two"]
        assert len(calls) > 2 and all(size > 0 for size in calls)

    def test_a_write_that_fails_after_a_short_one_leaves_no_torn_line(self, tmp_path,
                                                                       monkeypatch):
        import errno

        writes = []

        def fails_midway(handle, data):
            writes.append(data)
            if len(writes) == 1:  # the first line, whole
                return handle.write(data)
            if len(writes) == 2:  # the start of the second
                return handle.write(data[:20])
            raise OSError(errno.ENOSPC, "No space left on device")

        self.log_with_writes(monkeypatch, fails_midway)
        path = tmp_path / "responses.jsonl"
        log = ResponseLog(path)
        gateway = LlmGateway(ScriptedProvider(["one", "two"]), response_log=log)
        gateway.complete("first")
        with pytest.raises(KgVerifyError, match=f"cannot write {path}: No space left"):
            gateway.complete("second")
        assert [json.loads(line)["raw_text"] for line in path.read_text().splitlines()] == [
            "one"]
        assert path.read_bytes().endswith(b"\n")

    def test_response_log_stamps_the_run_clock(self, tmp_path):
        instant = datetime(2024, 3, 2, 14, 27, 25, tzinfo=timezone(timedelta(hours=1)))
        log = ResponseLog(tmp_path / "log.jsonl", clock=lambda: instant)
        LlmGateway(ScriptedProvider(["answer"]), response_log=log).complete("prompt")
        log.close()
        record = json.loads((tmp_path / "log.jsonl").read_text())
        assert record["timestamp"] == "2024-03-02T13:27:25Z"


class FlakyProvider:
    """Answers each prompt with a numbered text after ``delay`` s; raises once per prompt
    in ``fail_once``."""

    def __init__(self, delay=0.0, fail_once=()):
        self.delay = delay
        self.fail_once = set(fail_once)
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, params, asked):
        prompt = asked.text
        with self._lock:
            self.calls.append(prompt)
            number = len(self.calls)
        time.sleep(self.delay)
        if prompt in self.fail_once:
            self.fail_once.discard(prompt)
            raise ProviderUnavailable("LLM API request failed with HTTP 503")
        return f"answer {number}"


class TestGatewayMemo:
    def test_a_repeated_prompt_gets_the_first_answer_and_latency(self, tmp_path):
        log_path = tmp_path / "responses.jsonl"
        provider = FlakyProvider(delay=0.02)
        log = ResponseLog(log_path)
        gateway = LlmGateway(provider, response_log=log)
        first, other, again = (gateway.complete(p) for p in ("same", "other", "same"))
        log.close()
        assert provider.calls == ["same", "other"]
        assert again == first and first.raw_text == "answer 1" and first.latency_ms >= 20
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [(r["raw_text"], r["latency_ms"]) for r in records] == [
            (first.raw_text, first.latency_ms), (other.raw_text, other.latency_ms),
            (first.raw_text, first.latency_ms)]

    def test_callers_of_a_prompt_in_flight_share_one_ask(self):
        provider = FlakyProvider(delay=0.1)
        gateway = LlmGateway(provider)
        with ThreadPoolExecutor(max_workers=8) as executor:
            responses = list(executor.map(lambda _: gateway.complete("same"), range(8), timeout=5))
        assert provider.calls == ["same"]
        assert all(response is responses[0] for response in responses)

    def test_a_failure_is_asked_again(self):
        provider = FlakyProvider(fail_once=["same"])
        gateway = LlmGateway(provider)
        with pytest.raises(ProviderUnavailable):
            gateway.complete("same")
        assert gateway.complete("same").raw_text == "answer 2"
        assert gateway.complete("same").raw_text == "answer 2"
        assert provider.calls == ["same", "same"]


class TestParseOption:
    def test_figure_texts(self):
        assert parse_option(FIG2) is VerdictKind.DIRECT_PROOF
        assert parse_option(FIG4) is VerdictKind.DIRECT_PROOF

    def test_colon_without_space(self):
        assert parse_option("The correct answer is:b) partial hints.") is VerdictKind.INDICATION

    def test_no_option_token(self):
        assert parse_option("I cannot determine anything.") is VerdictKind.UNPARSEABLE

    def test_conflicting_declarations_are_unparseable(self):
        text = "a) seems right, but the correct answer is c) after all."
        assert parse_option(text) is VerdictKind.UNPARSEABLE

    @pytest.mark.parametrize(
        "text",
        [
            "A man received a prize in 1990 at a ceremony.",
            "The snippet mentions a) nothing relevant here",  # no declaration context
            "Considering all angles, nothing can be concluded.",
            "The award ceremony was a grand occasion for all attendees.",
        ],
    )
    def test_incidental_letters_never_confirm(self, text):
        # guards the no-false-confirmation rule for direct proof
        assert parse_option(text) is not VerdictKind.DIRECT_PROOF


class TestParseNli:
    def test_figure_texts(self):
        assert parse_nli_label(FIG7) is NliLabel.CONTRADICTION
        assert parse_nli_label(FIG8) is NliLabel.CONTRADICTION
        assert parse_nli_label(FIG9) is NliLabel.CONTRADICTION

    def test_letter_beats_word(self):
        assert parse_nli_label("The correct answer is b) contradiction.") is NliLabel.NEUTRAL

    def test_word_only(self):
        assert parse_nli_label("This is an entailment, plainly.") is NliLabel.ENTAILMENT

    def test_empty_is_unparseable(self):
        assert parse_nli_label("") is NliLabel.UNPARSEABLE

    def test_conflicting_words_unparseable(self):
        text = "It might be an entailment or a contradiction."
        assert parse_nli_label(text) is NliLabel.UNPARSEABLE


class TestExtractJustification:
    def test_figure_output(self):
        assert extract_justification(FIG4).startswith(
            'The snippet explicitly mentions "Previous winners'
        )

    def test_bare_option_empty(self):
        assert extract_justification("a)") == ""

    def test_no_declaration_keeps_whole_text(self):
        text = "The snippet talks about something else entirely."
        assert extract_justification(text) == text

    def test_reasoning_before_declaration_kept_whole(self):
        text = ("The snippet names the recipient. It also names the prize. "
                "Therefore the correct answer is a).")
        assert extract_justification(text) == text

    def test_empty_input(self):
        assert extract_justification("") == ""

    def test_strips_echoed_option_wording(self):
        raw = "The correct answer is: b) " + OPTION_TEXTS["b"] + " There are hints only."
        assert extract_justification(raw) == "There are hints only."


class TestParserCorpus:
    def load(self):
        cases = [
            json.loads(line)
            for line in CORPUS.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(cases) >= 100
        return cases

    def test_accuracy_at_least_99_percent(self):
        cases = self.load()
        option_map = {
            "a": VerdictKind.DIRECT_PROOF,
            "b": VerdictKind.INDICATION,
            "c": VerdictKind.NO_SUPPORT,
            "unparseable": VerdictKind.UNPARSEABLE,
        }
        correct = 0
        for case in cases:
            if case["kind"] == "option":
                got = parse_option(case["text"]) is option_map[case["expected"]]
            else:
                got = parse_nli_label(case["text"]) is NliLabel(case["expected"])
            correct += got
        assert correct / len(cases) >= 0.99
