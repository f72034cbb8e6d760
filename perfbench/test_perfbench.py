"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run small corpora at zero latency, so they take a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
SCALE = 0.05


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = corpus.generate(workload, 3, SCALE)
    again = corpus.generate(workload, 3, SCALE)
    other = corpus.generate(workload, 4, SCALE)
    assert first.digest() == again.digest()
    assert json.dumps(first.remote, sort_keys=True) == json.dumps(again.remote, sort_keys=True)
    assert first.digest() != other.digest()
    # a seed rearranges the corpus but keeps its proportions (text lengths vary)
    def shape(properties):
        return {k: v for k, v in properties.items() if not k.startswith("article_")}

    assert shape(first.properties) == shape(other.properties)


@pytest.fixture
def bench():
    b = run.Bench(ROOT, "websearch", 5, SCALE)
    yield b
    b.close()


def test_reference_run_passes_the_gate(bench):
    child = bench.run_child(latency_scale=0.0)
    assert child.completed == bench.attempted
    # a second run must produce the same normalised bytes
    bench.run_child(latency_scale=0.0)


def test_gate_rejects_a_planted_one_byte_difference(bench):
    bench.run_child(latency_scale=0.0)
    outputs = gate.read_outputs(bench.work / "out")
    (name,) = [n for n in outputs if n.endswith(".xml")]
    xml = outputs[name]
    at = xml.index(b"<paragraph>") + len(b"<paragraph>") + 3
    planted = dict(outputs, **{name: xml[:at] + bytes([xml[at] ^ 1]) + xml[at + 1:]})
    assert gate.normalise(planted) != bench.reference
    assert gate.first_difference(bench.reference, gate.normalise(planted))
    with pytest.raises(gate.GateFailure):
        gate.check_ground_truth("websearch", bench.corpus.expected, planted)
    # the injected-wait timing is the one thing the normalisation masks
    timing = xml.replace(b"<duration-ms>0</duration-ms>", b"<duration-ms>7</duration-ms>", 1)
    assert timing != xml
    assert gate.normalise(dict(outputs, **{name: timing})) == bench.reference


def test_hook_guard_fires_when_the_fake_is_bypassed(bench):
    with pytest.raises(run.BenchmarkError, match="hook guard"):
        bench.run_child(latency_scale=0.0, bypass_fake=True)


def test_hook_guard_fires_on_a_request_the_corpus_does_not_know(bench):
    remote = json.loads((bench.work / "corpus.json").read_text(encoding="utf-8"))
    remote["search"].clear()
    (bench.work / "corpus.json").write_text(json.dumps(remote), encoding="utf-8")
    with pytest.raises(run.BenchmarkError, match="does not know"):
        bench.run_child(latency_scale=0.0)


def test_hook_guard_fires_when_a_timed_function_is_missing(bench, monkeypatch):
    monkeypatch.setitem(run.ITEM_FUNCTION, "websearch", "verifier:Verifier.no_such_method")
    with pytest.raises(run.BenchmarkError, match="timed function missing"):
        bench.run_child(latency_scale=0.0)
