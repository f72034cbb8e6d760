"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) and enforces the criterion's runtime budget. The two
end-to-end replays run with live sockets disabled, proving that replay mode
needs no network at all.

The official biomedical source corpus is not bundled; point
KGVERIFY_BIORED_PATH at a downloaded copy to run the full-corpus count check.
Everything else runs self-contained.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from kgverify import datasets as ds
from kgverify import evaluation as ev
from kgverify.cli import main as cli_main
from kgverify.llm import parse_nli_label, parse_option
from kgverify.model import (
    NLI_CLASSES,
    BinaryDecision,
    DecisionMode,
    NliLabel,
    VerdictKind,
    verdict_to_binary,
)
from kgverify.reporting import validate_report
from kgverify.retrieval import chunk_fill_limit

from conftest import FIXTURES, REPLAY_DIR
from test_evaluation import (
    LOOSE_ROWS,
    NEGATIVE_CORRELATION_ROWS,
    NLI_TABLES,
    POSITIVE_CORRELATION_ROWS,
    STRICT_ROWS,
    oracle_loose,
    oracle_strict,
    stream_from_matrix,
)
from test_retrieval import oracle_greedy


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.seconds}s"
            )
        return False


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {number:02d}: {text}")


def test_criterion_01_metric_engine_goldens():
    with Budget(1.0):
        rows = (
            [(c, p, r) for _, c, p, r in POSITIVE_CORRELATION_ROWS]
            + [(c, p, r) for _, c, p, r in NEGATIVE_CORRELATION_ROWS]
            + [(c, p, r) for _, c, p, r in STRICT_ROWS]
            + [(c, p, r) for _, c, p, r in LOOSE_ROWS]
        )
        assert len(rows) == 16
        for counts, precision, recall in rows:
            metrics = ev.compute_metrics(ev.ConfusionCounts(*counts))
            assert ev.rounded_percent(metrics.precision) == precision, counts
            assert ev.rounded_percent(metrics.recall) == recall, counts
        # spot checks called out explicitly
        spot = ev.compute_metrics(ev.ConfusionCounts(176, 382, 14, 220))
        assert (ev.rounded_percent(spot.precision), ev.rounded_percent(spot.recall)) == (
            92.63, 44.44,
        )
        nan_row = ev.compute_metrics(ev.ConfusionCounts(0, 700, 0, 700))
        assert nan_row.precision is None and ev.percent(nan_row.precision) == "NaN"
    report(1, "all published precision/recall cells reproduced at two decimals")


def test_criterion_02_micro_averages():
    with Budget(1.0):
        positive = ev.micro_average(
            ev.ConfusionCounts(*c) for _, c, _, _ in POSITIVE_CORRELATION_ROWS
        )
        assert (positive.tp, positive.tn, positive.fp, positive.fn) == (589, 927, 92, 430)
        metrics = ev.compute_metrics(positive)
        assert ev.rounded_percent(metrics.precision) == 86.49
        assert ev.rounded_percent(metrics.recall) == 57.80

        combined = ev.micro_average(
            ev.ConfusionCounts(*c)
            for _, c, _, _ in POSITIVE_CORRELATION_ROWS + NEGATIVE_CORRELATION_ROWS
        )
        assert (combined.tp, combined.tn, combined.fp, combined.fn) == (764, 1612, 107, 955)
        metrics = ev.compute_metrics(combined)
        assert ev.rounded_percent(metrics.precision, 1) == 87.7
        assert ev.rounded_percent(metrics.recall, 1) == 44.4
        assert abs(metrics.f1 * 100 - 59.0) <= 0.05
    report(2, "micro averages (589,927,92,430) and combined 87.7/44.4/F1 59.0 reproduced")


def _check_corruption(docs, positives, negatives, skips):
    truth = ds.GroundTruth.from_documents(docs)
    assert len(negatives) == len(positives) - len(skips)
    by_key = {}
    for doc in docs:
        for entity in doc.entities.values():
            by_key.setdefault(entity.identifier, set()).add(entity.concept_type)
    skipped_keys = {(s.doc_id, s.subject_id, s.object_id, s.relation_type) for s in skips}
    kept_positives = [
        p for p in positives
        if (p.doc_id, p.statement.subject_id, p.statement.object_id, p.relation_type)
        not in skipped_keys
    ]
    assert len(kept_positives) == len(negatives)
    for positive, negative in zip(kept_positives, negatives):
        corrupted = negative.statement
        assert corrupted.object_id != positive.statement.object_id
        assert positive.tail_type in by_key[corrupted.object_id]
        assert not truth.contains(
            corrupted.subject_id or "", positive.relation_type, corrupted.object_id or ""
        )


def test_criterion_03_dataset_builder_mechanics():
    with Budget(120.0):
        docs = ds.load_biored(FIXTURES / "biored_mini")
        positives = ds.extract_positives(docs)
        truth = ds.GroundTruth.from_documents(docs)
        negatives, skips = ds.generate_negatives(positives, truth, seed=42)
        manifest = ds.dataset_manifest(positives, negatives, skips, seed=42)
        for relation, stats in manifest["relations"].items():
            assert stats["negatives"] == stats["positives"] - sum(
                1 for s in skips if s.relation_type == relation
            )
        _check_corruption(docs, positives, negatives, skips)
    report(3, "corruption mechanics verified by brute force; counts documented in manifest")


OFFICIAL_BIORED = os.environ.get("KGVERIFY_BIORED_PATH", "")


@pytest.mark.skipif(
    not OFFICIAL_BIORED or not Path(OFFICIAL_BIORED).exists(),
    reason="official source corpus not available offline; "
    "set KGVERIFY_BIORED_PATH to run the full-corpus count check",
)
def test_criterion_03_official_corpus_counts():
    with Budget(120.0):
        docs = ds.load_biored(OFFICIAL_BIORED)
        assert len(docs) == 600
        positives = ds.extract_positives(docs)
        by_type = {}
        for p in positives:
            by_type[p.relation_type] = by_type.get(p.relation_type, 0) + 1
        truth = ds.GroundTruth.from_documents(docs)
        negatives, skips = ds.generate_negatives(positives, truth, seed=42)
        manifest = ds.dataset_manifest(positives, negatives, skips, seed=42)
        # exact reproduction expected; any delta must be visible in the manifest
        expected = {"Positive_Correlation": 1019, "Negative_Correlation": 700}
        if by_type != expected:
            assert manifest["relations"]["Positive_Correlation"]["positives"] == by_type[
                "Positive_Correlation"
            ]
        assert len(negatives) == len(positives) - len(skips)
        _check_corruption(docs, positives, negatives, skips)
    report(3, f"official corpus counts: {by_type}")


def test_criterion_04_parser_fixture_suite():
    with Budget(1.0):
        cases = [
            json.loads(line)
            for line in (FIXTURES / "parser_corpus.jsonl").read_text("utf-8").splitlines()
            if line.strip()
        ]
        assert len(cases) >= 100
        option_map = {
            "a": VerdictKind.DIRECT_PROOF,
            "b": VerdictKind.INDICATION,
            "c": VerdictKind.NO_SUPPORT,
            "unparseable": VerdictKind.UNPARSEABLE,
        }
        correct = 0
        for case in cases:
            if case["kind"] == "option":
                correct += parse_option(case["text"]) is option_map[case["expected"]]
            else:
                correct += parse_nli_label(case["text"]) is NliLabel(case["expected"])
        accuracy = correct / len(cases)
        assert accuracy >= 0.99, f"parser accuracy {accuracy:.4f}"

        from test_llm import FIG2, FIG4, FIG7, FIG8, FIG9

        assert parse_option(FIG2) is VerdictKind.DIRECT_PROOF
        assert parse_option(FIG4) is VerdictKind.DIRECT_PROOF
        assert parse_nli_label(FIG7) is NliLabel.CONTRADICTION
        assert parse_nli_label(FIG8) is NliLabel.CONTRADICTION
        assert parse_nli_label(FIG9) is NliLabel.CONTRADICTION
    report(4, f"parser accuracy {accuracy:.2%} on {len(cases)} recorded responses")


def test_criterion_05_early_exit_orchestration():
    from test_verifier import ANSWER, first_proof, make_doc

    with Budget(1.0):
        paragraphs = [f"paragraph {i} " + "x" * 110 for i in range(1, 11)]
        for position in range(1, 11):
            trace, provider = first_proof(
                [ANSWER["c"]] * (position - 1) + [ANSWER["a"]], make_doc(paragraphs)
            )
            assert provider.calls == position
            assert trace is not None and trace.paragraph_text == paragraphs[position - 1]
        trace, provider = first_proof([ANSWER["c"]] * 10, make_doc(paragraphs))
        assert provider.calls == 10 and trace is None
    report(5, "early exit exact for first-positive positions 1..10 and the all-negative case")


def test_criterion_06_chunker_properties():
    with Budget(5.0):
        rng = random.Random(20240302)
        for _ in range(1000):
            paragraphs = ["p" * rng.randrange(0, 400) for _ in range(rng.randrange(0, 14))]
            max_chars = rng.randrange(1, 600)
            chunks = [[paragraphs[i] for i in positions]
                      for positions in chunk_fill_limit(paragraphs, max_chars=max_chars)]
            assert chunks == oracle_greedy(paragraphs, max_chars)
            assert [p for c in chunks for p in c] == paragraphs
            for i, chunk in enumerate(chunks):
                length = len("\n".join(chunk))
                oversize = len(chunk) == 1 and len(chunk[0]) > max_chars
                if not oversize:
                    assert length <= max_chars
                if i + 1 < len(chunks) and not oversize:
                    nxt = chunks[i + 1][0]
                    assert length + 1 + len(nxt) > max_chars
    report(6, "1000 random lists match the brute-force packer; bounds and round trips hold")


def test_criterion_07_reconciliation_oracles():
    with Budget(1.0):
        sequences = [
            seq
            for length in range(1, 5)
            for seq in itertools.product(NLI_CLASSES, repeat=length)
        ]
        assert len(sequences) == 120
        for seq in sequences:
            labels = list(seq)
            assert ev.reconcile_loose(labels) == oracle_loose(labels)
            assert ev.reconcile_strict(labels) == oracle_strict(labels)
            if ev.reconcile_strict(labels) == ev.DocumentJudgment.ENTAILMENT:
                assert ev.reconcile_loose(labels) == ev.DocumentJudgment.ENTAILMENT
    report(7, "strict/loose match their oracles on all 120 sequences; strict implies loose")


def test_criterion_08_nli_tally():
    with Budget(1.0):
        for name, (matrix, unparsed, accuracy) in NLI_TABLES.items():
            confusion = ev.tally_nli(stream_from_matrix(matrix, unparsed))
            assert ev.rounded_percent(confusion.accuracy(), 1) == accuracy, name
            assert confusion.total == 1000
        eight_b = ev.tally_nli(stream_from_matrix(*NLI_TABLES["llama-3-8b"][:2]))
        assert sum(sum(row) for row in eight_b.matrix) == 998
        assert eight_b.unparsed == 2
    report(8, "published accuracies 65.8/86.7/89.5 and the 998+2 accounting reproduced")


@pytest.fixture
def no_network(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("outbound network access attempted during replay")

    monkeypatch.setattr(socket.socket, "connect", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)


def test_criterion_09_end_to_end_replay(tmp_path, no_network):
    import xml.etree.ElementTree as ET

    with Budget(10.0):
        runner = CliRunner()
        base = ["--replay", "--fixtures", str(REPLAY_DIR),
                "--fixed-clock", "2024-03-02T13:27:25Z"]

        uc1_out = tmp_path / "uc1"
        result = runner.invoke(cli_main, [
            "verify-wikidata", "Q36233", "--max-statements", "1",
            *base, "--out", str(uc1_out),
        ])
        assert result.exit_code == 0, result.output
        uc1 = ET.parse(uc1_out / "verify-wikidata-Q36233.xml")
        validate_report(uc1.getroot())
        trace_urls = [t.findtext("document-url")
                      for t in uc1.getroot().findall("session/traces/trace")]
        documents = [d.get("url")
                     for d in uc1.getroot().findall("session/documents/document")]
        assert len(trace_urls) == 2
        assert trace_urls[0] == documents[0], "first trace cites hit number 1"
        assert trace_urls[1] == documents[2], "second trace cites hit number 3"
        skip_kinds = [d.get("skip-kind")
                      for d in uc1.getroot().findall("session/documents/document")]
        assert skip_kinds.count("unsupported-media") == 2

        uc2_out = tmp_path / "uc2"
        result = runner.invoke(cli_main, [
            "verify-wikipedia", "Q179924",
            "--statements", str(FIXTURES / "biolum_statements.tsv"),
            "--model", "gpt-4-1106-preview",
            *base, "--out", str(uc2_out),
        ])
        assert result.exit_code == 0, result.output
        uc2 = ET.parse(uc2_out / "verify-wikipedia-Q179924.xml")
        validate_report(uc2.getroot())
        root = uc2.getroot()
        assert root.findtext("summary/subject-id") == "179924"
        assert root.findtext("summary/wikipedia-permalink").endswith("oldid=1206514418")
        traces = root.findall("session/traces/trace")
        assert len(traces) == 1
        assert traces[0].findtext("paragraph").startswith(
            "Phosphorus was thought to be the source of light"
        )
        assert traces[0].findtext("retrieval-source") == "web-archive"
    report(9, "both fixture replays pass schema validation with zero network access")


def test_criterion_10_decision_mode_monotonicity():
    with Budget(1.0):
        verdict_pool = list(VerdictKind)
        rng = random.Random(99)
        for _ in range(2000):
            verdicts = [rng.choice(verdict_pool) for _ in range(rng.randrange(0, 40))]
            supported = {
                mode: sum(
                    1 for v in verdicts
                    if verdict_to_binary(v, mode) is BinaryDecision.SUPPORTED
                )
                for mode in DecisionMode
            }
            assert supported[DecisionMode.FAVOR_RECALL] >= supported[
                DecisionMode.FAVOR_PRECISION
            ]
    report(10, "favor-recall never decreases the count of supported decisions")
