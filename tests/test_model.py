from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgverify.errors import MalformedInput
from kgverify.model import (
    BinaryDecision,
    DecisionMode,
    EvidenceTrace,
    RetrievalSource,
    Statement,
    VerdictKind,
    statement_from_line,
    statement_from_json,
    statement_to_json,
    statement_to_search_query,
    statements_from_text,
    verdict_to_binary,
)

ALL_VERDICTS = list(VerdictKind)


def make_statement(subject="Václav Havel", predicate="award received",
                   object_="Gottlieb Duttweiler Prize") -> Statement:
    return Statement(subject, predicate, object_)


class TestStatement:
    def test_rejects_blank_labels(self):
        with pytest.raises(ValueError):
            Statement("", "p", "o")
        with pytest.raises(ValueError):
            Statement("s", "  ", "o")
        with pytest.raises(ValueError):
            Statement("s", "p", "\t")

    def test_optional_ids(self):
        statement = Statement("s", "p", "o", subject_id="Q1")
        assert statement.subject_id == "Q1"
        assert statement.object_id is None


class TestSearchQuery:
    def test_havel_example(self):
        statement = make_statement()
        assert statement_to_search_query(statement) == (
            "Václav Havel award received Gottlieb Duttweiler Prize -wikipedia"
        )

    def test_minimal_labels(self):
        assert statement_to_search_query(Statement("A", "b", "C")) == "A b C -wikipedia"

    def test_internal_whitespace_collapsed(self):
        statement = Statement("X  Y", "p", "Z")
        assert statement_to_search_query(statement) == "X Y p Z -wikipedia"

    @given(
        st.text(min_size=1).filter(lambda s: s.strip()),
        st.text(min_size=1).filter(lambda s: s.strip()),
        st.text(min_size=1).filter(lambda s: s.strip()),
    )
    def test_always_ends_with_exclusion_and_keeps_order(self, s, p, o):
        query = statement_to_search_query(Statement(s, p, o))
        assert query.endswith(" -wikipedia")
        body = query[: -len(" -wikipedia")]
        from kgverify.model import normalize_label

        expected = [normalize_label(x) for x in (s, p, o)]
        # the three normalized labels appear in order
        position = 0
        for part in expected:
            found = body.find(part, position)
            assert found >= 0
            position = found + len(part)


VERDICT_MAPPING = [
    (VerdictKind.DIRECT_PROOF, DecisionMode.FAVOR_PRECISION, BinaryDecision.SUPPORTED),
    (VerdictKind.INDICATION, DecisionMode.FAVOR_PRECISION, BinaryDecision.NOT_SUPPORTED),
    (VerdictKind.INDICATION, DecisionMode.FAVOR_RECALL, BinaryDecision.SUPPORTED),
    (VerdictKind.UNPARSEABLE, DecisionMode.FAVOR_RECALL, BinaryDecision.NOT_SUPPORTED),
    (VerdictKind.NO_SUPPORT, DecisionMode.FAVOR_PRECISION, BinaryDecision.NOT_SUPPORTED),
    (VerdictKind.NO_SUPPORT, DecisionMode.FAVOR_RECALL, BinaryDecision.NOT_SUPPORTED),
]


class TestVerdictToBinary:
    # positional ids: a case's name does not depend on how its verdict is spelled
    @pytest.mark.parametrize("verdict,mode,expected", VERDICT_MAPPING, ids=[
        f"verdict{i}-{mode}-{expected}" for i, (_, mode, expected) in enumerate(VERDICT_MAPPING)])
    def test_mapping(self, verdict, mode, expected):
        assert verdict_to_binary(verdict, mode) == expected

    def test_recall_mode_never_downgrades(self):
        # exhaustive over all verdict kinds
        for verdict in ALL_VERDICTS:
            precision = verdict_to_binary(verdict, DecisionMode.FAVOR_PRECISION)
            recall = verdict_to_binary(verdict, DecisionMode.FAVOR_RECALL)
            if precision is BinaryDecision.SUPPORTED:
                assert recall is BinaryDecision.SUPPORTED

    @given(st.lists(st.sampled_from(ALL_VERDICTS), max_size=30))
    def test_supported_count_monotone_over_multisets(self, verdicts):
        def count(mode):
            return sum(
                1 for v in verdicts
                if verdict_to_binary(v, mode) is BinaryDecision.SUPPORTED
            )

        assert count(DecisionMode.FAVOR_RECALL) >= count(DecisionMode.FAVOR_PRECISION)


class TestSerialization:
    def test_line_round_trip(self):
        statement = Statement("s", "p", "o", subject_id="Q1", predicate_id="P2", object_id="Q3")
        assert statement_from_line("s\tp\to\tQ1\tP2\tQ3") == statement

    def test_three_column_line(self):
        assert statement_from_line("a\tb\tc") == Statement("a", "b", "c")

    def test_wrong_column_count(self):
        with pytest.raises(MalformedInput, match="line 4"):
            statement_from_line("a\tb", lineno=4)

    def test_empty_label_reports_line(self):
        with pytest.raises(MalformedInput, match="line 2"):
            statement_from_line("a\t\tc", lineno=2)

    def test_statements_from_text_skips_comments_and_blanks(self):
        text = "# heading\n\na\tb\tc\n"
        assert statements_from_text(text) == [Statement("a", "b", "c")]

    def test_json_round_trip(self):
        statement = Statement("s", "p", "o", object_id="Q3", domain_tag="Chem/Disease")
        assert statement_from_json(statement_to_json(statement)) == statement

    def test_json_missing_field(self):
        with pytest.raises(MalformedInput):
            statement_from_json({"subject": "s", "predicate": "p"})


class TestEvidenceTrace:
    @staticmethod
    def trace(verdict=VerdictKind.DIRECT_PROOF, duration_ms=0) -> EvidenceTrace:
        return EvidenceTrace("https://x.example", RetrievalSource.DIRECT, "A paragraph.",
                             verdict, "Because.", "m", datetime(2024, 1, 1, tzinfo=timezone.utc),
                             duration_ms)

    def test_a_direct_proof_is_a_trace(self):
        assert self.trace().verdict is VerdictKind.DIRECT_PROOF

    @pytest.mark.parametrize("verdict", [VerdictKind.INDICATION, VerdictKind.NO_SUPPORT,
                                         VerdictKind.UNPARSEABLE])
    def test_only_a_direct_proof_is_a_trace(self, verdict):
        with pytest.raises(ValueError, match="direct-proof"):
            self.trace(verdict=verdict)

    def test_a_negative_duration_is_rejected(self):
        with pytest.raises(ValueError, match="duration_ms"):
            self.trace(duration_ms=-1)
