from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgverify.errors import EmptyInput
from kgverify.evaluation import (
    ConfusionCounts,
    DocumentJudgment,
    binary_confusion,
    compute_metrics,
    format_binary_table,
    format_nli_table,
    micro_average,
    percent,
    reconcile_loose,
    reconcile_strict,
    rounded_percent,
    tally_nli,
)
from kgverify.model import NLI_CLASSES, BinaryDecision, NliLabel

E, N, C = NliLabel.ENTAILMENT, NliLabel.NEUTRAL, NliLabel.CONTRADICTION

# Published per-group confusion integers with their reported percentages.
POSITIVE_CORRELATION_ROWS = [
    (("ChemicalEntity", "DiseaseOrPhenotypicFeature"), (176, 382, 14, 220), 92.63, 44.44),
    (("ChemicalEntity", "GeneOrGeneProduct"), (63, 122, 2, 61), 96.92, 50.81),
    (("SequenceVariant", "DiseaseOrPhenotypicFeature"), (201, 173, 65, 37), 75.56, 84.45),
    (("ChemicalEntity", "ChemicalEntity"), (27, 50, 1, 24), 96.43, 52.94),
    (("GeneOrGeneProduct", "GeneOrGeneProduct"), (97, 160, 7, 70), 93.27, 58.08),
    (("GeneOrGeneProduct", "DiseaseOrPhenotypicFeature"), (25, 40, 3, 18), 89.29, 58.14),
]
NEGATIVE_CORRELATION_ROWS = [
    (("ChemicalEntity", "DiseaseOrPhenotypicFeature"), (37, 277, 1, 241), 97.37, 13.31),
    (("ChemicalEntity", "GeneOrGeneProduct"), (77, 174, 10, 107), 88.51, 41.85),
    (("SequenceVariant", "DiseaseOrPhenotypicFeature"), (9, 13, 0, 4), 100.00, 69.23),
    (("ChemicalEntity", "ChemicalEntity"), (18, 110, 0, 92), 100.00, 16.36),
    (("GeneOrGeneProduct", "GeneOrGeneProduct"), (29, 65, 4, 40), 87.88, 42.03),
    (("GeneOrGeneProduct", "DiseaseOrPhenotypicFeature"), (5, 46, 0, 41), 100.00, 10.87),
]
STRICT_ROWS = [
    ("Positive Correlation", (12, 1019, 0, 1007), 100.00, 1.18),
    ("Negative Correlation", (0, 700, 0, 700), None, 0.00),
]
LOOSE_ROWS = [
    ("Positive Correlation", (49, 1012, 7, 970), 87.50, 4.81),
    ("Negative Correlation", (55, 695, 5, 645), 91.67, 7.86),
]

ALL_GOLDEN_ROWS = (
    [(counts, p, r) for _, counts, p, r in POSITIVE_CORRELATION_ROWS]
    + [(counts, p, r) for _, counts, p, r in NEGATIVE_CORRELATION_ROWS]
    + [(counts, p, r) for _, counts, p, r in STRICT_ROWS]
    + [(counts, p, r) for _, counts, p, r in LOOSE_ROWS]
)


class TestComputeMetrics:
    @pytest.mark.parametrize("counts,precision,recall", ALL_GOLDEN_ROWS)
    def test_published_cells(self, counts, precision, recall):
        metrics = compute_metrics(ConfusionCounts(*counts))
        assert rounded_percent(metrics.precision) == precision
        assert rounded_percent(metrics.recall) == recall

    def test_undefined_precision_prints_nan(self):
        metrics = compute_metrics(ConfusionCounts(0, 700, 0, 700))
        assert metrics.precision is None
        assert percent(metrics.precision) == "NaN"
        assert percent(metrics.recall) == "0.00 %"

    def test_all_zero(self):
        metrics = compute_metrics(ConfusionCounts())
        assert metrics.precision is None
        assert metrics.recall is None
        assert metrics.f1 is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestMicroAverage:
    def test_positive_correlation_micro(self):
        total = micro_average(ConfusionCounts(*c) for _, c, _, _ in POSITIVE_CORRELATION_ROWS)
        assert (total.tp, total.tn, total.fp, total.fn) == (589, 927, 92, 430)
        metrics = compute_metrics(total)
        assert rounded_percent(metrics.precision) == 86.49
        assert rounded_percent(metrics.recall) == 57.80

    def test_negative_correlation_micro(self):
        total = micro_average(ConfusionCounts(*c) for _, c, _, _ in NEGATIVE_CORRELATION_ROWS)
        assert (total.tp, total.tn, total.fp, total.fn) == (175, 685, 15, 525)
        metrics = compute_metrics(total)
        assert rounded_percent(metrics.precision) == 92.11
        assert rounded_percent(metrics.recall) == 25.00

    def test_combined_micro(self):
        rows = POSITIVE_CORRELATION_ROWS + NEGATIVE_CORRELATION_ROWS
        total = micro_average(ConfusionCounts(*c) for _, c, _, _ in rows)
        assert (total.tp, total.tn, total.fp, total.fn) == (764, 1612, 107, 955)
        metrics = compute_metrics(total)
        assert rounded_percent(metrics.precision, 1) == 87.7
        assert rounded_percent(metrics.recall, 1) == 44.4
        assert abs(metrics.f1 * 100 - 59.0) <= 0.05

    def test_empty(self):
        assert micro_average([]) == ConfusionCounts()

    @given(st.lists(st.tuples(*[st.integers(0, 50)] * 4), max_size=10))
    def test_merge_is_associative_sum(self, rows):
        counts = [ConfusionCounts(*r) for r in rows]
        total = micro_average(counts)
        assert (total.tp, total.tn, total.fp, total.fn) == tuple(
            sum(getattr(c, name) for c in counts) for name in ("tp", "tn", "fp", "fn"))


class TestBinaryConfusion:
    def test_tally(self):
        S, NS = BinaryDecision.SUPPORTED, BinaryDecision.NOT_SUPPORTED
        counts = binary_confusion([(S, S), (S, NS), (NS, S), (NS, NS), (S, S)])
        assert counts == ConfusionCounts(tp=2, tn=1, fp=1, fn=1)


def oracle_loose(labels):
    return DocumentJudgment.ENTAILMENT if any(
        label is E for label in labels
    ) else DocumentJudgment.NOT_ENTAILMENT


def oracle_strict(labels):
    has_entailment = any(label is E for label in labels)
    has_contradiction = any(label is C for label in labels)
    if has_entailment and not has_contradiction:
        return DocumentJudgment.ENTAILMENT
    return DocumentJudgment.NOT_ENTAILMENT


def all_sequences(max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(NLI_CLASSES, repeat=length)


class TestReconciliation:
    def test_loose_examples(self):
        assert reconcile_loose([N, E, C]) == DocumentJudgment.ENTAILMENT
        assert reconcile_loose([N, N]) == DocumentJudgment.NOT_ENTAILMENT
        assert reconcile_loose([C]) == DocumentJudgment.NOT_ENTAILMENT

    def test_strict_examples(self):
        assert reconcile_strict([E, N, N]) == DocumentJudgment.ENTAILMENT
        assert reconcile_strict([E, E, C]) == DocumentJudgment.NOT_ENTAILMENT
        assert reconcile_strict([N]) == DocumentJudgment.NOT_ENTAILMENT

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            reconcile_loose([])
        with pytest.raises(EmptyInput):
            reconcile_strict([])

    def test_matches_oracles_exhaustively(self):
        sequences = list(all_sequences(4))
        assert len(sequences) == 120
        for seq in sequences:
            assert reconcile_loose(list(seq)) == oracle_loose(seq)
            assert reconcile_strict(list(seq)) == oracle_strict(seq)

    def test_strict_implies_loose(self):
        for seq in all_sequences(4):
            if reconcile_strict(list(seq)) == DocumentJudgment.ENTAILMENT:
                assert reconcile_loose(list(seq)) == DocumentJudgment.ENTAILMENT

    @given(st.lists(st.sampled_from(NLI_CLASSES), min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    def test_order_invariance(self, labels, rng):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        assert reconcile_loose(labels) == reconcile_loose(shuffled)
        assert reconcile_strict(labels) == reconcile_strict(shuffled)


# Published 3x3 matrices: rows = expected E/N/C, columns = answered E/N/C.
NLI_TABLES = {
    "llama-3-8b": ([[326, 15, 4], [248, 27, 35], [23, 15, 305]], 2, 65.8),
    "llama-3-70b": ([[326, 9, 11], [63, 217, 30], [4, 16, 324]], 0, 86.7),
    "llama-3.1-405b": ([[321, 17, 8], [38, 260, 12], [2, 28, 314]], 0, 89.5),
}


def stream_from_matrix(matrix, unparsed):
    records = []
    for i, expected in enumerate(NLI_CLASSES):
        for j, answered in enumerate(NLI_CLASSES):
            records.extend([(expected, answered)] * matrix[i][j])
    records.extend([(E, NliLabel.UNPARSEABLE)] * unparsed)
    return records


class TestTallyNli:
    @pytest.mark.parametrize("name", sorted(NLI_TABLES))
    def test_published_matrices(self, name):
        matrix, unparsed, accuracy = NLI_TABLES[name]
        confusion = tally_nli(stream_from_matrix(matrix, unparsed))
        assert [list(row) for row in confusion.matrix] == matrix
        assert confusion.unparsed == unparsed
        assert confusion.total == 1000
        assert rounded_percent(confusion.accuracy(), 1) == accuracy

    def test_matrix_plus_unparsed_account_for_all_records(self):
        matrix, unparsed, _ = NLI_TABLES["llama-3-8b"]
        confusion = tally_nli(stream_from_matrix(matrix, unparsed))
        assert sum(sum(row) for row in confusion.matrix) == 998
        assert confusion.unparsed == 2

    def test_all_correct(self):
        confusion = tally_nli([(E, E)] * 4 + [(N, N)] * 3 + [(C, C)] * 3)
        assert confusion.accuracy() == 1.0

    def test_row_sums_match_expected_counts(self):
        records = stream_from_matrix(NLI_TABLES["llama-3-70b"][0], 0)
        confusion = tally_nli(records)
        for expected, row in zip(NLI_CLASSES, confusion.matrix):
            assert sum(row) == sum(
                1 for exp, ans in records
                if exp is expected and ans is not NliLabel.UNPARSEABLE
            )

    def test_rejects_unparseable_expected(self):
        with pytest.raises(ValueError):
            tally_nli([(NliLabel.UNPARSEABLE, E)])


class TestTableFormatting:
    def test_binary_table_text(self):
        groups = [(pair, ConfusionCounts(*c)) for pair, c, _, _ in POSITIVE_CORRELATION_ROWS]
        text = format_binary_table(groups, title="Relation: Positive_Correlation")
        assert "92.63 %" in text
        assert "Average (micro)" in text
        assert "86.49 %" in text

    def test_nli_table_text(self):
        matrix, unparsed, _ = NLI_TABLES["llama-3-70b"]
        text = format_nli_table(tally_nli(stream_from_matrix(matrix, unparsed)),
                                model_name="llama-3-70b")
        assert "Expected entailment" in text
        assert "(326)" in text
        assert "86.7 %" in text
