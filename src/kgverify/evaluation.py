"""Confusion accounting and metric computation for the benchmark harnesses.

Covers binary confusion counts with micro-averaged precision/recall/F1,
sentence-level label reconciliation (strict and loose), and the 3x3 confusion
matrix used for the NLI evaluation. All operations are pure; binary counts
merge associatively, which is what micro-averaging sums.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .errors import EmptyInput
from .model import NLI_CLASSES, BinaryDecision, NliLabel


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
        )


@dataclass(frozen=True)
class Metrics:
    """Derived ratios; ``None`` means undefined (zero denominator)."""

    precision: float | None
    recall: float | None
    f1: float | None


def compute_metrics(c: ConfusionCounts) -> Metrics:
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    f1 = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return Metrics(precision=precision, recall=recall, f1=f1)


def micro_average(rows: Iterable[ConfusionCounts]) -> ConfusionCounts:
    """Component-wise sum; metrics of the sum are the micro-averaged metrics."""
    out = ConfusionCounts()
    for row in rows:
        out = out + row
    return out


def _quantized(value: float, decimals: int) -> Decimal:
    """``value`` as a percentage at ``decimals`` places, rounding half-up."""
    # str() keeps the shortest decimal form so half-up ties behave as written
    return Decimal(str(value * 100)).quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_UP)


def percent(value: float | None, decimals: int = 2) -> str:
    """Render a fraction as a percentage, rounding half-up; undefined prints NaN."""
    return "NaN" if value is None else f"{_quantized(value, decimals)} %"


def rounded_percent(value: float | None, decimals: int = 2) -> float | None:
    """The numeric percentage at fixed precision, for exact comparisons."""
    return None if value is None else float(_quantized(value, decimals))


def binary_confusion(
    pairs: Iterable[tuple[BinaryDecision, BinaryDecision]],
) -> ConfusionCounts:
    """Tally (gold, predicted) decision pairs into confusion counts."""
    tp = tn = fp = fn = 0
    for gold, predicted in pairs:
        if gold is BinaryDecision.SUPPORTED:
            if predicted is BinaryDecision.SUPPORTED:
                tp += 1
            else:
                fn += 1
        else:
            if predicted is BinaryDecision.SUPPORTED:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


# -- sentence-level reconciliation --------------------------------------------


class DocumentJudgment:
    ENTAILMENT = "entailment"
    NOT_ENTAILMENT = "not_entailment"


def reconcile_loose(labels: Sequence[NliLabel]) -> str:
    """A document entails iff at least one sentence entails.

    Contradicting sentences elsewhere in the document are permitted, which
    raises recall at the cost of precision.
    """
    if not labels:
        raise EmptyInput("cannot reconcile an empty label list")
    if any(label is NliLabel.ENTAILMENT for label in labels):
        return DocumentJudgment.ENTAILMENT
    return DocumentJudgment.NOT_ENTAILMENT


def reconcile_strict(labels: Sequence[NliLabel]) -> str:
    """Like the loose rule, but any contradicting sentence vetoes entailment."""
    if not labels:
        raise EmptyInput("cannot reconcile an empty label list")
    if any(label is NliLabel.CONTRADICTION for label in labels):
        return DocumentJudgment.NOT_ENTAILMENT
    return reconcile_loose(labels)


# -- NLI confusion -------------------------------------------------------------


@dataclass(frozen=True)
class NliConfusion:
    """3x3 matrix of (expected, answered) counts plus an unparsed bucket."""

    matrix: tuple[tuple[int, int, int], ...]
    unparsed: int = 0

    def count(self, expected: NliLabel, answered: NliLabel) -> int:
        return self.matrix[NLI_CLASSES.index(expected)][NLI_CLASSES.index(answered)]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.matrix) + self.unparsed

    @property
    def correct(self) -> int:
        return sum(self.matrix[i][i] for i in range(3))

    def accuracy(self) -> float | None:
        return self.correct / self.total if self.total else None


def tally_nli(records: Iterable[tuple[NliLabel, NliLabel]]) -> NliConfusion:
    """Tally (expected, answered) pairs; unparseable answers land in their own bucket."""
    cells = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    unparsed = 0
    for expected, answered in records:
        if expected not in NLI_CLASSES:
            raise ValueError(f"expected label must be a concrete class, got {expected}")
        if answered is NliLabel.UNPARSEABLE:
            unparsed += 1
            continue
        cells[NLI_CLASSES.index(expected)][NLI_CLASSES.index(answered)] += 1
    return NliConfusion(matrix=tuple(tuple(row) for row in cells), unparsed=unparsed)


# -- table rendering -----------------------------------------------------------


def _binary_rows(
    groups: Sequence[tuple[tuple[str, str], ConfusionCounts]],
) -> list[tuple[str, str, ConfusionCounts, Metrics]]:
    """Concept 1, concept 2, counts and metrics of each group, then of the micro average."""
    labelled = [(left, right, counts) for (left, right), counts in groups]
    labelled.append(("Average (micro)", "", micro_average(counts for _, counts in groups)))
    return [(left, right, counts, compute_metrics(counts)) for left, right, counts in labelled]


def _aligned(header: list[str], body: list[list[str]]) -> list[str]:
    """The header and body rows, each cell padded to its column's width."""
    widths = [max(map(len, column)) for column in zip(header, *body)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in [header, *body]]


def binary_table_rows(
    groups: Sequence[tuple[tuple[str, str], ConfusionCounts]],
) -> list[dict]:
    """Per-group rows plus a micro-average row, as plain dicts for JSON output."""
    return [
        {"concept_1": left, "concept_2": right, **asdict(counts),
         "precision": rounded_percent(m.precision), "recall": rounded_percent(m.recall)}
        for left, right, counts, m in _binary_rows(groups)
    ]


def format_binary_table(
    groups: Sequence[tuple[tuple[str, str], ConfusionCounts]], title: str = ""
) -> str:
    """Aligned text table mirroring the per-concept-pair evaluation layout."""
    header = ["Concept 1", "Concept 2", "TP", "TN", "FP", "FN", "Precision", "Recall"]
    body = [[left, right, *map(str, astuple(counts)), percent(m.precision), percent(m.recall)]
            for left, right, counts, m in _binary_rows(groups)]
    return "\n".join(([title] if title else []) + _aligned(header, body))


def format_nli_table(confusion: NliConfusion, model_name: str) -> str:
    """Aligned text table of the 3x3 NLI confusion matrix with percentages."""
    total = confusion.total
    header = [model_name, "Answered entailment", "Answered neutral", "Answered contradiction"]
    body = []
    for expected in NLI_CLASSES:
        cells = [f"Expected {expected.value}"]
        for answered in NLI_CLASSES:
            n = confusion.count(expected, answered)
            share = percent(n / total if total else None, decimals=1)
            cells.append(f"{share} ({n})")
        body.append(cells)
    acc = confusion.accuracy()
    return "\n".join([*_aligned(header, body),
                      f"accuracy: {percent(acc, decimals=1)}  (unparsed: {confusion.unparsed})"])
