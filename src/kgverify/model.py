"""Core domain types: statements, verdict kinds, decisions, and evidence traces.

Everything here is an immutable value object, safe to share between workers.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from datetime import datetime

from .errors import MalformedInput, malformed

_WS_RUN = re.compile(r"\s+")


def normalize_label(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return _WS_RUN.sub(" ", text.strip())


@dataclass(frozen=True)
class Statement:
    """A subject/predicate/object triple, optionally carrying KG identifiers."""

    subject_label: str
    predicate_label: str
    object_label: str
    subject_id: str | None = None
    predicate_id: str | None = None
    object_id: str | None = None
    domain_tag: str | None = None

    def __post_init__(self) -> None:
        for name in ("subject_label", "predicate_label", "object_label"):
            if not getattr(self, name).strip():
                raise ValueError(f"statement {name} must be non-empty")

    def labels(self) -> tuple[str, str, str]:
        return (self.subject_label, self.predicate_label, self.object_label)


class VerdictKind(enum.Enum):
    """The three-option judgment of a snippet against a statement."""

    DIRECT_PROOF = "direct_proof"
    INDICATION = "indication"
    NO_SUPPORT = "no_support"
    UNPARSEABLE = "unparseable"


class BinaryDecision(enum.Enum):
    SUPPORTED = "supported"
    NOT_SUPPORTED = "not_supported"


class DecisionMode(enum.Enum):
    """How the middle (indication) option is folded into a binary decision.

    FAVOR_PRECISION counts only direct proof as support; FAVOR_RECALL also
    accepts the indication option, trading precision for recall.
    """

    FAVOR_PRECISION = "precision"
    FAVOR_RECALL = "recall"


class NliLabel(enum.Enum):
    ENTAILMENT = "entailment"
    NEUTRAL = "neutral"
    CONTRADICTION = "contradiction"
    UNPARSEABLE = "unparseable"


NLI_CLASSES = (NliLabel.ENTAILMENT, NliLabel.NEUTRAL, NliLabel.CONTRADICTION)


class RetrievalSource(enum.Enum):
    DIRECT = "direct"
    WEB_ARCHIVE = "web-archive"


@dataclass(frozen=True)
class EvidenceTrace:
    """The record that makes a confirmation traceable.

    Names the exact document paragraph that confirmed a statement and the
    model's stated justification; the statement is its session's. Only
    direct-proof verdicts may be emitted as confirmations.
    """

    document_url: str
    retrieval_source: RetrievalSource
    paragraph_text: str
    verdict: VerdictKind
    justification: str
    llm_model: str
    timestamp: datetime
    duration_ms: int

    def __post_init__(self) -> None:
        if self.verdict is not VerdictKind.DIRECT_PROOF:
            raise ValueError("evidence traces may only carry direct-proof verdicts")
        if self.duration_ms < 0:
            raise ValueError("duration_ms must be non-negative")


def statement_to_search_query(statement: Statement) -> str:
    """Build the web-search query for a statement.

    The three labels are whitespace-normalized and joined with single spaces,
    followed by the ``-wikipedia`` operator so encyclopedia mirrors do not
    crowd out primary sources (Wikipedia has its own verification mode).
    """
    parts = [normalize_label(p) for p in statement.labels()]
    return " ".join(parts) + " -wikipedia"


def verdict_to_binary(verdict: VerdictKind, mode: DecisionMode) -> BinaryDecision:
    """Fold a three-option verdict into a binary supported/not-supported call."""
    positive = {VerdictKind.DIRECT_PROOF}
    if mode is DecisionMode.FAVOR_RECALL:
        positive.add(VerdictKind.INDICATION)
    if verdict in positive:
        return BinaryDecision.SUPPORTED
    return BinaryDecision.NOT_SUPPORTED


# -- serialization ------------------------------------------------------------

_TSV_COLUMNS = 6


def statement_to_json(statement: Statement) -> dict:
    out: dict = {
        "subject": statement.subject_label,
        "predicate": statement.predicate_label,
        "object": statement.object_label,
    }
    for key, value in (
        ("subject_id", statement.subject_id),
        ("predicate_id", statement.predicate_id),
        ("object_id", statement.object_id),
        ("domain_tag", statement.domain_tag),
    ):
        if value is not None:
            out[key] = value
    return out


def statement_from_json(obj: dict) -> Statement:
    with malformed(MalformedInput, "bad statement record", obj):
        return Statement(
            subject_label=obj["subject"],
            predicate_label=obj["predicate"],
            object_label=obj["object"],
            subject_id=obj.get("subject_id"),
            predicate_id=obj.get("predicate_id"),
            object_id=obj.get("object_id"),
            domain_tag=obj.get("domain_tag"),
        )


def statement_from_line(line: str, lineno: int = 0) -> Statement:
    """Parse one tab-separated statement line: three labels plus optional ids."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) not in (3, _TSV_COLUMNS):
        raise MalformedInput(
            f"line {lineno}: expected 3 or {_TSV_COLUMNS} tab-separated columns, got {len(cols)}"
        )
    cols += [""] * (_TSV_COLUMNS - len(cols))
    try:
        return Statement(
            subject_label=cols[0],
            predicate_label=cols[1],
            object_label=cols[2],
            subject_id=cols[3] or None,
            predicate_id=cols[4] or None,
            object_id=cols[5] or None,
        )
    except ValueError as exc:
        raise MalformedInput(f"line {lineno}: {exc}") from exc


def statements_from_text(text: str) -> list[Statement]:
    """Parse a statements file: one triple per line, blank lines and # comments skipped."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        out.append(statement_from_line(line, lineno))
    return out
