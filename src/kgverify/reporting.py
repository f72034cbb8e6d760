"""Schema-validated XML process traces and their HTML rendering.

Every verification run is serialized to an XML document that validates
against the bundled schema; the bundled stylesheet then turns it into a
human-readable HTML report. Trace text (paragraphs, justifications) survives
the round trip verbatim.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from datetime import date as date_type
from datetime import time as time_type
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Sequence
from xml.etree import ElementTree as ET

from .errors import SchemaViolation
from .xmlkit import XsdValidator, XsltRenderer

if TYPE_CHECKING:
    from .verifier import VerificationSession

SCHEMA_VERSION = "1.0"
SCHEMA_ASSET = "report_v1.xsd"
STYLESHEET_ASSET = "report_v1.xsl"
# Characters XML 1.0 cannot carry: C0 controls but tab, LF and CR, and U+FFFE/U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


@dataclass(frozen=True)
class ReportSummary:
    """The run-level header block: model, timing, and pinned subject links."""

    llm_model: str
    date: date_type
    time: time_type
    duration_minutes: int
    duration_seconds: int
    subject_id: str
    subject_name: str
    subject_url: str
    subject_permalink: str
    endpoint: str
    wikipedia_url: str | None = None
    wikipedia_permalink: str | None = None

    def __post_init__(self) -> None:
        for name in ("subject_permalink", "wikipedia_permalink"):
            value = getattr(self, name)
            if value is not None and "oldid=" not in value:
                raise ValueError(f"{name} must pin a revision (oldid parameter)")


@lru_cache(maxsize=None)
def _asset_text(name: str) -> str:
    return resources.files("kgverify.schema").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _validator() -> XsdValidator:
    return XsdValidator(_asset_text(SCHEMA_ASSET))


@lru_cache(maxsize=None)
def _renderer() -> XsltRenderer:
    return XsltRenderer(_asset_text(STYLESHEET_ASSET))


def _child(parent: ET.Element, tag: str, text: str = "", **attrs: str | None) -> ET.Element:
    """A ``tag`` element under ``parent``; each character XML cannot carry, in
    ``text`` or an attribute, becomes U+FFFD, so the written XML parses."""
    elem = ET.SubElement(parent, tag, {k: _NOT_XML.sub("\ufffd", v)
                                       for k, v in attrs.items() if v is not None})
    if text:
        elem.text = _NOT_XML.sub("\ufffd", text)
    return elem


def _summary_xml(parent: ET.Element, summary: ReportSummary) -> None:
    block = ET.SubElement(parent, "summary")
    _child(block, "llm-model", summary.llm_model)
    _child(block, "date", summary.date.isoformat())
    _child(block, "time", summary.time.isoformat())
    _child(block, "duration-minutes", str(summary.duration_minutes))
    _child(block, "duration-seconds", str(summary.duration_seconds))
    _child(block, "subject-id", summary.subject_id)
    _child(block, "subject-name", summary.subject_name)
    _child(block, "subject-url", summary.subject_url)
    _child(block, "subject-permalink", summary.subject_permalink)
    if summary.wikipedia_url:
        _child(block, "wikipedia-url", summary.wikipedia_url)
    if summary.wikipedia_permalink:
        _child(block, "wikipedia-permalink", summary.wikipedia_permalink)
    _child(block, "endpoint", summary.endpoint)


def _session_xml(parent: ET.Element, session: VerificationSession) -> None:
    node = ET.SubElement(parent, "session", {"mode": session.mode.value})
    statement = ET.SubElement(node, "statement")
    stmt = session.statement
    _child(statement, "subject", stmt.subject_label, id=stmt.subject_id)
    _child(statement, "predicate", stmt.predicate_label, id=stmt.predicate_id)
    _child(statement, "object", stmt.object_label, id=stmt.object_id)
    _child(node, "started-at", session.started_at.isoformat())
    _child(node, "ended-at", session.ended_at.isoformat())
    _child(node, "paragraphs-queried", str(session.paragraphs_queried))
    if session.documents:
        docs = ET.SubElement(node, "documents")
        for record in session.documents:
            skip = record.skip
            _child(docs, "document", url=record.url, source=record.retrieval_source or None,
                   **{"skip-kind": skip and skip.kind, "skip-detail": skip and skip.detail})
    if session.wikipedia_anchors:
        anchors = ET.SubElement(node, "wikipedia-anchors")
        for anchor in session.wikipedia_anchors:
            _child(
                anchors,
                "anchor",
                anchor.paragraph_text,
                refs=" ".join(str(n) for n in anchor.ref_numbers),
            )
    if session.skips:
        skips = ET.SubElement(node, "skips")
        for skip in session.skips:
            _child(skips, "skip", skip.detail, kind=skip.kind, target=skip.target)
    traces = ET.SubElement(node, "traces")
    for trace in session.traces:
        t = ET.SubElement(traces, "trace")
        _child(t, "document-url", trace.document_url)
        _child(t, "retrieval-source", trace.retrieval_source.value)
        _child(t, "paragraph", trace.paragraph_text)
        _child(t, "verdict", trace.verdict.value.replace("_", "-"))
        _child(t, "justification", trace.justification)
        _child(t, "llm-model", trace.llm_model)
        _child(t, "timestamp", trace.timestamp.isoformat())
        _child(t, "duration-ms", str(trace.duration_ms))


def build_run_xml(
    sessions: Sequence[VerificationSession], summary: ReportSummary
) -> ET.ElementTree:
    """Serialize a whole run (one or more sessions) and validate the result."""
    root = ET.Element("verification-report", {"schema-version": SCHEMA_VERSION})
    _summary_xml(root, summary)
    for session in sessions:
        _session_xml(root, session)
    validate_report(root)
    return ET.ElementTree(root)


def validate_report(root: ET.Element) -> None:
    """Check a report document against the bundled schema."""
    _validator().validate(root)


def serialize_xml(tree: ET.ElementTree) -> bytes:
    """Deterministic, indented UTF-8 serialization."""
    root = tree.getroot()
    ET.indent(tree)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


def render_html(xml: ET.ElementTree | bytes) -> str:
    """Apply the bundled stylesheet to schema-valid report XML.

    Bytes are parsed and validated first; a tree is taken as valid already
    (``build_run_xml`` validates what it returns).
    """
    if isinstance(xml, ET.ElementTree):
        return _renderer().render(xml.getroot())
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise SchemaViolation(f"not well-formed XML: {exc}") from exc
    validate_report(root)
    return _renderer().render(root)


def schema_digest() -> str:
    return hashlib.sha256(_asset_text(SCHEMA_ASSET).encode("utf-8")).hexdigest()
