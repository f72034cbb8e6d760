"""kgverify: traceable verification of knowledge-graph statements.

Statements are compared against paragraphs of external grounding documents by
a pluggable LLM acting purely as a snippet-vs-statement comparator; every
confirmation is backed by an evidence trace (document, paragraph,
justification).
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    BinaryDecision,
    DecisionMode,
    EvidenceTrace,
    NliLabel,
    RetrievalSource,
    Statement,
    VerdictKind,
    statement_to_search_query,
    verdict_to_binary,
)
