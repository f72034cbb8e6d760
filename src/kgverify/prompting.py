"""Prompt rendering from versioned plain-text template assets.

The verification prompt is byte-exact by design: evaluation results depend on
the precise wording, so the template ships as a repository asset and the run
manifest records its name and hash. The templates instruct the model to judge
only the supplied snippet, never its own knowledge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import InvalidExamples
from .model import NLI_CLASSES, NliLabel, Statement

SYSTEM_PROMPT = "You are a helpful assistant. Work only with the text given to you."

RDF_TEMPLATE = "rdf_verify_v1.txt"
NLI_TEMPLATE = "nli_fewshot_v1.txt"

# Canonical option wordings; the response parser uses these to strip echoed
# option text when isolating the model's justification.
OPTION_TEXTS = {
    "a": "The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof.",
    "b": "The snippet contains some indications of the truthfulness of the RDF.",
    "c": "The RDF statement definitely cannot be inferred from the snippet.",
}


@lru_cache(maxsize=None)
def template_text(name: str) -> str:
    return resources.files("kgverify.templates").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def template_digest(name: str) -> str:
    return hashlib.sha256(template_text(name).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class NliExample:
    premise: str
    hypothesis: str
    label: NliLabel

    def __post_init__(self) -> None:
        if not self.premise or not self.hypothesis:
            raise ValueError("example premise and hypothesis must be non-empty")
        if self.label not in NLI_CLASSES:
            raise ValueError("example label must be a concrete class")


def render_rdf_prompt(statement: Statement, snippet: str) -> str:
    """Render the three-option snippet-vs-statement verification prompt."""
    if not snippet:
        raise ValueError("snippet must be non-empty")
    return template_text(RDF_TEMPLATE).format(
        subject=statement.subject_label,
        predicate=statement.predicate_label,
        object=statement.object_label,
        snippet=snippet,
    )


def render_nli_prompt(premise: str, hypothesis: str, examples: list[NliExample]) -> str:
    """Render the few-shot NLI prompt: three worked examples, then the pair to label."""
    if not premise or not hypothesis:
        raise ValueError("premise and hypothesis must be non-empty")
    by_label = {}
    for example in examples:
        if example.label in by_label:
            raise InvalidExamples(f"duplicate example for class {example.label.value}")
        by_label[example.label] = example
    missing = [label.value for label in NLI_CLASSES if label not in by_label]
    if missing:
        raise InvalidExamples(f"missing example for class(es): {', '.join(missing)}")
    ent = by_label[NliLabel.ENTAILMENT]
    neu = by_label[NliLabel.NEUTRAL]
    con = by_label[NliLabel.CONTRADICTION]
    return template_text(NLI_TEMPLATE).format(
        example_a_premise=ent.premise,
        example_a_hypothesis=ent.hypothesis,
        example_b_premise=neu.premise,
        example_b_hypothesis=neu.hypothesis,
        example_c_premise=con.premise,
        example_c_hypothesis=con.hypothesis,
        premise=premise,
        hypothesis=hypothesis,
    )
