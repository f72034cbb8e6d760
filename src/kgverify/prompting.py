"""Prompt rendering from versioned plain-text template assets.

The verification prompt is byte-exact by design: evaluation results depend on
the precise wording, so the template ships as a repository asset and the run
manifest records its name and hash. The templates instruct the model to judge
only the supplied snippet, never its own knowledge.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING

from .errors import InvalidExamples
from .model import NLI_CLASSES, NliLabel, Statement

if TYPE_CHECKING:
    from .datasets import SnliRecord

SYSTEM_PROMPT = "You are a helpful assistant. Work only with the text given to you."

RDF_TEMPLATE = "rdf_verify_v1.txt"
NLI_TEMPLATE = "nli_fewshot_v1.txt"

@lru_cache(maxsize=None)
def template_text(name: str) -> str:
    return resources.files("kgverify.templates").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def template_digest(name: str) -> str:
    return hashlib.sha256(template_text(name).encode("utf-8")).hexdigest()


# The option wordings, as the verification template's "a) ..." lines state them;
# the response parser strips an echoed option to isolate the model's justification.
OPTION_TEXTS = {line[0]: line[3:] for line in template_text(RDF_TEMPLATE).splitlines()
                if line[1:3] == ") "}


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


def render_nli_prompt(premise: str, hypothesis: str, examples: list[SnliRecord]) -> str:
    """Render the few-shot NLI prompt: three worked examples, then the pair to label."""
    if not premise or not hypothesis:
        raise ValueError("premise and hypothesis must be non-empty")
    by_label = {}
    for example in examples:
        if example.gold in by_label:
            raise InvalidExamples(f"duplicate example for class {example.gold.value}")
        by_label[example.gold] = example
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
