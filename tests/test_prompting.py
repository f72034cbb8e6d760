from __future__ import annotations

import pytest

from kgverify.datasets import SnliRecord
from kgverify.errors import InvalidExamples
from kgverify.model import NliLabel, Statement
from kgverify.prompting import (
    NLI_TEMPLATE,
    OPTION_TEXTS,
    RDF_TEMPLATE,
    SYSTEM_PROMPT,
    render_nli_prompt,
    render_rdf_prompt,
    template_digest,
    template_text,
)

HAVEL = Statement("Václav Havel", "award received", "Concordia Prize")

EXAMPLES = [
    SnliRecord("A soccer game with multiple males playing.",
               "Some men are playing a sport.", NliLabel.ENTAILMENT),
    SnliRecord("A woman reads a book on a park bench.",
               "The woman is waiting for her friend.", NliLabel.NEUTRAL),
    SnliRecord("A black dog leaps over a fallen log.",
               "The dog is resting in its kennel.", NliLabel.CONTRADICTION),
]


class TestRdfPrompt:
    def test_full_rendering(self):
        snippet = "Awards Received: honorary doctor of the Université libre de Bruxelles"
        prompt = render_rdf_prompt(HAVEL, snippet)
        assert prompt.startswith("Can the given RDF be inferred from the given snippet?")
        assert '["Václav Havel" - "award received" - "Concordia Prize"]' in prompt
        assert f'Snippet to verify from: "{snippet}"' in prompt
        assert "Please, choose the correct option based on your answer!" in prompt

    def test_exactly_three_option_lines(self):
        prompt = render_rdf_prompt(HAVEL, "snippet text")
        lines = prompt.splitlines()
        options = [l for l in lines if l[:2] in ("a)", "b)", "c)")]
        assert len(options) == 3
        assert options[0] == "a) " + OPTION_TEXTS["a"]
        assert options[1] == "b) " + OPTION_TEXTS["b"]
        assert options[2] == "c) " + OPTION_TEXTS["c"]

    def test_snippet_with_quotes_survives_verbatim(self):
        snippet = 'He said "the prize" was won in 1990 — twice.'
        prompt = render_rdf_prompt(HAVEL, snippet)
        assert snippet in prompt

    def test_labels_recoverable(self):
        prompt = render_rdf_prompt(HAVEL, "s")
        for label in HAVEL.labels():
            assert f'"{label}"' in prompt

    def test_empty_snippet_rejected(self):
        with pytest.raises(ValueError, match="snippet"):
            render_rdf_prompt(HAVEL, "")

    def test_never_appeals_to_internal_knowledge(self):
        prompt = render_rdf_prompt(HAVEL, "some snippet").lower()
        assert "your knowledge" not in prompt
        assert "you know" not in prompt


class TestSystemPrompt:
    def test_exact_text(self):
        assert SYSTEM_PROMPT == (
            "You are a helpful assistant. Work only with the text given to you."
        )

    def test_constant(self):
        assert len(SYSTEM_PROMPT.encode("utf-8")) == 66


class TestNliPrompt:
    def test_contains_examples_and_options(self):
        prompt = render_nli_prompt("A man in suit waiting for the green light",
                                   "A man waits at a red light", EXAMPLES)
        assert "a) entailment" in prompt
        assert "b) neutral" in prompt
        assert "c) contradiction" in prompt
        for example in EXAMPLES:
            assert example.premise in prompt
            assert example.hypothesis in prompt
        assert 'Premise: "A man in suit waiting for the green light"' in prompt

    def test_duplicate_class_rejected(self):
        duplicated = [EXAMPLES[0], EXAMPLES[0], EXAMPLES[2]]
        with pytest.raises(InvalidExamples):
            render_nli_prompt("p", "h", duplicated)

    def test_missing_class_rejected(self):
        with pytest.raises(InvalidExamples, match="contradiction"):
            render_nli_prompt("p", "h", EXAMPLES[:2])

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            render_nli_prompt("p", "", EXAMPLES)

    def test_example_label_validation(self):
        with pytest.raises(ValueError):
            SnliRecord("p", "h", NliLabel.UNPARSEABLE)


class TestTemplates:
    def test_digests_are_stable_sha256(self):
        for name in (RDF_TEMPLATE, NLI_TEMPLATE):
            digest = template_digest(name)
            assert len(digest) == 64
            assert digest == template_digest(name)

    def test_rdf_template_carries_canonical_option_texts(self):
        """The option texts are read from the template: it holds the paper's wording."""
        text = template_text(RDF_TEMPLATE)
        for letter, option in OPTION_TEXTS.items():
            assert f"{letter}) {option}" in text
        assert OPTION_TEXTS == {
            "a": "The RDF statement can be directly verified from the snippet. "
                 "The snippet contains direct proof.",
            "b": "The snippet contains some indications of the truthfulness of the RDF.",
            "c": "The RDF statement definitely cannot be inferred from the snippet.",
        }
