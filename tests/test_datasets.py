from __future__ import annotations

import dataclasses
import json

import pytest

from kgverify.datasets import (
    GroundTruth,
    LabeledInstance,
    Origin,
    SnliRecord,
    dataset_manifest,
    extract_positives,
    generate_negatives,
    instance_from_json,
    instance_to_json,
    instances_to_jsonl,
    load_biored,
    load_snli,
    normalize_pair,
    pick_nli_example_records,
    read_instances,
    sample_snli_test,
)
from kgverify.errors import InsufficientRecords, MalformedInput
from kgverify.model import BinaryDecision, NliLabel

SNLI_DIR_NAME = "snli"


@pytest.fixture(scope="module")
def mini_docs(request):
    path = request.path.parent / "fixtures" / "biored_mini"
    return load_biored(path)


class TestLoadBiored:
    def test_all_splits_merged(self, mini_docs):
        assert [d.doc_id for d in mini_docs] == ["1004", "1001", "1002", "1003"]

    def test_document_text_joins_title_and_abstract(self, mini_docs):
        doc = next(d for d in mini_docs if d.doc_id == "1001")
        assert doc.text.startswith("Aspirin relieves headache")
        assert "recurrent headache" in doc.text

    def test_entities_carry_surface_forms_in_order(self, mini_docs):
        doc = next(d for d in mini_docs if d.doc_id == "1001")
        aspirin = doc.entities["C-ASP"]
        assert aspirin.concept_type == "ChemicalEntity"
        assert aspirin.surface_forms == ("Aspirin", "aspirin")
        assert aspirin.canonical_surface == "Aspirin"

    def test_missing_path(self, tmp_path):
        with pytest.raises(MalformedInput):
            load_biored(tmp_path)

    def test_relation_with_unknown_entity(self, tmp_path):
        payload = {
            "documents": [
                {
                    "id": "9",
                    "passages": [
                        {
                            "infons": {"type": "title"},
                            "text": "t",
                            "annotations": [
                                {"id": "0", "infons": {"identifier": "E1",
                                                       "type": "ChemicalEntity"},
                                 "text": "x", "locations": []},
                            ],
                        }
                    ],
                    "relations": [
                        {"id": "R0", "infons": {"entity1": "E1", "entity2": "GHOST",
                                                "type": "Positive_Correlation"}},
                    ],
                }
            ]
        }
        path = tmp_path / "Bad.BioC.JSON"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(MalformedInput, match="GHOST"):
            load_biored(tmp_path)

    @pytest.mark.parametrize("fault", ["top-level-list", "infons-number", "no-text", "no-id",
                                       "relation-incomplete", "no-documents"])
    def test_malformed_bioc_names_the_file(self, request, tmp_path, fault):
        source = request.path.parent / "fixtures" / "biored_mini"
        collection = json.loads(sorted(source.iterdir())[0].read_text(encoding="utf-8"))
        document = collection["documents"][0]
        reason = {"no-id": "document without id", "relation-incomplete": "R0 is incomplete",
                  "no-documents": "no documents found"}.get(fault, "")
        if fault == "top-level-list":
            collection = [collection]
        elif fault == "infons-number":
            document["passages"][0]["annotations"][0]["infons"] = 7
        elif fault == "no-text":
            for passage in document["passages"]:
                passage["text"] = ""
        elif fault == "no-id":
            del document["id"]
        elif fault == "relation-incomplete":
            del document["relations"][0]["infons"]["type"]
        else:
            collection["documents"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(collection), encoding="utf-8")
        with pytest.raises(MalformedInput, match="bad.json") as caught:
            load_biored(path)
        assert reason in str(caught.value)

    def test_a_document_in_two_splits_is_loaded_once(self, request, tmp_path):
        """A document id seen in an earlier split (in file-name order) is skipped."""
        source = request.path.parent / "fixtures" / "biored_mini"
        text = (source / "Test_mini.BioC.JSON").read_text(encoding="utf-8")
        (tmp_path / "a.json").write_text(text, encoding="utf-8")
        (tmp_path / "b.json").write_text(text, encoding="utf-8")
        assert [d.doc_id for d in load_biored(tmp_path)] == ["1004"]

    def test_annotations_without_a_usable_identifier_add_no_entity(self, tmp_path):
        """An identifier ``-`` names no entity, and nor does an empty part of
        a comma-separated one."""
        annotations = [
            {"infons": {"identifier": "-", "type": "ChemicalEntity"}, "text": "x"},
            {"infons": {"identifier": "E1,,E2", "type": "ChemicalEntity"}, "text": "y"},
        ]
        payload = {"documents": [{"id": "9", "passages": [
            {"text": "x and y", "annotations": annotations}]}]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        [doc] = load_biored(path)
        assert [(e.identifier, e.surface_forms) for e in doc.entities.values()] == [
            ("E1", ("y",)), ("E2", ("y",))]


class TestNormalizePair:
    def test_a_type_outside_the_table_order_comes_last_by_name(self):
        assert normalize_pair("Zebrafish", "CellLine") == ("CellLine", "Zebrafish")
        assert normalize_pair("Zebrafish", "Anatomy") == ("Anatomy", "Zebrafish")

    def test_canonical_order_matches_reported_tables(self):
        assert normalize_pair("DiseaseOrPhenotypicFeature", "ChemicalEntity") == (
            "ChemicalEntity", "DiseaseOrPhenotypicFeature"
        )
        assert normalize_pair("DiseaseOrPhenotypicFeature", "SequenceVariant") == (
            "SequenceVariant", "DiseaseOrPhenotypicFeature"
        )
        assert normalize_pair("DiseaseOrPhenotypicFeature", "GeneOrGeneProduct") == (
            "GeneOrGeneProduct", "DiseaseOrPhenotypicFeature"
        )
        assert normalize_pair("ChemicalEntity", "ChemicalEntity") == (
            "ChemicalEntity", "ChemicalEntity"
        )


class TestExtractPositives:
    def test_counts_and_exclusions(self, mini_docs):
        positives = extract_positives(mini_docs)
        assert len(positives) == 5
        by_type = {}
        for p in positives:
            by_type.setdefault(p.relation_type, []).append(p)
        assert len(by_type["Positive_Correlation"]) == 3
        assert len(by_type["Negative_Correlation"]) == 2
        # the variant/chemical pair from doc 1003 is excluded
        assert not any(
            {"SequenceVariant", "ChemicalEntity"} == set(p.concept_pair) for p in positives
        )
        # the Association relation from doc 1002 is ignored
        assert not any(p.relation_type == "Association" for p in positives)

    def test_instances_are_supported_ground_truth(self, mini_docs):
        for p in extract_positives(mini_docs):
            assert p.gold is BinaryDecision.SUPPORTED
            assert p.origin is Origin.GROUND_TRUTH
            assert p.grounding_text
            assert p.statement.subject_label

    def test_deterministic_and_order_independent(self, mini_docs):
        assert extract_positives(mini_docs) == extract_positives(list(reversed(mini_docs)))

    def test_invariant_enforced(self, mini_docs):
        positive = extract_positives(mini_docs)[0]
        with pytest.raises(ValueError):
            LabeledInstance(
                statement=positive.statement,
                grounding_text=positive.grounding_text,
                gold=BinaryDecision.NOT_SUPPORTED,
                concept_pair=positive.concept_pair,
                relation_type=positive.relation_type,
                origin=Origin.GROUND_TRUTH,
                doc_id=positive.doc_id,
                tail_type=positive.tail_type,
            )


class TestGenerateNegatives:
    def test_one_negative_per_positive(self, mini_docs):
        positives = extract_positives(mini_docs)
        truth = GroundTruth.from_documents(mini_docs)
        negatives, skips = generate_negatives(positives, truth, seed=42)
        assert skips == []
        assert len(negatives) == len(positives)

    def test_corruption_rules_brute_force(self, mini_docs):
        positives = extract_positives(mini_docs)
        truth = GroundTruth.from_documents(mini_docs)
        negatives, _ = generate_negatives(positives, truth, seed=42)
        for positive, negative in zip(positives, negatives):
            original = positive.statement
            corrupted = negative.statement
            assert corrupted.subject_id == original.subject_id
            assert corrupted.predicate_label == original.predicate_label
            assert corrupted.object_id != original.object_id
            assert negative.gold is BinaryDecision.NOT_SUPPORTED
            assert negative.origin is Origin.CORRUPTED
            assert negative.grounding_text == positive.grounding_text
            # type consistency against the corpus catalog
            assert corrupted.object_id in truth.pool[positive.tail_type]
            # absent from ground truth in either orientation
            assert (corrupted.subject_id, positive.relation_type,
                    corrupted.object_id) not in truth.triples
            assert (corrupted.object_id, positive.relation_type,
                    corrupted.subject_id) not in truth.triples

    def test_same_seed_identical(self, mini_docs):
        positives = extract_positives(mini_docs)
        truth = GroundTruth.from_documents(mini_docs)
        first, _ = generate_negatives(positives, truth, seed=7)
        second, _ = generate_negatives(positives, truth, seed=7)
        assert first == second

    def test_different_seed_can_differ(self, mini_docs):
        positives = extract_positives(mini_docs)
        truth = GroundTruth.from_documents(mini_docs)
        a, _ = generate_negatives(positives, truth, seed=1)
        b, _ = generate_negatives(positives, truth, seed=2)
        assert a != b  # chemical/disease pools have real choice in the fixture

    def _single_positive(self, pool_ids, collide=False):
        """One positive whose tail pool besides the original is ``pool_ids``."""
        from kgverify.datasets import BioRedDocument, BioRedEntity, BioRedRelation

        entities = [
            BioRedEntity("H", "GeneOrGeneProduct", ("head",)),
            BioRedEntity("T", "DiseaseOrPhenotypicFeature", ("tail",)),
        ] + [
            BioRedEntity(identifier, "DiseaseOrPhenotypicFeature", (identifier.lower(),))
            for identifier in pool_ids
        ]
        relations = [BioRedRelation("H", "T", "Positive_Correlation")]
        if collide:
            relations += [
                BioRedRelation("H", identifier, "Positive_Correlation")
                for identifier in pool_ids
            ]
        doc = BioRedDocument("d1", "text " * 30, {e.identifier: e for e in entities},
                             tuple(relations))
        return [doc]

    def test_singleton_pool_forced(self):
        docs = self._single_positive(["ALT"])
        positives = extract_positives(docs)
        truth = GroundTruth.from_documents(docs)
        negatives, skips = generate_negatives(positives, truth, seed=3)
        corrupted = [n for n in negatives if n.statement.subject_id == "H"]
        assert corrupted[0].statement.object_id == "ALT"
        assert not skips

    def test_no_candidate_skip(self):
        docs = self._single_positive(["ALT"], collide=True)
        positives = extract_positives(docs)
        truth = GroundTruth.from_documents(docs)
        negatives, skips = generate_negatives([positives[0]], truth, seed=3)
        assert negatives == []
        assert len(skips) == 1
        assert skips[0].subject_id == "H"

    def test_manifest_counts(self, mini_docs):
        positives = extract_positives(mini_docs)
        truth = GroundTruth.from_documents(mini_docs)
        negatives, skips = generate_negatives(positives, truth, seed=42)
        manifest = dataset_manifest(positives, negatives, skips, seed=42)
        assert manifest["relations"]["Positive_Correlation"]["positives"] == 3
        assert manifest["relations"]["Positive_Correlation"]["negatives"] == 3
        assert manifest["relations"]["Negative_Correlation"]["positives"] == 2
        assert manifest["corruption_seed"] == 42


class TestInstanceSerialization:
    def test_round_trip(self, mini_docs, tmp_path):
        positives = extract_positives(mini_docs)
        truth = GroundTruth.from_documents(mini_docs)
        negatives, _ = generate_negatives(positives, truth, seed=42)
        instances = positives + negatives
        path = tmp_path / "dataset.jsonl"
        path.write_text(instances_to_jsonl(instances), encoding="utf-8")
        assert read_instances(path) == instances

    def test_json_shape(self, mini_docs):
        instance = extract_positives(mini_docs)[0]
        obj = instance_to_json(instance)
        assert obj["gold"] == "supported"
        assert obj["origin"] == "ground_truth"
        assert instance_from_json(obj) == instance

    @pytest.mark.parametrize("read,line", [
        (read_instances, {"not": "an instance"}),
        (read_instances, "grounding-text-empty"),
        (load_snli, ["a", "list"]),
        (load_snli, '{"gold_label": "neutral", "sentence1'),
    ], ids=["not-an-instance", "empty-grounding-text", "snli-list", "snli-torn"])
    def test_malformed_line(self, mini_docs, tmp_path, read, line):
        if line == "grounding-text-empty":
            line = {**instance_to_json(extract_positives(mini_docs)[0]), "grounding_text": ""}
        path = tmp_path / "broken.jsonl"
        text = line if isinstance(line, str) else json.dumps(line)
        path.write_text("\n" + text + "\n", encoding="utf-8")
        with pytest.raises(MalformedInput, match="broken.jsonl:2"):
            read(path)

    def test_a_line_separator_inside_a_string_is_not_a_line_end(self, mini_docs, tmp_path):
        instance = extract_positives(mini_docs)[0]
        instance = dataclasses.replace(instance, grounding_text="one\u2028two\x85three")
        path = tmp_path / "dataset.jsonl"
        path.write_text(instances_to_jsonl([instance]), encoding="utf-8")
        assert read_instances(path) == [instance]


@pytest.fixture(scope="module")
def snli_paths(request):
    base = request.path.parent / "fixtures" / SNLI_DIR_NAME
    return base / "train_mini.jsonl", base / "test_mini.jsonl"


class TestSnli:
    @pytest.mark.parametrize("premise,hypothesis", [("", "h"), ("p", "")],
                             ids=["premise", "hypothesis"])
    def test_a_record_needs_both_sentences(self, premise, hypothesis):
        with pytest.raises(ValueError, match="non-empty"):
            SnliRecord(premise, hypothesis, NliLabel.NEUTRAL)

    def test_records_with_an_empty_sentence_excluded(self, tmp_path):
        path = tmp_path / "split.jsonl"
        records = [{"gold_label": "neutral", "sentence1": premise, "sentence2": hypothesis}
                   for premise, hypothesis in [("", "h"), ("p", ""), ("p", "h")]]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert load_snli(path) == [SnliRecord("p", "h", NliLabel.NEUTRAL)]

    def test_gold_less_records_excluded(self, snli_paths):
        _, test_path = snli_paths
        records = load_snli(test_path)
        assert len(records) == 12
        assert all(r.gold in (NliLabel.ENTAILMENT, NliLabel.NEUTRAL, NliLabel.CONTRADICTION)
                   for r in records)

    def test_sample_deterministic(self, snli_paths):
        _, test_path = snli_paths
        first = sample_snli_test(test_path, n=6, seed=11)
        second = sample_snli_test(test_path, n=6, seed=11)
        assert first == second
        assert len(first) == 6
        assert len({r.pair_id for r in first}) == 6  # without replacement

    def test_sample_whole_split_is_permutation(self, snli_paths):
        _, test_path = snli_paths
        records = load_snli(test_path)
        sampled = sample_snli_test(test_path, n=len(records), seed=5)
        assert sorted(r.pair_id for r in sampled) == sorted(r.pair_id for r in records)

    def test_sample_too_large(self, snli_paths):
        _, test_path = snli_paths
        with pytest.raises(InsufficientRecords):
            sample_snli_test(test_path, n=10_000, seed=1)

    def test_pick_examples_one_per_class(self, snli_paths):
        train_path, _ = snli_paths
        examples = pick_nli_example_records(train_path, seed=42)
        assert [e.gold for e in examples] == [
            NliLabel.ENTAILMENT, NliLabel.NEUTRAL, NliLabel.CONTRADICTION
        ]
        assert pick_nli_example_records(train_path, seed=42) == examples

    def test_pick_examples_records_have_ids(self, snli_paths):
        train_path, _ = snli_paths
        records = pick_nli_example_records(train_path, seed=42)
        assert all(r.pair_id for r in records)

    def test_missing_class(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text(
            json.dumps({"sentence1": "p", "sentence2": "h", "gold_label": "entailment"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(InsufficientRecords, match="neutral"):
            pick_nli_example_records(path, seed=1)
