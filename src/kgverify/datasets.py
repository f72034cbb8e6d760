"""Dataset construction: positive/corrupted biomedical triples and NLI samples.

The biomedical benchmark reverses a relation-extraction corpus: each
ground-truth correlation becomes a positive verification instance over its
article text, and a matching negative is minted by swapping the object for a
different entity of the same concept type, filtered so no corrupted triple is
itself a ground-truth fact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (InsufficientRecords, MalformedInput, json_records, json_value, malformed,
                     read_input)
from .model import (
    NLI_CLASSES,
    BinaryDecision,
    NliLabel,
    Statement,
    statement_from_json,
    statement_to_json,
)

RELATION_TYPES = ("Positive_Correlation", "Negative_Correlation")
EXCLUDED_PAIR = frozenset({"SequenceVariant", "ChemicalEntity"})

# Canonical left-to-right ordering of concept types in reported pairs.
_CONCEPT_PRIORITY = (
    "ChemicalEntity",
    "SequenceVariant",
    "GeneOrGeneProduct",
    "DiseaseOrPhenotypicFeature",
    "CellLine",
    "OrganismTaxon",
)

DATASET_SCHEMA = "biored-verify/1"


class Origin(Enum):
    GROUND_TRUTH = "ground_truth"
    CORRUPTED = "corrupted"


@dataclass(frozen=True)
class BioRedEntity:
    identifier: str
    concept_type: str
    surface_forms: tuple[str, ...]

    @property
    def canonical_surface(self) -> str:
        return self.surface_forms[0]


@dataclass(frozen=True)
class BioRedRelation:
    head_id: str
    tail_id: str
    relation_type: str


@dataclass(frozen=True)
class BioRedDocument:
    doc_id: str
    text: str
    entities: Mapping[str, BioRedEntity]  # by identifier, in annotation order
    relations: tuple[BioRedRelation, ...]


@dataclass(frozen=True)
class LabeledInstance:
    statement: Statement
    grounding_text: str
    gold: BinaryDecision
    concept_pair: tuple[str, str]
    relation_type: str
    origin: Origin
    doc_id: str
    tail_type: str

    def __post_init__(self) -> None:
        if not self.grounding_text:
            raise ValueError("grounding_text must be non-empty")
        expected = (
            BinaryDecision.SUPPORTED
            if self.origin is Origin.GROUND_TRUTH
            else BinaryDecision.NOT_SUPPORTED
        )
        if self.gold is not expected:
            raise ValueError(f"{self.origin.value} instances must be gold={expected.value}")


@dataclass(frozen=True)
class SnliRecord:
    premise: str
    hypothesis: str
    gold: NliLabel
    pair_id: str | None = None

    def __post_init__(self) -> None:
        if not self.premise or not self.hypothesis:
            raise ValueError("premise and hypothesis must be non-empty")
        if self.gold not in NLI_CLASSES:
            raise ValueError("gold must be a concrete class")


# -- loading the source corpus ---------------------------------------------------


def _parse_document(raw: dict) -> BioRedDocument:
    doc_id = str(raw.get("id", ""))
    if not doc_id:
        raise MalformedInput("document without id")
    texts: list[str] = []
    entities: dict[str, BioRedEntity] = {}
    for passage in raw.get("passages", []):
        text = passage.get("text", "")
        if text:
            texts.append(text)
        for annotation in passage.get("annotations", []):
            infons = annotation.get("infons", {})
            identifier = infons.get("identifier") or infons.get("MESH") or ""
            concept_type = infons.get("type", "")
            surface = annotation.get("text", "")
            if not identifier or identifier == "-" or not concept_type or not surface:
                continue
            for single in identifier.split(","):
                single = single.strip()
                if not single:
                    continue
                existing = entities.get(single)
                if existing is None:
                    entities[single] = BioRedEntity(
                        identifier=single,
                        concept_type=concept_type,
                        surface_forms=(surface,),
                    )
                elif surface not in existing.surface_forms:
                    entities[single] = BioRedEntity(
                        identifier=single,
                        concept_type=existing.concept_type,
                        surface_forms=existing.surface_forms + (surface,),
                    )
    relations: list[BioRedRelation] = []
    for relation in raw.get("relations", []):
        infons = relation.get("infons", {})
        head = infons.get("entity1", "")
        tail = infons.get("entity2", "")
        rel_type = infons.get("type", "")
        if not head or not tail or not rel_type:
            raise MalformedInput(f"document {doc_id} relation {relation.get('id')} is incomplete")
        for endpoint in (head, tail):
            if endpoint not in entities:
                raise MalformedInput(
                    f"document {doc_id} relation {relation.get('id')} "
                    f"references unknown entity {endpoint!r}"
                )
        relations.append(BioRedRelation(head_id=head, tail_id=tail, relation_type=rel_type))
    if not texts:  # nothing to ground its relations in
        raise MalformedInput(f"document {doc_id} has no text")
    return BioRedDocument(
        doc_id=doc_id,
        text=" ".join(texts),
        entities=entities,
        relations=tuple(relations),
    )


def load_biored(path: Path | str) -> list[BioRedDocument]:
    """Load and merge every BioC JSON split found under ``path``.

    ``path`` may also point at a single BioC JSON file. Referential integrity
    between relations and entities is enforced at load time.
    """
    path = Path(path)
    if path.is_file():
        files = [path]
    else:
        files = sorted(
            p for p in path.glob("*") if p.name.lower().endswith((".bioc.json", ".json"))
        )
    if not files:
        raise MalformedInput(f"no BioC JSON files found under {path}")
    documents: list[BioRedDocument] = []
    seen: set[str] = set()
    for file in files:
        data = read_input(file, "BioC file")
        with malformed(MalformedInput, str(file), data):
            raws = list(json_value(data).get("documents", []))  # iterated in the guard
        for raw in raws:
            with malformed(MalformedInput, str(file), raw):
                doc = _parse_document(raw)
            if doc.doc_id in seen:
                continue
            seen.add(doc.doc_id)
            documents.append(doc)
    if not documents:
        raise MalformedInput(f"no documents found in {path}")
    return documents


# -- positives ---------------------------------------------------------------------


def normalize_pair(type_a: str, type_b: str) -> tuple[str, str]:
    """Order a concept-type pair the way the result tables print it."""

    def priority(name: str) -> tuple[int, str]:
        try:
            return (_CONCEPT_PRIORITY.index(name), name)
        except ValueError:
            return (len(_CONCEPT_PRIORITY), name)

    first, second = sorted((type_a, type_b), key=priority)
    return (first, second)


def extract_positives(docs: Sequence[BioRedDocument]) -> list[LabeledInstance]:
    """One positive instance per ground-truth correlation relation.

    Only the two correlation predicates are used; the rare
    SequenceVariant/ChemicalEntity combination is excluded. Deterministic:
    documents are processed in doc-id order, relations in listed order.
    """
    instances: list[LabeledInstance] = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        for relation in doc.relations:
            if relation.relation_type not in RELATION_TYPES:
                continue
            head = doc.entities[relation.head_id]
            tail = doc.entities[relation.tail_id]
            if {head.concept_type, tail.concept_type} == EXCLUDED_PAIR:
                continue
            pair = normalize_pair(head.concept_type, tail.concept_type)
            statement = Statement(
                subject_label=head.canonical_surface,
                predicate_label=relation.relation_type,
                object_label=tail.canonical_surface,
                subject_id=head.identifier,
                object_id=tail.identifier,
                domain_tag=f"{pair[0]}/{pair[1]}",
            )
            instances.append(
                LabeledInstance(
                    statement=statement,
                    grounding_text=doc.text,
                    gold=BinaryDecision.SUPPORTED,
                    concept_pair=pair,
                    relation_type=relation.relation_type,
                    origin=Origin.GROUND_TRUTH,
                    doc_id=doc.doc_id,
                    tail_type=tail.concept_type,
                )
            )
    return instances


# -- negatives ---------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruth:
    """Corpus-wide relation membership and per-type entity catalog."""

    triples: frozenset[tuple[str, str, str]]
    surfaces: Mapping[str, str]
    pool: Mapping[str, tuple[str, ...]]

    @classmethod
    def from_documents(cls, docs: Sequence[BioRedDocument]) -> "GroundTruth":
        triples: set[tuple[str, str, str]] = set()
        surfaces: dict[str, str] = {}
        pool: dict[str, list[str]] = {}
        for doc in sorted(docs, key=lambda d: d.doc_id):
            for entity in doc.entities.values():
                if entity.identifier not in surfaces:
                    surfaces[entity.identifier] = entity.canonical_surface
                    pool.setdefault(entity.concept_type, []).append(entity.identifier)
            for relation in doc.relations:
                triples.add((relation.head_id, relation.relation_type, relation.tail_id))
        return cls(
            triples=frozenset(triples),
            surfaces=surfaces,
            pool={k: tuple(sorted(v)) for k, v in pool.items()},
        )

    def contains(self, head_id: str, relation_type: str, tail_id: str) -> bool:
        # correlation relations are symmetric, so check both orientations
        return (head_id, relation_type, tail_id) in self.triples or (
            tail_id,
            relation_type,
            head_id,
        ) in self.triples


@dataclass(frozen=True)
class NoCandidateSkip:
    doc_id: str
    subject_id: str
    object_id: str
    relation_type: str
    reason: str


def generate_negatives(
    positives: Sequence[LabeledInstance],
    all_ground_truth: GroundTruth,
    seed: int,
) -> tuple[list[LabeledInstance], list[NoCandidateSkip]]:
    """Mint one corrupted instance per positive by swapping the object.

    The replacement has the same concept type, differs from the original, and
    the corrupted triple must not occur anywhere in the ground truth; rejected
    draws are redrawn. Positives with no usable replacement are skipped and
    reported. Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    negatives: list[LabeledInstance] = []
    skips: list[NoCandidateSkip] = []
    for positive in positives:
        original = positive.statement
        candidates = [
            identifier
            for identifier in all_ground_truth.pool.get(positive.tail_type, ())
            if identifier != original.object_id
        ]
        replacement: str | None = None
        for candidate in rng.sample(candidates, k=len(candidates)):
            if not all_ground_truth.contains(
                original.subject_id or "", positive.relation_type, candidate
            ):
                replacement = candidate
                break
        if replacement is None:
            skips.append(
                NoCandidateSkip(
                    doc_id=positive.doc_id,
                    subject_id=original.subject_id or "",
                    object_id=original.object_id or "",
                    relation_type=positive.relation_type,
                    reason="no type-consistent, non-colliding replacement",
                )
            )
            continue
        corrupted = Statement(
            subject_label=original.subject_label,
            predicate_label=original.predicate_label,
            object_label=all_ground_truth.surfaces[replacement],
            subject_id=original.subject_id,
            object_id=replacement,
            domain_tag=original.domain_tag,
        )
        negatives.append(
            LabeledInstance(
                statement=corrupted,
                grounding_text=positive.grounding_text,
                gold=BinaryDecision.NOT_SUPPORTED,
                concept_pair=positive.concept_pair,
                relation_type=positive.relation_type,
                origin=Origin.CORRUPTED,
                doc_id=positive.doc_id,
                tail_type=positive.tail_type,
            )
        )
    return negatives, skips


# -- instance serialization ---------------------------------------------------------


def instance_to_json(instance: LabeledInstance) -> dict:
    return {
        "statement": statement_to_json(instance.statement),
        "grounding_text": instance.grounding_text,
        "gold": instance.gold.value,
        "concept_pair": list(instance.concept_pair),
        "relation_type": instance.relation_type,
        "origin": instance.origin.value,
        "doc_id": instance.doc_id,
        "tail_type": instance.tail_type,
    }


def instance_from_json(obj: dict) -> LabeledInstance:
    with malformed(MalformedInput, "bad instance record", obj):
        pair = tuple(obj["concept_pair"])
        return LabeledInstance(
            statement=statement_from_json(obj["statement"]),
            grounding_text=obj["grounding_text"],
            gold=BinaryDecision(obj["gold"]),
            concept_pair=pair,  # type: ignore[arg-type]
            relation_type=obj["relation_type"],
            origin=Origin(obj["origin"]),
            doc_id=obj.get("doc_id", ""),
            tail_type=obj.get("tail_type", ""),
        )


def instances_to_jsonl(instances: Iterable[LabeledInstance]) -> str:
    """The JSON-lines text of a dataset, one instance per line."""
    return "".join(json.dumps(instance_to_json(i), ensure_ascii=False) + "\n" for i in instances)


def read_instances(path: Path | str) -> list[LabeledInstance]:
    return json_records(path, "dataset", instance_from_json)


def dataset_manifest(
    positives: Sequence[LabeledInstance],
    negatives: Sequence[LabeledInstance],
    skips: Sequence[NoCandidateSkip],
    seed: int,
) -> dict:
    by_relation: dict[str, dict] = {}
    for relation_type in RELATION_TYPES:
        pos = [p for p in positives if p.relation_type == relation_type]
        neg = [n for n in negatives if n.relation_type == relation_type]
        pairs: dict[str, dict[str, int]] = {}
        for kind, instances in (("positives", pos), ("negatives", neg)):
            for instance in instances:
                key = "/".join(instance.concept_pair)
                pairs.setdefault(key, {"positives": 0, "negatives": 0})[kind] += 1
        by_relation[relation_type] = {
            "positives": len(pos),
            "negatives": len(neg),
            "by_pair": dict(sorted(pairs.items())),
        }
    return {
        "schema_version": DATASET_SCHEMA,
        "corruption_seed": seed,
        "relations": by_relation,
        "skips": [vars(s) for s in skips],
    }


# -- SNLI --------------------------------------------------------------------------


def load_snli(path: Path | str) -> list[SnliRecord]:
    """Read an SNLI-format JSON-lines split. Records without a gold consensus
    (gold label "-") are excluded, and so are records with an empty premise or
    hypothesis, which leave the model nothing to judge."""
    records = json_records(path, "SNLI split", _snli_record)
    return [record for record in records if record is not None]


def _snli_record(obj: dict) -> SnliRecord | None:
    gold = obj.get("gold_label", "-")
    premise, hypothesis = obj.get("sentence1", ""), obj.get("sentence2", "")
    if gold in ("entailment", "neutral", "contradiction") and premise and hypothesis:
        return SnliRecord(premise, hypothesis, NliLabel(gold), obj.get("pairID"))
    return None


def sample_snli_test(path: Path | str, n: int = 1000, seed: int = 42) -> list[SnliRecord]:
    """Draw ``n`` records without replacement, deterministically from ``seed``."""
    records = load_snli(path)
    if n > len(records):
        raise InsufficientRecords(
            f"requested {n} records but the split holds only {len(records)}"
        )
    return random.Random(seed).sample(records, k=n)


def pick_nli_example_records(train_path: Path | str, seed: int) -> list[SnliRecord]:
    """One training record per class, deterministically from ``seed``."""
    records = load_snli(train_path)
    rng = random.Random(seed)
    picked: list[SnliRecord] = []
    for label in NLI_CLASSES:
        of_class = [r for r in records if r.gold is label]
        if not of_class:
            raise InsufficientRecords(f"training split has no {label.value} records")
        picked.append(rng.choice(of_class))
    return picked
