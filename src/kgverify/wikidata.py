"""Wikidata access: selecting statements that need verification and mapping
entities to their English Wikipedia articles.

Two SPARQL queries drive statement selection: the first lists a subject's
statements that carry no reference node, the second narrows the predicates to
those whose property declares a citation-needed constraint. Sitelink and
revision lookups go through the MediaWiki APIs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import quote

from .errors import EndpointUnavailable, MalformedResponse, NoSitelink, malformed
from .model import Statement, normalize_label
from .net import HttpRequest, HttpResponse, Transport

WIKIDATA_SPARQL_ENDPOINT = "https://query.wikidata.org/sparql"
WIKIDATA_API = "https://www.wikidata.org/w/api.php"
WIKIPEDIA_API = "https://en.wikipedia.org/w/api.php"

# Property constraint (P2302) of kind "citation needed" (Q54554025) marks
# predicates whose statements must carry a reference.
PROPERTY_CONSTRAINT = "P2302"
CITATION_NEEDED_CONSTRAINT = "Q54554025"

_ENTITY_PREFIX = "http://www.wikidata.org/entity/"


@dataclass(frozen=True)
class EntityId:
    numeric_id: int

    def __post_init__(self) -> None:
        if self.numeric_id <= 0:
            raise ValueError("entity ids are positive")

    def __str__(self) -> str:
        return f"Q{self.numeric_id}"

    @classmethod
    def parse(cls, text: str) -> "EntityId":
        match = re.fullmatch(r"Q?(\d+)", text.strip().upper())
        if not match:
            raise ValueError(f"not a Wikidata entity id: {text!r}")
        return cls(int(match.group(1)))


@dataclass(frozen=True)
class EntityInfo:
    entity_id: EntityId
    label: str
    revision_id: int
    wikipedia_title: str | None
    wikipedia_url: str | None

    @property
    def entity_url(self) -> str:
        return f"{_ENTITY_PREFIX}{self.entity_id}"

    @property
    def permalink(self) -> str:
        return f"https://wikidata.org/w/index.php?title={self.entity_id}&oldid={self.revision_id}"


def unsourced_statements_query(entity: EntityId) -> str:
    """SPARQL text listing a subject's statements that have no reference node."""
    return f"""SELECT ?prop ?object ?propLabel ?objectLabel ?subjectLabel WHERE {{
  wd:{entity} ?claim ?stmt .
  ?prop wikibase:claim ?claim ;
        wikibase:statementProperty ?psProp .
  ?stmt ?psProp ?object .
  FILTER NOT EXISTS {{ ?stmt prov:wasDerivedFrom ?ref . }}
  wd:{entity} rdfs:label ?subjectLabel .
  FILTER(LANG(?subjectLabel) = "en")
  SERVICE wikibase:label {{ bd:serviceParam wikibase:language "en". }}
}}
ORDER BY ?prop ?object"""


def mandatory_reference_query(property_ids: Sequence[str]) -> str:
    """SPARQL text selecting which of the given properties require a citation."""
    values = " ".join(f"wd:{pid}" for pid in property_ids)
    return f"""SELECT DISTINCT ?prop WHERE {{
  VALUES ?prop {{ {values} }}
  ?prop p:{PROPERTY_CONSTRAINT} ?constraint .
  ?constraint ps:{PROPERTY_CONSTRAINT} wd:{CITATION_NEEDED_CONSTRAINT} .
}}
ORDER BY ?prop"""


def _trailing_id(uri: str) -> str:
    return uri.rstrip("/").rsplit("/", 1)[-1]


class WikidataClient:
    """Shareable client for the SPARQL endpoint and the wiki APIs."""

    def __init__(
        self,
        transport: Transport,
        endpoint: str = WIKIDATA_SPARQL_ENDPOINT,
        api_url: str = WIKIDATA_API,
        wikipedia_api: str = WIKIPEDIA_API,
    ):
        self._transport = transport
        self.endpoint = endpoint
        self._api_url = api_url
        self._wikipedia_api = wikipedia_api

    def _get(self, url: str, params: dict, headers: dict | None = None) -> HttpResponse:
        """The answer to a GET of ``url``; a status other than 200 is unavailable."""
        resp = self._transport.send(HttpRequest.get(url, params=params, headers=headers))
        if resp.status != 200:
            raise EndpointUnavailable(f"{url} returned HTTP {resp.status}")
        return resp

    # -- SPARQL ---------------------------------------------------------------

    def _sparql(self, query: str) -> list[dict]:
        resp = self._get(self.endpoint, {"query": query, "format": "json"},
                         headers={"Accept": "application/sparql-results+json"})
        with malformed(MalformedResponse, f"unexpected SPARQL payload from {self.endpoint}",
                       resp.body):
            bindings = resp.json()["results"]["bindings"]
            if not isinstance(bindings, list):
                raise TypeError("bindings is not a list")
        return bindings

    def fetch_unsourced_statements(self, entity: EntityId) -> list[Statement]:
        """All statements of the subject that carry no reference in the graph."""
        rows = self._sparql(unsourced_statements_query(entity))
        out: list[Statement] = []
        for row in rows:
            with malformed(MalformedResponse, "incomplete SPARQL binding", row):
                prop_uri = row["prop"]["value"]
                object_binding = row["object"]
                subject_label = row["subjectLabel"]["value"]
                predicate_label = row.get("propLabel", {}).get("value") or _trailing_id(prop_uri)
                object_label = row.get("objectLabel", {}).get("value") or object_binding["value"]
                object_id = None
                if object_binding.get("type") == "uri" and object_binding["value"].startswith(
                    _ENTITY_PREFIX
                ):
                    object_id = _trailing_id(object_binding["value"])
                out.append(
                    Statement(
                        subject_label=normalize_label(subject_label),
                        predicate_label=normalize_label(predicate_label),
                        object_label=normalize_label(object_label),
                        subject_id=str(entity),
                        predicate_id=_trailing_id(prop_uri),
                        object_id=object_id,
                    )
                )
        return out

    def filter_mandatory_reference(self, statements: Sequence[Statement]) -> list[Statement]:
        """Keep statements whose predicate declares a citation-needed constraint."""
        property_ids: list[str] = []
        for statement in statements:
            pid = statement.predicate_id
            if pid and pid not in property_ids:
                property_ids.append(pid)
        if not property_ids:
            return []
        rows = self._sparql(mandatory_reference_query(property_ids))
        constrained: set[str] = set()
        for row in rows:
            with malformed(MalformedResponse, "incomplete SPARQL binding", row):
                constrained.add(_trailing_id(row["prop"]["value"]))
        return [statement for statement in statements if statement.predicate_id in constrained]

    # -- wiki APIs --------------------------------------------------------------

    def entity_info(self, entity: EntityId) -> EntityInfo:
        """Label, latest revision, and English sitelink of an entity. A record
        without its latest revision is malformed: no permalink could pin it."""
        resp = self._get(self._api_url, {
            "action": "wbgetentities",
            "ids": str(entity),
            "props": "info|labels|sitelinks/urls",
            "languages": "en",
            "sitefilter": "enwiki",
            "format": "json",
        })
        with malformed(MalformedResponse, "unexpected entity payload", resp.body):
            record = resp.json()["entities"][str(entity)]
            if "missing" in record:
                raise NoSitelink(f"entity {entity} does not exist")
            sitelink = record.get("sitelinks", {}).get("enwiki", {})
            title = sitelink.get("title")
            url = sitelink.get("url")
            if title and not url:
                url = "https://en.wikipedia.org/wiki/" + quote(title.replace(" ", "_"))
            label = record.get("labels", {}).get("en", {}).get("value", str(entity))
            revision_id = int(record["lastrevid"])
        return EntityInfo(
            entity_id=entity,
            label=label,
            revision_id=revision_id,
            wikipedia_title=title,
            wikipedia_url=url,
        )

    def wikipedia_revision(self, title: str) -> int:
        """Latest revision id of a Wikipedia article, for permalink pinning."""
        resp = self._get(self._wikipedia_api,
                         {"action": "query", "prop": "info", "titles": title, "format": "json"})
        with malformed(MalformedResponse, "unexpected page-info payload", resp.body):
            pages = resp.json()["query"]["pages"]
            return int(next(iter(pages.values()))["lastrevid"])


def wikipedia_permalink(title: str, revision_id: int) -> str:
    return (
        "https://en.wikipedia.org/w/index.php?title="
        + quote(title.replace(" ", "_"))
        + f"&oldid={revision_id}"
    )
