from __future__ import annotations

import pytest

from kgverify.errors import EndpointUnavailable, MalformedResponse, NoSitelink
from kgverify.model import Statement
from kgverify.net import HttpRequest
from kgverify.store import FixtureStore
from kgverify.wikidata import (
    CITATION_NEEDED_CONSTRAINT,
    PROPERTY_CONSTRAINT,
    WIKIDATA_API,
    WIKIDATA_SPARQL_ENDPOINT,
    WIKIPEDIA_API,
    EntityId,
    WikidataClient,
    mandatory_reference_query,
    unsourced_statements_query,
    wikipedia_permalink,
)

ENTITY_URI = "http://www.wikidata.org/entity/"


class TestEntityId:
    @pytest.mark.parametrize("raw,expected", [("Q36233", 36233), ("q179924", 179924),
                                              ("42", 42)])
    def test_parse(self, raw, expected):
        assert EntityId.parse(raw).numeric_id == expected

    def test_str(self):
        assert str(EntityId(36233)) == "Q36233"

    @pytest.mark.parametrize("raw", ["", "P31", "Q-5", "entity"])
    def test_rejects_garbage(self, raw):
        with pytest.raises(ValueError):
            EntityId.parse(raw)

    def test_positive_only(self):
        with pytest.raises(ValueError):
            EntityId(0)


class TestQueryText:
    def test_unsourced_query_mentions_reference_check(self):
        query = unsourced_statements_query(EntityId(36233))
        assert "wd:Q36233" in query
        assert "prov:wasDerivedFrom" in query
        assert "FILTER NOT EXISTS" in query

    def test_constraint_query_uses_citation_needed(self):
        query = mandatory_reference_query(["P166", "P39"])
        assert f"p:{PROPERTY_CONSTRAINT}" in query
        assert f"wd:{CITATION_NEEDED_CONSTRAINT}" in query
        assert "wd:P166" in query and "wd:P39" in query


def sparql_response(bindings):
    return {"head": {"vars": []}, "results": {"bindings": bindings}}


def binding(pid, plabel, obj_value, obj_label, uri=True):
    obj = {"type": "uri", "value": ENTITY_URI + obj_value} if uri else {
        "type": "literal", "value": obj_value}
    return {
        "prop": {"type": "uri", "value": ENTITY_URI + pid},
        "object": obj,
        "propLabel": {"type": "literal", "value": plabel},
        "objectLabel": {"type": "literal", "value": obj_label},
        "subjectLabel": {"type": "literal", "value": "Václav Havel"},
    }


def sparql_request(query):
    return HttpRequest.get(
        WIKIDATA_SPARQL_ENDPOINT,
        params={"query": query, "format": "json"},
        headers={"Accept": "application/sparql-results+json"},
    )


class TestFetchUnsourced:
    def test_statements_parsed(self, dict_transport):
        entity = EntityId(36233)
        dict_transport.add_json(
            sparql_request(unsourced_statements_query(entity)),
            sparql_response([
                binding("P166", "award received", "Q587469", "Concordia Prize"),
                binding("P1449", "nickname", "Venoušek", "Venoušek", uri=False),
            ]),
        )
        client = WikidataClient(dict_transport)
        result = client.fetch_unsourced_statements(entity)
        assert len(result) == 2
        first = result[0]
        assert first == Statement(
            "Václav Havel", "award received", "Concordia Prize",
            subject_id="Q36233", predicate_id="P166", object_id="Q587469",
        )
        assert result[1].object_id is None  # literal object

    def test_replayable_byte_identical(self, dict_transport):
        entity = EntityId(36233)
        dict_transport.add_json(
            sparql_request(unsourced_statements_query(entity)),
            sparql_response([binding("P166", "award received", "Q1", "Prize")]),
        )
        client = WikidataClient(dict_transport)
        assert client.fetch_unsourced_statements(entity) == client.fetch_unsourced_statements(
            entity
        )

    def test_endpoint_error(self, dict_transport):
        entity = EntityId(1)
        dict_transport.add(sparql_request(unsourced_statements_query(entity)),
                           status=503, body="overloaded")
        with pytest.raises(EndpointUnavailable):
            WikidataClient(dict_transport).fetch_unsourced_statements(entity)

    @pytest.mark.parametrize("body", [
        "<html>not sparql</html>",
        '{"results": {"bindings": 5}}',
        '{"results": {"bindings": null}}',
    ], ids=["html", "bindings-number", "bindings-null"])
    def test_malformed_payload_includes_excerpt(self, dict_transport, body):
        entity = EntityId(1)
        dict_transport.add(sparql_request(unsourced_statements_query(entity)),
                           body=body, content_type="text/html")
        with pytest.raises(MalformedResponse, match="unexpected SPARQL payload") as caught:
            WikidataClient(dict_transport).fetch_unsourced_statements(entity)
        assert body in str(caught.value)

    @pytest.mark.parametrize("changes", [
        {"propLabel": "award received"},
        {"object": "Q587469"},
        {"subjectLabel": {"value": 5}},
        {"object": {"type": "literal", "value": ""}, "objectLabel": {"value": ""}},
    ], ids=["label-string", "object-string", "subject-number", "object-empty"])
    def test_malformed_binding_is_malformed_response(self, dict_transport, changes):
        entity = EntityId(36233)
        row = {**binding("P166", "award received", "Q587469", "Concordia Prize"), **changes}
        dict_transport.add_json(sparql_request(unsourced_statements_query(entity)),
                                sparql_response([row]))
        with pytest.raises(MalformedResponse, match="incomplete SPARQL binding"):
            WikidataClient(dict_transport).fetch_unsourced_statements(entity)


class TestFilterMandatory:
    def make_statements(self):
        def stmt(pid, obj):
            return Statement("Václav Havel", "pred", obj,
                             subject_id="Q36233", predicate_id=pid)

        return [stmt("P166", "Prize A"), stmt("P1449", "Nickname"), stmt("P166", "Prize B")]

    def test_keeps_constrained_predicates_in_order(self, dict_transport):
        statements = self.make_statements()
        dict_transport.add_json(
            sparql_request(mandatory_reference_query(["P166", "P1449"])),
            sparql_response([{"prop": {"type": "uri", "value": ENTITY_URI + "P166"}}]),
        )
        client = WikidataClient(dict_transport)
        kept = client.filter_mandatory_reference(statements)
        assert [s.object_label for s in kept] == ["Prize A", "Prize B"]
        # result is a subset of the input statements
        assert all(s in statements for s in kept)

    @pytest.mark.parametrize("row", [{"prop": {"type": "uri"}}, {}, {"prop": "P166"},
                                     {"prop": {"value": 166}}])
    def test_malformed_binding_is_malformed_response(self, dict_transport, row):
        dict_transport.add_json(
            sparql_request(mandatory_reference_query(["P166", "P1449"])),
            sparql_response([{"prop": {"type": "uri", "value": ENTITY_URI + "P166"}}, row]),
        )
        client = WikidataClient(dict_transport)
        with pytest.raises(MalformedResponse, match="incomplete SPARQL binding"):
            client.filter_mandatory_reference(self.make_statements())

    def test_empty_input_no_query(self, dict_transport):
        client = WikidataClient(dict_transport)
        assert client.filter_mandatory_reference([]) == []
        assert dict_transport.requests == []


def entity_payload(qid, label, revision, title=None, url=None, missing=False):
    if missing:
        return {"entities": {qid: {"id": qid, "missing": ""}}}
    record = {
        "id": qid,
        "lastrevid": revision,
        "labels": {"en": {"language": "en", "value": label}},
        "sitelinks": {},
    }
    if title:
        record["sitelinks"]["enwiki"] = {"site": "enwiki", "title": title, "url": url}
    return {"entities": {qid: record}, "success": 1}


def entity_request(qid):
    return HttpRequest.get(
        WIKIDATA_API,
        params={
            "action": "wbgetentities",
            "ids": qid,
            "props": "info|labels|sitelinks/urls",
            "languages": "en",
            "sitefilter": "enwiki",
            "format": "json",
        },
    )


class TestEntityInfo:
    def test_resolve_wikipedia_url(self, dict_transport):
        dict_transport.add_json(
            entity_request("Q179924"),
            entity_payload("Q179924", "Bioluminescence", 2073869683,
                           title="Bioluminescence",
                           url="https://en.wikipedia.org/wiki/Bioluminescence"),
        )
        info = WikidataClient(dict_transport).entity_info(EntityId(179924))
        assert info.wikipedia_url == "https://en.wikipedia.org/wiki/Bioluminescence"
        assert info.permalink == (
            "https://wikidata.org/w/index.php?title=Q179924&oldid=2073869683"
        )
        assert info.entity_url == "http://www.wikidata.org/entity/Q179924"

    def test_no_sitelink(self, dict_transport):
        dict_transport.add_json(
            entity_request("Q999999"),
            entity_payload("Q999999", "obscure thing", 5),
        )
        info = WikidataClient(dict_transport).entity_info(EntityId(999999))
        assert info.wikipedia_title is None and info.wikipedia_url is None

    def test_unknown_entity(self, dict_transport):
        dict_transport.add_json(
            entity_request("Q77777777"),
            entity_payload("Q77777777", "", 0, missing=True),
        )
        with pytest.raises(NoSitelink, match="Q77777777"):
            WikidataClient(dict_transport).entity_info(EntityId(77777777))

    @pytest.mark.parametrize("record", [
        ["not", "an", "entity"],
        {"id": "Q5", "sitelinks": ["enwiki"]},
        {"id": "Q5", "labels": {"en": "Subject"}},
        {"id": "Q5", "lastrevid": "latest"},
        {"id": "Q5", "sitelinks": {"enwiki": {"title": 5}}},
        # no latest revision: the report would pin the subject to oldid=0
        {"id": "Q5", "labels": {"en": {"language": "en", "value": "Subject"}}, "sitelinks": {}},
    ], ids=["list", "sitelinks-list", "label-string", "revision-word", "title-number",
            "no-revision"])
    def test_malformed_record_is_malformed_response(self, dict_transport, record):
        dict_transport.add_json(entity_request("Q5"), {"entities": {"Q5": record}})
        with pytest.raises(MalformedResponse, match="unexpected entity payload"):
            WikidataClient(dict_transport).entity_info(EntityId(5))


def revision_request(title):
    return HttpRequest.get(WIKIPEDIA_API, params={
        "action": "query", "prop": "info", "titles": title, "format": "json"})


class TestWikipediaRevision:
    def test_latest_revision(self, dict_transport):
        dict_transport.add_json(revision_request("Bioluminescence"),
                                {"query": {"pages": {"3942": {"lastrevid": 1206514418}}}})
        assert WikidataClient(dict_transport).wikipedia_revision("Bioluminescence") == 1206514418

    @pytest.mark.parametrize("pages", [[], {}, {"-1": {"missing": ""}}],
                             ids=["list", "empty", "missing"])
    def test_malformed_answer_is_malformed_response(self, dict_transport, pages):
        dict_transport.add_json(revision_request("Bioluminescence"), {"query": {"pages": pages}})
        with pytest.raises(MalformedResponse, match="unexpected page-info payload"):
            WikidataClient(dict_transport).wikipedia_revision("Bioluminescence")


class TestAgainstBundledFixtures:
    """The recorded end-to-end fixtures double as client-level fixtures."""

    def test_havel_counts(self, replay_dir):
        client = WikidataClient(FixtureStore(replay_dir))
        unsourced = client.fetch_unsourced_statements(EntityId(36233))
        assert len(unsourced) == 53
        labels = {(s.predicate_label, s.object_label) for s in unsourced}
        assert ("award received", "Concordia Prize") in labels
        assert ("award received", "Gottlieb Duttweiler Prize") in labels
        kept = client.filter_mandatory_reference(unsourced)
        assert len(kept) == 6
        assert all(s.predicate_id == "P166" for s in kept)


def test_wikipedia_permalink_format():
    assert wikipedia_permalink("Bioluminescence", 1206514418) == (
        "https://en.wikipedia.org/w/index.php?title=Bioluminescence&oldid=1206514418"
    )
    assert wikipedia_permalink("Václav Havel", 5) == (
        "https://en.wikipedia.org/w/index.php?title=V%C3%A1clav_Havel&oldid=5"
    )
