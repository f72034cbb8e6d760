#!/usr/bin/env python3
"""Regenerate the recorded fixtures bundled under tests/fixtures/.

Fixture files are keyed by request fingerprints, so they must be rebuilt with
the same code that will replay them. Run from the repository root:

    python tools/make_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from kgverify.html_text import extract_paragraphs, strip_archive_chrome  # noqa: E402
from kgverify.llm import LlmParams, write_response_log  # noqa: E402
from kgverify.model import Statement, statement_to_search_query  # noqa: E402
from kgverify.net import HttpRequest, HttpResponse  # noqa: E402
from kgverify.prompting import render_nli_prompt, render_rdf_prompt  # noqa: E402
from kgverify.retrieval import (  # noqa: E402
    ARCHIVE_AVAILABILITY_API,
    DEFAULT_HIT_LIMIT,
    GoogleSearchProvider,
    chunk_fill_limit,
)
from kgverify.store import FixtureStore  # noqa: E402
from kgverify.verifier import parse_wikipedia_article  # noqa: E402
from kgverify.wikidata import (  # noqa: E402
    WIKIDATA_API,
    WIKIDATA_SPARQL_ENDPOINT,
    WIKIPEDIA_API,
    EntityId,
    mandatory_reference_query,
    unsourced_statements_query,
)

FIXTURES = REPO / "tests" / "fixtures"
REPLAY = FIXTURES / "replay"

ENTITY_URI = "http://www.wikidata.org/entity/"


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def http_fixture(req: HttpRequest, status: int, body: str | bytes,
                 content_type: str = "application/json") -> None:
    if isinstance(body, str):
        body = body.encode("utf-8")
    FixtureStore(REPLAY).record(
        req,
        HttpResponse(status=status, headers={"content-type": content_type}, body=body,
                     url=req.url),
    )


def sparql_fixture(query: str, bindings: list[dict], variables: list[str]) -> None:
    req = HttpRequest.get(
        WIKIDATA_SPARQL_ENDPOINT,
        params={"query": query, "format": "json"},
        headers={"Accept": "application/sparql-results+json"},
    )
    payload = {"head": {"vars": variables}, "results": {"bindings": bindings}}
    http_fixture(req, 200, json.dumps(payload, ensure_ascii=False),
                 "application/sparql-results+json")


def uri_binding(value: str) -> dict:
    return {"type": "uri", "value": value}


def literal(value: str) -> dict:
    return {"type": "literal", "value": value}


def statement_binding(pid: str, plabel: str, obj: str, olabel: str,
                      subject_label: str = "Václav Havel") -> dict:
    if obj.startswith("Q"):
        object_value = uri_binding(ENTITY_URI + obj)
    else:
        object_value = literal(obj)
    return {
        "prop": uri_binding(ENTITY_URI + pid),
        "object": object_value,
        "propLabel": literal(plabel),
        "objectLabel": literal(olabel),
        "subjectLabel": literal(subject_label),
    }


# ---------------------------------------------------------------------------
# use case 1: Havel via web search
# ---------------------------------------------------------------------------

HAVEL = EntityId.parse("Q36233")
LLAMA_PARAMS = LlmParams()  # default model

AWARD_STATEMENTS = [
    ("Q1479799", "Gottlieb Duttweiler Prize"),
    ("Q1424713", "Philadelphia Liberty Medal"),
    ("Q473236", "Quadriga"),
    ("Q880250", "Point Alpha Prize"),
    ("Q587469", "Concordia Prize"),
    ("Q4043427", "St. George's Order of Victory"),
]

FILLER_PREDICATES = [
    ("P39", "position held", ["President of Czechoslovakia", "President of the Czech Republic"]),
    ("P463", "member of", ["Club of Rome", "PEN International", "Charter 77",
                           "Czech PEN club", "Committee of Good Will"]),
    ("P800", "notable work", ["The Garden Party", "The Memorandum", "Largo desolato",
                              "Audience", "Temptation", "Leaving", "Disturbing the Peace"]),
    ("P1344", "participant in", ["Velvet Revolution", "Prague Spring", "Charter 77 movement",
                                 "Civic Forum foundation"]),
    ("P551", "residence", ["Prague", "Hrádeček"]),
    ("P69", "educated at", ["Czech Technical University in Prague",
                            "Academy of Performing Arts in Prague"]),
    ("P737", "influenced by", ["Jan Patočka", "Samuel Beckett", "Eugène Ionesco",
                               "Franz Kafka", "Martin Heidegger"]),
    ("P1411", "nominated for", ["Nobel Peace Prize"]),
]

DOC1_URL = "https://www.linkedin.com/pulse/gottlieb-duttweiler-prize-2019-goes-watson-matthias-hartman"
DOC2_URL = "https://www.gdi.ch/en/topics/gottlieb-duttweiler-prize-previous-winners"
DOC3_URL = "https://www.pressportal.example/gottlieb-duttweiler-prize-announcement-2011"
PDF1_URL = "https://www.vhlf.org/annual-report-2018.pdf"
PDF2_URL = "https://www.vhlf.org/annual-report-2019.pdf"

DOC1_PARA_SUPPORT = (
    "IBM believes the promise of technology is to empower people to do good. We are honored "
    "for this belief to have been reinforced last night, when we received such a renowned "
    "award. An award which has also been given to the likes of Václav Havel, Czech "
    "politician, writer and human rights activist and Tim Berners-Lee, the inventor of the "
    "World Wide Web, for their outstanding contributions to the well-being of the wider "
    "community and to cultural, social or economic environments. Now, for the first time in "
    "history, the Gottlieb Duttweiler Institute has made the decision to honor a technology."
)

DOC1_HTML = f"""<!DOCTYPE html>
<html><head><title>Gottlieb Duttweiler Prize 2019 goes to Watson</title></head>
<body>
<nav><a href="/">Home</a> | <a href="/feed">Feed</a></nav>
<h1>Gottlieb Duttweiler Prize 2019 goes to Watson</h1>
<p>Last night the Gottlieb Duttweiler Institute hosted its biennial award ceremony in
Rüschlikon, gathering several hundred guests from research, business and politics to
celebrate this year's laureate.</p>
<p>{DOC1_PARA_SUPPORT}</p>
<p>The ceremony concluded with a panel discussion on the societal impact of artificial
intelligence, followed by a reception in the institute's park overlooking Lake Zurich.</p>
</body></html>
"""

DOC2_HTML = """<!DOCTYPE html>
<html><head><title>The Gottlieb Duttweiler Prize</title></head>
<body>
<h1>The Gottlieb Duttweiler Prize</h1>
<p>The Gottlieb Duttweiler Prize is awarded to individuals who have rendered outstanding
services to the well-being of the wider community. The prize is independent of political
and economic interests and is awarded at irregular intervals.</p>
<p>The award ceremony takes place at the Gottlieb Duttweiler Institute in Rüschlikon,
Switzerland. The prize money is donated in the spirit of the founder's conviction that
business should serve people, not the other way around.</p>
</body></html>
"""

DOC3_SUPPORT = (
    "Previous winners of the award, which honours outstanding contributions to the wider "
    "community, include former Czech president, Václav Havel, as well as Tim "
    "Berners-Lee, the inventor of the World Wide Web, and Kofi Annan, former "
    "Secretary-General of the United Nations."
)

DOC3_HTML = f"""<!DOCTYPE html>
<html><head><title>Gottlieb Duttweiler Prize announcement</title></head>
<body>
<h1>Institute announces new Gottlieb Duttweiler Prize laureate</h1>
<p>The Gottlieb Duttweiler Institute announced today the next recipient of its prize for
contributions to the well-being of the community, praising a career devoted to openness
and accountability in public life.</p>
<p>The jury highlighted the laureate's decades of work across borders, noting that the
selection committee had deliberated for several months before reaching a unanimous
decision on this year's recipient.</p>
<p>{DOC3_SUPPORT}</p>
</body></html>
"""

RESPONSE_NO_SUPPORT = (
    "The correct answer is: c) The RDF statement definitely cannot be inferred from the "
    "snippet. The snippet does not mention the award being given to Václav Havel, so "
    "the statement cannot be verified from it."
)

RESPONSE_DOC1 = (
    "The correct answer is a) The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof. The snippet explicitly mentions that the award has "
    "been given to Václav Havel, and the award is from the Gottlieb Duttweiler "
    "Institute, which matches the RDF statement [“Václav Havel” - "
    "“award received” - “Gottlieb Duttweiler Prize”]."
)

RESPONSE_DOC3 = (
    "The correct answer is: a) The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof. The snippet explicitly mentions \"Previous winners "
    "of the award... include former Czech president, Václav Havel\", which directly "
    "verifies the RDF statement [\"Václav Havel\" - \"award received\" - \"Gottlieb "
    "Duttweiler Prize\"]."
)


def build_havel() -> list[tuple[LlmParams, str, str]]:
    # 53 unsourced statements: six award statements plus filler predicates
    bindings = [
        statement_binding("P166", "award received", qid, label)
        for qid, label in AWARD_STATEMENTS
    ]
    counter = 90000
    for pid, plabel, objects in FILLER_PREDICATES:
        for obj_label in objects:
            counter += 1
            bindings.append(statement_binding(pid, plabel, f"Q{counter}", obj_label))
    # pad deterministically to exactly 53 rows
    extra = 0
    while len(bindings) < 53:
        extra += 1
        bindings.append(
            statement_binding("P1449", "nickname", f"nickname {extra}", f"nickname {extra}")
        )
    bindings = bindings[:53]
    sparql_fixture(
        unsourced_statements_query(HAVEL),
        bindings,
        ["prop", "object", "propLabel", "objectLabel", "subjectLabel"],
    )

    # constraint query: property ids in first-appearance order; only P166 is constrained
    seen: list[str] = []
    for row in bindings:
        pid = row["prop"]["value"].rsplit("/", 1)[-1]
        if pid not in seen:
            seen.append(pid)
    sparql_fixture(
        mandatory_reference_query(seen),
        [{"prop": uri_binding(ENTITY_URI + "P166")}],
        ["prop"],
    )

    # entity info for the report summary
    req = HttpRequest.get(
        WIKIDATA_API,
        params={
            "action": "wbgetentities",
            "ids": "Q36233",
            "props": "info|labels|sitelinks/urls",
            "languages": "en",
            "sitefilter": "enwiki",
            "format": "json",
        },
    )
    http_fixture(req, 200, json.dumps({
        "entities": {
            "Q36233": {
                "id": "Q36233",
                "lastrevid": 2220880662,
                "labels": {"en": {"language": "en", "value": "Václav Havel"}},
                "sitelinks": {
                    "enwiki": {
                        "site": "enwiki",
                        "title": "Václav Havel",
                        "url": "https://en.wikipedia.org/wiki/V%C3%A1clav_Havel",
                    }
                },
            }
        },
        "success": 1,
    }, ensure_ascii=False))

    statement = Statement(
        subject_label="Václav Havel",
        predicate_label="award received",
        object_label="Gottlieb Duttweiler Prize",
        subject_id="Q36233",
        predicate_id="P166",
        object_id="Q1479799",
    )
    # the search API's GET at the default hit limit; its key and cx are not recorded
    search_req = HttpRequest.get(GoogleSearchProvider.API_URL, params={
        "key": "<redacted>", "cx": "<redacted>",
        "q": statement_to_search_query(statement), "num": str(DEFAULT_HIT_LIMIT),
    })
    http_fixture(search_req, 200, json.dumps({"items": [
        {"link": DOC1_URL, "title": "Gottlieb Duttweiler Prize 2019 goes to Watson"},
        {"link": DOC2_URL, "title": "The Gottlieb Duttweiler Prize"},
        {"link": DOC3_URL, "title": "Institute announces new prize laureate"},
        {"link": PDF1_URL, "title": "Annual report 2018"},
        {"link": PDF2_URL, "title": "Annual report 2019"},
    ]}, ensure_ascii=False))

    http_fixture(HttpRequest.get(DOC1_URL), 200, DOC1_HTML, "text/html; charset=utf-8")
    http_fixture(HttpRequest.get(DOC2_URL), 200, DOC2_HTML, "text/html; charset=utf-8")
    http_fixture(HttpRequest.get(DOC3_URL), 200, DOC3_HTML, "text/html; charset=utf-8")
    http_fixture(HttpRequest.get(PDF1_URL), 200, b"%PDF-1.4 fixture", "application/pdf")
    http_fixture(HttpRequest.get(PDF2_URL), 200, b"%PDF-1.4 fixture", "application/pdf")

    # scripted completions, one per paragraph actually reached
    entries: list[tuple[LlmParams, str, str]] = []

    def add(snippet: str, response: str) -> None:
        prompt = render_rdf_prompt(statement, snippet)
        entries.append((LLAMA_PARAMS, prompt, response))

    doc1 = extract_paragraphs(DOC1_HTML)
    doc2 = extract_paragraphs(DOC2_HTML)
    doc3 = extract_paragraphs(DOC3_HTML)
    add(doc1[0], RESPONSE_NO_SUPPORT)
    add(doc1[1], RESPONSE_DOC1)
    add(doc2[0], RESPONSE_NO_SUPPORT)
    add(doc2[1], RESPONSE_NO_SUPPORT)
    add(doc3[0], RESPONSE_NO_SUPPORT)
    add(doc3[1], RESPONSE_NO_SUPPORT)
    add(doc3[2], RESPONSE_DOC3)
    return entries


# ---------------------------------------------------------------------------
# use case 2: Bioluminescence via Wikipedia references
# ---------------------------------------------------------------------------

GPT4_PARAMS = LlmParams(model="gpt-4-1106-preview")

WIKI_URL = "https://en.wikipedia.org/wiki/Bioluminescence"
BAYJOURNAL_URL = "https://www.bayjournal.com/article/chesapeake_bay_nightlights_add_sparkle_to_woods_water"
SNAPSHOT_URL = "https://web.archive.org/web/20190501200443/" + BAYJOURNAL_URL

TABLE5_PARAGRAPH = (
    "Phosphorus was thought to be the source of light in living creatures. Researchers now "
    "know that bioluminescence is accomplished through oxidation (the addition of oxygen) "
    "in an animal protein called luciferin. When a molecule of oxygen, either in a gaseous "
    "form or mixed in a liquid, and an enzyme known as luciferase combine with luciferin, "
    "the resulting new molecule is excited and gives off light. Unlike fuel combustion, "
    "there is no heat associated with luminescence."
)

WIKI_ARTICLE_HTML = """<!DOCTYPE html>
<html><head><title>Bioluminescence - Wikipedia</title></head>
<body>
<div id="content">
<h1>Bioluminescence</h1>
<p>Bioluminescence is the production and emission of light by living organisms. It occurs
widely in marine vertebrates and invertebrates, as well as in some fungi, in
microorganisms including some bioluminescent bacteria, and in terrestrial arthropods such
as fireflies.<sup class="reference"><a href="#cite_note-1">[1]</a></sup></p>
<p>Before the development of modern chemistry, the glow of rotting wood and of certain sea
creatures was attributed to phosphorus, and the word phosphorescence was applied loosely
to any lingering glow. Investigators later established that the cold light of living
organisms arises from a chemical reaction and is distinct from phosphorescence, which
re-emits previously absorbed radiation after a
delay.<sup class="reference"><a href="#cite_note-2">[2]</a></sup><sup class="reference"><a href="#cite_note-3">[3]</a></sup></p>
<p>The chemical reaction involves a light-emitting molecule and an enzyme, generally called
luciferin and luciferase, respectively. The reaction is highly efficient, releasing very
little heat, which is why the emission is sometimes described as cold
light.<sup class="reference"><a href="#cite_note-4">[4]</a></sup></p>
<h2>References</h2>
<ol class="references">
<li id="cite_note-1"><cite>Haddock, S. H. D.; Moline, M. A.; Case, J. F. (2010).
"Bioluminescence in the sea". Annual Review of Marine Science.</cite></li>
<li id="cite_note-2"><cite>Harvey, E. N. (1957). A History of Luminescence: From the
Earliest Times Until 1900. American Philosophical Society.</cite></li>
<li id="cite_note-3"><cite>Reshetiloff, K. (2001). "Chesapeake Bay night-lights add sparkle
to woods, water". Bay Journal.</cite>
<a href="https://www.bayjournal.com/article/chesapeake_bay_nightlights_add_sparkle_to_woods_water">article</a></li>
<li id="cite_note-4"><cite>Shimomura, O. (2006). Bioluminescence: Chemical Principles and
Methods. World Scientific.</cite></li>
</ol>
</div>
</body></html>
"""

ARCHIVED_HTML = f"""<!DOCTYPE html>
<html><head><title>Chesapeake Bay night-lights add sparkle to woods, water</title></head>
<body>
<!-- BEGIN WAYBACK TOOLBAR INSERT -->
<div id="wm-ipp-base" lang="en" style="display:block;">
<div id="wm-ipp">
<p>The Wayback Machine toolbar would appear here; it is playback interface chrome rather
than article content and must never reach the paragraph extractor of any client.</p>
</div>
</div>
<!-- END WAYBACK TOOLBAR INSERT -->
<h1>Chesapeake Bay night-lights add sparkle to woods, water</h1>
<p>During summer evenings along the Chesapeake Bay, flashes of light in the water and in
the woods reveal creatures that make their own light, a phenomenon that has fascinated
naturalists for centuries and still draws crowds to the shoreline every July.</p>
<p>{TABLE5_PARAGRAPH}</p>
<p>Fireflies are perhaps the most familiar of these creatures, blinking over lawns and
meadows, but the bay itself hosts dinoflagellates whose twinkling can outline fish and
paddles on the darkest nights of the year.</p>
</body></html>
"""

RESPONSE_BIOLUM_CHUNK = (
    "The correct answer is: b) The snippet contains some indications of the truthfulness of "
    "the RDF. The text distinguishes the cold light of living organisms from "
    "phosphorescence, which indicates but does not conclusively prove the statement."
)

RESPONSE_BIOLUM_NO = (
    "The correct answer is: c) The RDF statement definitely cannot be inferred from the "
    "snippet. The snippet does not address the relationship between bioluminescence and "
    "phosphorescence."
)

RESPONSE_BIOLUM_PARA = (
    "The correct answer is: a) The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof. The snippet states that the cold light of living "
    "organisms arises from a chemical reaction and is distinct from phosphorescence, which "
    "directly verifies the RDF statement [\"Bioluminescence\" - \"different from\" - "
    "\"phosphorescence\"]."
)

RESPONSE_BIOLUM_PRIMARY = (
    "The correct answer is: a) The RDF statement can be directly verified from the snippet. "
    "The snippet contains direct proof. The snippet explains the biochemical process behind "
    "bioluminescence, which involves an animal protein called luciferin and the enzyme "
    "luciferase in the presence of oxygen to produce light without heat, and it contrasts "
    "this with phosphorus, long thought to be the source of light in living creatures. "
    "Since the snippet points out the unique mechanism by which bioluminescence operates, "
    "it can be inferred that bioluminescence is indeed different from phosphorescence."
)

BIOLUM_STATEMENT = Statement(
    subject_label="Bioluminescence",
    predicate_label="different from",
    object_label="phosphorescence",
    subject_id="Q179924",
    predicate_id="P1889",
)


def build_biolum() -> list[tuple[LlmParams, str, str]]:
    req = HttpRequest.get(
        WIKIDATA_API,
        params={
            "action": "wbgetentities",
            "ids": "Q179924",
            "props": "info|labels|sitelinks/urls",
            "languages": "en",
            "sitefilter": "enwiki",
            "format": "json",
        },
    )
    http_fixture(req, 200, json.dumps({
        "entities": {
            "Q179924": {
                "id": "Q179924",
                "lastrevid": 2073869683,
                "labels": {"en": {"language": "en", "value": "Bioluminescence"}},
                "sitelinks": {
                    "enwiki": {
                        "site": "enwiki",
                        "title": "Bioluminescence",
                        "url": WIKI_URL,
                    }
                },
            }
        },
        "success": 1,
    }, ensure_ascii=False))

    req = HttpRequest.get(
        WIKIPEDIA_API,
        params={"action": "query", "prop": "info", "titles": "Bioluminescence",
                "format": "json"},
    )
    http_fixture(req, 200, json.dumps({
        "query": {
            "pages": {
                "39446": {"pageid": 39446, "title": "Bioluminescence",
                          "lastrevid": 1206514418}
            }
        }
    }))

    http_fixture(HttpRequest.get(WIKI_URL), 200, WIKI_ARTICLE_HTML, "text/html; charset=utf-8")
    http_fixture(
        HttpRequest.get(BAYJOURNAL_URL), 404,
        "<!DOCTYPE html><html><body><p>Not found.</p></body></html>",
        "text/html; charset=utf-8",
    )
    http_fixture(
        HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": BAYJOURNAL_URL}),
        200,
        json.dumps({
            "url": BAYJOURNAL_URL,
            "archived_snapshots": {
                "closest": {
                    "status": "200",
                    "available": True,
                    "url": SNAPSHOT_URL,
                    "timestamp": "20190501200443",
                }
            },
        }),
    )
    http_fixture(HttpRequest.get(SNAPSHOT_URL), 200, ARCHIVED_HTML, "text/html; charset=utf-8")

    entries: list[tuple[LlmParams, str, str]] = []

    def add(snippet: str, response: str) -> None:
        prompt = render_rdf_prompt(BIOLUM_STATEMENT, snippet)
        entries.append((GPT4_PARAMS, prompt, response))

    article = parse_wikipedia_article(WIKI_ARTICLE_HTML)
    texts = [p.text for p in article.paragraphs]
    assert chunk_fill_limit(texts) == [range(len(texts))], "fixture article must fit a single chunk"
    add("\n".join(texts), RESPONSE_BIOLUM_CHUNK)
    add(texts[0], RESPONSE_BIOLUM_NO)
    add(texts[1], RESPONSE_BIOLUM_PARA)
    add(texts[2], RESPONSE_BIOLUM_NO)

    archived_paragraphs = extract_paragraphs(strip_archive_chrome(ARCHIVED_HTML))
    add(archived_paragraphs[0], RESPONSE_BIOLUM_NO)
    add(archived_paragraphs[1], RESPONSE_BIOLUM_PRIMARY)

    statements_file = REPLAY.parent / "biolum_statements.tsv"
    statements_file.write_text(
        "Bioluminescence\tdifferent from\tphosphorescence\tQ179924\tP1889\t\n",
        encoding="utf-8",
    )
    return entries


# ---------------------------------------------------------------------------
# parser corpus
# ---------------------------------------------------------------------------


def build_parser_corpus() -> None:
    from kgverify.prompting import OPTION_TEXTS

    corpus: list[dict] = []

    def option_case(text: str, expected: str) -> None:
        corpus.append({"kind": "option", "text": text, "expected": expected})

    def nli_case(text: str, expected: str) -> None:
        corpus.append({"kind": "nli", "text": text, "expected": expected})

    fig2 = (
        "The correct answer is: a) The RDF statement can be directly verified from the "
        "snippet. The snippet contains direct proof. The snippet explicitly mentions "
        "\"Concordia Prize\" in the list of awards received by Václav Havel, which directly "
        "verifies the RDF statement."
    )
    option_case(fig2, "a")
    option_case(RESPONSE_DOC3, "a")
    option_case(RESPONSE_DOC1, "a")

    fig7 = (
        "Based on the given texts, I would say that the correct label is:c) contradiction. "
        "The reason is that the premise states that the man is waiting for a green light, "
        "but the hypothesis states that the man is waiting at a red light. This is a clear "
        "contradiction, as the man cannot be waiting for a green light if he is already at "
        "a red light."
    )
    nli_case(fig7, "contradiction")
    fig8 = (
        "The correct answer is c) contradiction. The premise states \"A woman is sitting in "
        "a chair\", while the hypothesis states \"a girl is sitting\". The contradiction "
        "lies in the fact that \"woman\" and \"girl\" are not the same, so the hypothesis "
        "mentions something that would not be possible in the premise."
    )
    nli_case(fig8, "contradiction")
    fig9 = (
        "Based on the given texts, I would choose option c) contradiction. The premise "
        "states that the man \"chokes\" the woman, but it's in the context of an overly "
        "dramatic couple posing for a picture, and the quotation marks around \"chokes\" "
        "suggest that it's not meant to be taken literally. In contrast, the hypothesis "
        "states \"A man chokes a woman\" without any indication that it's not meant to be "
        "taken literally. Therefore, the hypothesis contradicts the premise because it "
        "implies a level of violence or aggression that is not present in the original "
        "context."
    )
    nli_case(fig9, "contradiction")

    justifications = {
        "a": [
            "The snippet names the subject and the award explicitly, settling the claim.",
            "Both the person and the prize appear together in the list of recipients.",
            "The passage states the fact outright, leaving nothing to infer.",
        ],
        "b": [
            "The snippet hints at a connection but never states the relation outright.",
            "There is circumstantial wording that points in this direction only.",
            "The passage is suggestive yet stops short of confirming the claim.",
        ],
        "c": [
            "The snippet is about an unrelated ceremony and never mentions the subject.",
            "Nothing in the passage concerns the entities of the statement.",
            "The text discusses finances, not awards, so no inference is possible.",
        ],
    }
    lead_ins = [
        "The correct answer is: {L}) {ECHO} {WHY}",
        "The correct answer is {L}) {ECHO} {WHY}",
        "The correct answer is:{L}) {ECHO}{WHY}",
        "Answer: {L}) {WHY}",
        "The answer is ({L}). {WHY}",
        "My answer is {L}). {WHY}",
        "The correct option is {L}) {ECHO} {WHY}",
        "I would choose option {L}) because of the following. {WHY}",
        "The correct label is: {L}) {WHY}",
        "Given the snippet, the correct answer is {L}). {WHY}",
        "Final answer: {L}) {WHY}",
        "Option {L}) is the right choice here. {WHY}",
    ]
    for letter in "abc":
        for i, lead in enumerate(lead_ins):
            why = justifications[letter][i % 3]
            option_case(
                lead.format(L=letter, ECHO=OPTION_TEXTS[letter], WHY=why), letter
            )
    # responses that open with the bare option
    option_case("a) " + OPTION_TEXTS["a"] + " The list of laureates includes the subject.", "a")
    option_case("b) " + OPTION_TEXTS["b"], "b")
    option_case("c) " + OPTION_TEXTS["c"] + " The page never mentions the person.", "c")
    option_case("(a) The snippet proves the claim word for word.", "a")
    option_case("B) The snippet gives partial hints about the relation.", "b")
    option_case("C) Nothing relevant appears in the text.", "c")
    # uppercase and spacing variants
    option_case("The correct answer is: A) The statement is fully supported here.", "a")
    option_case("The correct answer is:B) Some hints support the claim.", "b")
    option_case("ANSWER: C) the snippet is unrelated.", "c")
    # reasoning before the declaration
    option_case(
        "The snippet lists several laureates and describes the founding of the prize. "
        "Considering all of this, the correct answer is: a) The RDF statement can be "
        "directly verified from the snippet. The snippet contains direct proof.",
        "a",
    )
    option_case(
        "The passage centres on an unrelated festival. Nothing connects the subject to the "
        "object. Therefore the correct answer is c).",
        "c",
    )
    option_case(
        "Some sentences point toward the claim without proving it. Hence the answer is b).",
        "b",
    )
    # unparseable option responses
    option_case("I cannot determine anything.", "unparseable")
    option_case("", "unparseable")
    option_case("The snippet is unrelated to the statement in question.", "unparseable")
    option_case("Based on the snippet alone it is impossible to decide either way.", "unparseable")
    option_case(
        "Yes, the RDF statement can be inferred from the given snippet. Reasoning: the text "
        "describes the mechanism in detail and contrasts it with similar phenomena.",
        "unparseable",
    )
    option_case("Both a) and c) could apply depending on interpretation, the correct answer "
                "is unclear to me.", "unparseable")

    nli_lead_ins = [
        "The correct answer is: {L}) {WORD}. {WHY}",
        "The correct answer is {L}) {WORD}. {WHY}",
        "The correct label is:{L}) {WORD}. {WHY}",
        "I would choose option {L}) {WORD}. {WHY}",
        "Label: {L}) {WORD}. {WHY}",
        "Based on the given texts, I would say that the correct label is: {L}) {WORD}.",
        "Considering both sentences carefully, the answer is {L}) {WORD}. {WHY}",
        "The premise and hypothesis were compared sentence by sentence; the correct "
        "label is {L}) {WORD}.",
    ]
    word_of = {"a": "entailment", "b": "neutral", "c": "contradiction"}
    nli_reasons = [
        "The hypothesis restates the premise in fewer words.",
        "The premise neither confirms nor rules out the hypothesis.",
        "The two sentences cannot both be true at once.",
    ]
    for letter in "abc":
        for i, lead in enumerate(nli_lead_ins):
            nli_case(
                lead.format(L=letter, WORD=word_of[letter], WHY=nli_reasons[i % 3]),
                word_of[letter],
            )
    # word-only declarations
    nli_case("This is clearly an entailment: the hypothesis follows from the premise.",
             "entailment")
    nli_case("The relationship between the two sentences is neutral.", "neutral")
    nli_case("The hypothesis is a contradiction of the premise.", "contradiction")
    nli_case("entailment", "entailment")
    nli_case("neutral", "neutral")
    nli_case("contradiction", "contradiction")
    # letter wins over a conflicting word
    nli_case("The correct answer is b) contradiction. The sentences describe different "
             "scenes.", "neutral")
    nli_case("The correct answer is c) entailment? No: the premise rules the hypothesis "
             "out.", "contradiction")
    nli_case("The correct label is: a) even though parts feel like a contradiction, the "
             "core claim follows.", "entailment")
    # unparseable NLI responses
    nli_case("I am unsure how these two sentences relate.", "unparseable")
    nli_case("The premise talks about a festival and the hypothesis about weather.",
             "unparseable")
    nli_case("It could be an entailment or a contradiction depending on context.",
             "unparseable")
    nli_case("", "unparseable")

    # longer multi-sentence responses
    option_case(
        "The correct answer is: a) The RDF statement can be directly verified from the "
        "snippet. The snippet contains direct proof. The passage first recounts the "
        "founding of the prize, then lists its laureates by year. Among them the subject "
        "appears by name next to the exact award in question, which settles the matter "
        "beyond doubt.",
        "a",
    )
    option_case(
        "The correct answer is: b) The snippet contains some indications of the "
        "truthfulness of the RDF. The passage mentions the subject attending the ceremony "
        "and being celebrated, but the name of the award is never stated explicitly, so "
        "only an indirect inference is possible.",
        "b",
    )
    option_case(
        "The correct answer is: c) The RDF statement definitely cannot be inferred from "
        "the snippet. The passage concerns the institute's finances and board membership. "
        "No laureate is named anywhere in the text, and the subject of the statement does "
        "not occur at all.",
        "c",
    )
    nli_case(
        "The correct answer is: a) entailment. The hypothesis merely generalizes the "
        "premise: if a specific man plays a specific guitar on a street corner, then it is "
        "certainly true that a musician performs outdoors. Every detail of the hypothesis "
        "is contained in the premise.",
        "entailment",
    )
    nli_case(
        "The correct answer is: b) neutral. While both sentences describe the same scene, "
        "the hypothesis adds a motive that the premise neither confirms nor denies. The "
        "additional information is compatible with the premise but not derivable from it.",
        "neutral",
    )
    nli_case(
        "The correct answer is: c) contradiction. The premise places the subject indoors "
        "at night, while the hypothesis has the same subject outdoors in daylight. These "
        "descriptions cannot both hold, hence the sentences contradict one another.",
        "contradiction",
    )

    out = FIXTURES / "parser_corpus.jsonl"
    out.write_text(
        "\n".join(json.dumps(case, ensure_ascii=False) for case in corpus) + "\n",
        encoding="utf-8",
    )
    print(f"parser corpus: {len(corpus)} cases")


# ---------------------------------------------------------------------------
# miniature source datasets
# ---------------------------------------------------------------------------


def _annotation(aid: str, identifier: str, concept_type: str, text: str) -> dict:
    return {
        "id": aid,
        "infons": {"identifier": identifier, "type": concept_type},
        "text": text,
        "locations": [{"offset": 0, "length": len(text)}],
    }


def _relation(rid: str, entity1: str, entity2: str, rel_type: str) -> dict:
    return {"id": rid, "infons": {"entity1": entity1, "entity2": entity2, "type": rel_type},
            "nodes": []}


def build_biored_mini() -> None:
    train = {
        "source": "fixture",
        "documents": [
            {
                "id": "1001",
                "passages": [
                    {
                        "infons": {"type": "title"},
                        "offset": 0,
                        "text": "Aspirin relieves headache and modulates COX2 expression.",
                        "annotations": [
                            _annotation("0", "C-ASP", "ChemicalEntity", "Aspirin"),
                            _annotation("1", "D-HEAD", "DiseaseOrPhenotypicFeature",
                                        "headache"),
                            _annotation("2", "G-COX2", "GeneOrGeneProduct", "COX2"),
                        ],
                    },
                    {
                        "infons": {"type": "abstract"},
                        "offset": 60,
                        "text": (
                            "In a cohort of adults with recurrent headache, aspirin reduced "
                            "pain scores while lowering COX2 levels; fever was unaffected."
                        ),
                        "annotations": [
                            _annotation("3", "C-ASP", "ChemicalEntity", "aspirin"),
                            _annotation("4", "D-FEV", "DiseaseOrPhenotypicFeature", "fever"),
                        ],
                    },
                ],
                "relations": [
                    _relation("R0", "C-ASP", "D-HEAD", "Positive_Correlation"),
                    _relation("R1", "C-ASP", "G-COX2", "Negative_Correlation"),
                ],
            },
            {
                "id": "1002",
                "passages": [
                    {
                        "infons": {"type": "title"},
                        "offset": 0,
                        "text": "Ibuprofen and markers of inflammation.",
                        "annotations": [
                            _annotation("0", "C-IBU", "ChemicalEntity", "Ibuprofen"),
                            _annotation("1", "D-INF", "DiseaseOrPhenotypicFeature",
                                        "inflammation"),
                        ],
                    },
                    {
                        "infons": {"type": "abstract"},
                        "offset": 40,
                        "text": (
                            "Ibuprofen intake correlated with inflammation markers in the "
                            "treatment arm; an association with headache was also recorded."
                        ),
                        "annotations": [
                            _annotation("2", "C-IBU", "ChemicalEntity", "ibuprofen"),
                            _annotation("3", "D-HEAD", "DiseaseOrPhenotypicFeature",
                                        "headache"),
                        ],
                    },
                ],
                "relations": [
                    _relation("R0", "C-IBU", "D-INF", "Positive_Correlation"),
                    _relation("R1", "C-IBU", "D-HEAD", "Association"),
                ],
            },
            {
                "id": "1003",
                "passages": [
                    {
                        "infons": {"type": "title"},
                        "offset": 0,
                        "text": "Variant rs12345 and drug response.",
                        "annotations": [
                            _annotation("0", "V-RS12345", "SequenceVariant", "rs12345"),
                            _annotation("1", "C-ASP", "ChemicalEntity", "aspirin"),
                        ],
                    }
                ],
                "relations": [
                    _relation("R0", "V-RS12345", "C-ASP", "Positive_Correlation"),
                ],
            },
        ],
    }
    test = {
        "source": "fixture",
        "documents": [
            {
                "id": "1004",
                "passages": [
                    {
                        "infons": {"type": "title"},
                        "offset": 0,
                        "text": "COX2 and TP53 cross-regulation in fever models.",
                        "annotations": [
                            _annotation("0", "G-COX2", "GeneOrGeneProduct", "COX2"),
                            _annotation("1", "G-TP53", "GeneOrGeneProduct", "TP53"),
                            _annotation("2", "D-FEV", "DiseaseOrPhenotypicFeature", "fever"),
                            _annotation("3", "G-BRCA1", "GeneOrGeneProduct", "BRCA1"),
                        ],
                    },
                    {
                        "infons": {"type": "abstract"},
                        "offset": 48,
                        "text": (
                            "Expression of COX2 rose together with TP53 in febrile animals, "
                            "whereas TP53 activity fell as fever resolved; BRCA1 served as "
                            "a control."
                        ),
                        "annotations": [],
                    },
                ],
                "relations": [
                    _relation("R0", "G-COX2", "G-TP53", "Positive_Correlation"),
                    _relation("R1", "G-TP53", "D-FEV", "Negative_Correlation"),
                ],
            }
        ],
    }
    mini = FIXTURES / "biored_mini"
    mini.mkdir(parents=True, exist_ok=True)
    (mini / "Train_mini.BioC.JSON").write_text(
        json.dumps(train, indent=1, ensure_ascii=False), encoding="utf-8"
    )
    (mini / "Test_mini.BioC.JSON").write_text(
        json.dumps(test, indent=1, ensure_ascii=False), encoding="utf-8"
    )


SNLI_TRAIN = [
    ("t-ent-1", "A soccer game with multiple males playing.",
     "Some men are playing a sport.", "entailment"),
    ("t-ent-2", "A band performs on an outdoor stage at dusk.",
     "Musicians are playing music outside.", "entailment"),
    ("t-ent-3", "Two dogs run across the snowy field.",
     "Animals are moving outdoors.", "entailment"),
    ("t-neu-1", "A woman reads a book on a park bench.",
     "The woman is waiting for her friend.", "neutral"),
    ("t-neu-2", "A man in a blue shirt rides a bicycle down the road.",
     "The man is late for work.", "neutral"),
    ("t-neu-3", "Children build a sandcastle near the waves.",
     "The children are siblings on vacation.", "neutral"),
    ("t-con-1", "A man inspects the uniform of a figure in some East Asian country.",
     "The man is sleeping.", "contradiction"),
    ("t-con-2", "A black dog leaps over a fallen log.",
     "The dog is resting in its kennel.", "contradiction"),
    ("t-con-3", "An older man drinks coffee at a small cafe table.",
     "A young girl drinks juice at home.", "contradiction"),
]

SNLI_TEST = [
    ("s-1", "A man plays the guitar on a street corner.",
     "A musician performs outdoors.", "entailment"),
    ("s-2", "A girl in a red coat jumps into a puddle.",
     "A child is outside in wet weather.", "entailment"),
    ("s-3", "Workers repair the roof of an old barn.",
     "People are fixing a building.", "entailment"),
    ("s-4", "Two chefs prepare food in a busy kitchen.",
     "Meals are being cooked.", "entailment"),
    ("s-5", "A cyclist climbs a steep mountain road.",
     "The cyclist is training for a race.", "neutral"),
    ("s-6", "A couple walks their dog along the beach.",
     "The couple owns the dog.", "neutral"),
    ("s-7", "A crowd waits at the train platform.",
     "The passengers are commuting to work.", "neutral"),
    ("s-8", "A boy eats an apple at the kitchen table.",
     "The apple was picked this morning.", "neutral"),
    ("s-9", "A woman in a suit waits for the green light.",
     "A man waits at a red light.", "contradiction"),
    ("s-10", "The choir sings inside the cathedral.",
     "The cathedral is empty and silent.", "contradiction"),
    ("s-11", "A farmer plants seedlings in the spring field.",
     "The farmer is harvesting corn in autumn.", "contradiction"),
    ("s-12", "Kids fly kites in the windy park.",
     "The children are swimming indoors.", "contradiction"),
    ("s-13", "A juggler entertains tourists in the square.",
     "", "-"),
]


def _snli_line(pair_id: str, premise: str, hypothesis: str, gold: str) -> str:
    return json.dumps(
        {"pairID": pair_id, "sentence1": premise, "sentence2": hypothesis,
         "gold_label": gold},
        ensure_ascii=False,
    )


def build_snli_mini() -> None:
    snli = FIXTURES / "snli"
    snli.mkdir(parents=True, exist_ok=True)
    (snli / "train_mini.jsonl").write_text(
        "\n".join(_snli_line(*row) for row in SNLI_TRAIN) + "\n", encoding="utf-8"
    )
    (snli / "test_mini.jsonl").write_text(
        "\n".join(_snli_line(*row) for row in SNLI_TEST) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# evaluation replay logs for the miniature datasets
# ---------------------------------------------------------------------------


def build_eval_replay() -> None:
    from kgverify.datasets import (
        GroundTruth,
        extract_positives,
        generate_negatives,
        load_biored,
        load_snli,
        pick_nli_example_records,
    )
    from kgverify.model import BinaryDecision
    from kgverify.prompting import OPTION_TEXTS

    docs = load_biored(FIXTURES / "biored_mini")
    positives = extract_positives(docs)
    negatives, _ = generate_negatives(positives, GroundTruth.from_documents(docs), seed=42)
    instances = positives + negatives

    entries: list[tuple[LlmParams, str, str]] = []
    flipped_positive = flipped_negative = False
    for instance in instances:
        prompt = render_rdf_prompt(instance.statement, instance.grounding_text)
        if instance.gold is BinaryDecision.SUPPORTED:
            if not flipped_positive:
                flipped_positive = True
                answer = "c"
            else:
                answer = "a"
        else:
            if not flipped_negative:
                flipped_negative = True
                answer = "a"
            else:
                answer = "c"
        entries.append(
            (LLAMA_PARAMS, prompt,
             f"The correct answer is: {answer}) {OPTION_TEXTS[answer]}")
        )

    examples = pick_nli_example_records(FIXTURES / "snli" / "train_mini.jsonl", seed=42)
    records = load_snli(FIXTURES / "snli" / "test_mini.jsonl")
    word_to_letter = {"entailment": "a", "neutral": "b", "contradiction": "c"}
    for index, record in enumerate(records):
        prompt = render_nli_prompt(record.premise, record.hypothesis, examples)
        if index == 0:
            # one deliberate mistake: answer neutral for an entailment record
            raw = "The correct answer is: b) neutral. The premise leaves room for doubt."
        elif index == 1:
            raw = "I am unable to relate the two sentences."  # unparseable
        else:
            word = record.gold.value
            raw = (f"The correct answer is: {word_to_letter[word]}) {word}. "
                   "The relationship is evident from the wording.")
        entries.append((LLAMA_PARAMS, prompt, raw))

    write_response_log(FIXTURES / "eval_replay" / "llm" / "responses.jsonl", entries)
    print(f"eval replay log: {len(entries)} completions")


def main() -> None:
    entries = build_havel()
    entries += build_biolum()
    write_response_log(REPLAY / "llm" / "responses.jsonl", entries)
    print(f"replay log: {len(entries)} completions")
    build_parser_corpus()
    build_biored_mini()
    build_snli_mini()
    build_eval_replay()
    print("fixtures written to", FIXTURES)


if __name__ == "__main__":
    main()
