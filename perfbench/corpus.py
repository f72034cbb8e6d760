"""Seeded synthetic corpora for the three benchmark workloads.

A corpus holds everything the fake remote side answers (pages, search hits,
SPARQL bindings, wiki API records, archive snapshots, LLM verdicts), the input
files the command reads, and the ground truth its report must match. The same
(workload, seed, scale) always yields the same corpus and the same digest.

Proportions (proof pages, PDFs, dead links, paragraph counts, model answers)
are drawn from exact multisets that the seed only shuffles. A seed therefore
changes which statement gets which page, never how many remote calls a
workload makes, so call counts per item are the same on every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("websearch", "wikipedia", "evaluate-triples")

FIXED_CLOCK = "2024-05-01T12:00:00Z"
ENTITY_PREFIX = "http://www.wikidata.org/entity/"
SPARQL_URL = "https://query.wikidata.org/sparql"
WIKIDATA_API = "https://www.wikidata.org/w/api.php"
WIKIPEDIA_API = "https://en.wikipedia.org/w/api.php"
SEARCH_URL = "https://www.googleapis.com/customsearch/v1"
ARCHIVE_API = "https://archive.org/wayback/available"
LLM_HOST = "api.replicate.com"
WAYBACK_TOOLBAR = (
    "<!-- BEGIN WAYBACK TOOLBAR INSERT --><div id=\"wm-ipp-base\"><div>"
    "<p>The Wayback Machine has archived this page on several dates and times "
    "for the benefit of readers who follow dead links.</p></div></div>"
    "<!-- END WAYBACK TOOLBAR INSERT -->"
)

VERDICT_TEXT = {
    "a": [
        "The correct answer is: a) The RDF statement can be directly verified from the "
        "snippet. The snippet contains direct proof. The snippet states {fact} in so many words.",
        "a) The RDF statement can be directly verified from the snippet. The snippet contains "
        "direct proof. It names {fact} explicitly.",
        "I would choose option a) because the snippet says {fact} directly.",
    ],
    "b": [
        "The correct answer is: b) The snippet contains some indications of the truthfulness "
        "of the RDF. The passage touches on {fact} without stating it outright.",
        "I would choose option b) since the text hints at {fact}.",
    ],
    "c": [
        "The correct answer is: c) The RDF statement definitely cannot be inferred from the "
        "snippet. Nothing in the passage concerns {fact}.",
        "c) The RDF statement definitely cannot be inferred from the snippet. The text is "
        "about something else.",
    ],
    "u": [
        "I am not sure how to judge this passage; it could be read either way.",
        "The snippet is ambiguous and I cannot decide between the options offered.",
    ],
}

_WORDS = (
    "amber basin cedar delta ember fjord garnet harbor iris juniper kestrel lagoon "
    "meadow nectar onyx prairie quartz raven sierra tundra umber valley willow yarrow "
    "zephyr archive bridge canal district estate festival gallery heritage institute "
    "journal lecture museum network observatory pavilion quarterly register society "
    "theatre university venture workshop yearbook zoning annual board council decree "
    "edition founding grant honour inquiry jubilee keynote league mandate notice "
    "office patent quorum review statute treaty union verdict warrant award medal "
    "prize member founder director editor author painter composer architect"
).split()
_CAPS = [w.capitalize() for w in _WORDS]
_SITES = [f"{a}-{b}.{tld}" for a, b, tld in zip(
    _WORDS[::3], _WORDS[1::3], ["org", "com", "net", "info", "edu"] * 8)]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def triple_key(subject: str, predicate: str, obj: str) -> str:
    return "\x1f".join((subject, predicate, obj))


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    return " ".join(words).capitalize() + "."


def _text(rng: random.Random, lo: int, hi: int, tag: str) -> str:
    """Plain prose of lo..hi characters, made unique by a serial tag."""
    target = rng.randint(lo, hi)
    parts = [f"Record {tag}."]
    length = len(parts[0])
    while length < target:
        sentence = _sentence(rng, rng.randint(5, 12))
        parts.append(sentence)
        length += len(sentence) + 1
    return " ".join(parts)


def _cycled(values, n: int, rng: random.Random) -> list:
    """An exact multiset of n values taken round-robin, then shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _exact(counts: dict, rng: random.Random) -> list:
    out = [key for key, n in counts.items() for _ in range(n)]
    rng.shuffle(out)
    return out


def _page_specs(n: int, rng: random.Random) -> list[tuple[int, int, bool, int]]:
    """(valid paragraphs, short paragraphs, has proof, proof index) for n pages.

    The multiset depends on n alone: 3 pages in 10 carry a proof, spread
    evenly over the page shapes and proof positions. The seed only shuffles.
    """
    shapes = [(v, s) for v in (1, 2, 3, 4) for s in (0, 1, 2)]
    specs = []
    for k in range(n):
        valid, short = shapes[k % len(shapes)]
        specs.append((valid, short, (3 * k) % 10 < 3, (k // 10) % valid))
    rng.shuffle(specs)
    return specs


def _page_html(title: str, paragraphs: list[str], chrome: str = "") -> str:
    body = "".join(f"<p>{p}</p>\n" for p in paragraphs)
    return (
        "<!DOCTYPE html>\n<html><head><title>" + title + "</title>"
        "<style>p { margin: 0 }</style></head><body>" + chrome
        + "<h1>" + title + "</h1>\n<ul><li>Home</li><li>About</li></ul>\n"
        + body + "<div class=\"footer\">Contact us</div></body></html>\n"
    )


def _pdf() -> str:
    return "%PDF-1.4\n1 0 obj << /Type /Catalog >> endobj\n%%EOF\n"


@dataclass
class Corpus:
    """Generated inputs, fake remote state and ground truth of one workload."""

    workload: str
    seed: int
    argv: list[str]
    files: dict[str, str]
    remote: dict
    expected: dict
    properties: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = canonical_json(
            {"workload": self.workload, "argv": self.argv, "files": self.files,
             "remote": self.remote, "expected": self.expected}
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _Oracle:
    """What the fake model answers: proofs and hints per statement."""

    def __init__(self):
        self.known: set[str] = set()
        self.statements: dict[str, dict] = {}
        self.answers: dict[str, list] = {}

    def statement(self, key: str) -> dict:
        return self.statements.setdefault(key, {"proof": [], "hint": []})

    def dump(self) -> dict:
        return {
            "known": sorted(self.known),
            "statements": self.statements,
            "answers": self.answers,
        }


def _base_remote() -> dict:
    return {"pages": {}, "search": {}, "entities": {}, "revisions": {}, "archive": {},
            "unsourced": {}, "constrained": []}


def _entity_record(qid: str, label: str, title: str | None, revid: int) -> dict:
    record = {"id": qid, "lastrevid": revid, "labels": {"en": {"language": "en", "value": label}}}
    if title:
        record["sitelinks"] = {"enwiki": {
            "site": "enwiki", "title": title,
            "url": "https://en.wikipedia.org/wiki/" + title.replace(" ", "_"),
        }}
    return record


# -- websearch -----------------------------------------------------------------


def _websearch(seed: int, scale: float) -> Corpus:
    rng = random.Random(f"websearch:{seed}")
    n_stmt = max(4, round(100 * scale))
    n_filler = max(2, round(40 * scale))
    hits_per = 5
    n_slots = n_stmt * hits_per
    pool_size = max(2, round(10 * scale))
    pool_uses = max(2, n_slots // 5 // pool_size)
    n_pdf, n_404 = n_slots // 10, n_slots // 20
    n_mirror_pairs = max(1, round(20 * scale))

    subject_qid = f"Q{rng.randint(100000, 999999)}"
    subject = f"{rng.choice(_CAPS)} {rng.choice(_CAPS)} Foundation"
    props = [f"P{n}" for n in rng.sample(range(100, 3000), 20)]
    constrained, unconstrained = props[:12], props[12:]
    prop_labels = {p: f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}" for i, p in enumerate(props)}
    remote = _base_remote()
    remote["constrained"] = sorted(constrained)
    oracle = _Oracle()

    statements = []
    for i in range(n_stmt):
        pid = constrained[i % len(constrained)]
        obj = f"{rng.choice(_CAPS)} {rng.choice(_CAPS)} {i:03d}"
        statements.append((subject, prop_labels[pid], obj, pid, f"Q{700000 + i}" if i % 2 else None))
    fillers = []
    for i in range(n_filler):
        pid = unconstrained[i % len(unconstrained)]
        fillers.append((subject, prop_labels[pid], f"Filler {rng.choice(_CAPS)} {i:03d}", pid, None))

    # Hit slots: every statement gets 5 and the kinds are an exact multiset.
    # A mirror pair (two URLs, same paragraphs) sits inside one statement.
    mirror_hosts = set(rng.sample(range(n_stmt), n_mirror_pairs))
    n_free = n_slots - 2 * n_mirror_pairs
    n_pool = pool_size * pool_uses
    kinds = _exact({"pdf": n_pdf, "404": n_404, "pool": n_pool,
                    "own": n_free - n_pdf - n_404 - n_pool}, rng)
    per_stmt, cursor = [], 0
    for i in range(n_stmt):
        take = hits_per - 2 if i in mirror_hosts else hits_per
        slots = kinds[cursor:cursor + take]
        cursor += take
        if i in mirror_hosts:
            slots += ["mirror-a", "mirror-b"]
            rng.shuffle(slots)
        per_stmt.append(slots)
    # Every statement keeps a fetchable hit: swap with another statement's own
    # page, which leaves the multiset unchanged.
    for i, slots in enumerate(per_stmt):
        if any(s not in ("pdf", "404") for s in slots):
            continue
        for other in per_stmt:
            if other.count("own") >= 2:
                j = other.index("own")
                other[j], slots[0] = slots[0], "own"
                break
    # Pool pages go round-robin over the pool slots, so each is used exactly
    # pool_uses times and no statement sees one pool page twice.
    pool_assign, rotation = [], 0
    for slots in per_stmt:
        mine = []
        for slot in slots:
            if slot == "pool":
                mine.append(rotation % pool_size)
                rotation += 1
        pool_assign.append(mine)

    def make_page(tag: str, n_valid: int, n_short: int, proof: str | None, proof_pos: int):
        valid = [_text(rng, 120, 420, tag + f"-{k}") for k in range(n_valid)]
        if proof is not None:
            valid[proof_pos] = proof
        short = [_text(rng, 20, 60, tag + f"s{k}")[:90] for k in range(n_short)]
        order = valid + short
        rng.shuffle(order)
        # keep valid paragraphs in their planned relative order
        it = iter(valid)
        paragraphs = [next(it) if p in valid else p for p in order]
        oracle.known.update(paragraphs)
        return paragraphs

    own_specs = _page_specs(sum(s.count("own") for s in per_stmt), rng)
    mirror_specs = _page_specs(n_mirror_pairs, rng)
    proof_pages = sum(spec[2] for spec in own_specs + mirror_specs)
    pool_shapes = _cycled([(v, s) for v in (1, 2, 3, 4) for s in (0, 2)], pool_size, rng)

    pool_urls = []
    for k in range(pool_size):
        url = f"https://www.{_SITES[k % len(_SITES)]}/topics/overview-{k}.html"
        v, s = pool_shapes[k]
        paras = make_page(f"pool{k}", v, s, None, 0)
        remote["pages"][url] = [200, "text/html; charset=utf-8", _page_html(f"Overview {k}", paras)]
        pool_urls.append(url)

    expected_sessions = []
    for i, (s, p, o, pid, oid) in enumerate(statements):
        key = triple_key(s, p, o)
        entry = oracle.statement(key)
        hits, documents, traces = [], [], []
        mirror_paras = None
        mirror_proof = None
        pool_iter = iter(pool_assign[i])
        for rank, slot in enumerate(per_stmt[i], start=1):
            site = _SITES[(i * 7 + rank) % len(_SITES)]
            if slot == "pool":
                url = pool_urls[next(pool_iter)]
                documents.append([url, "direct", None])
            elif slot == "pdf":
                url = f"https://{site}/files/report-{i}-{rank}.pdf"
                remote["pages"][url] = [200, "application/pdf", _pdf()]
                documents.append([url, None, "unsupported-media"])
            elif slot == "404":
                url = f"https://{site}/gone/{i}-{rank}.html"
                remote["pages"][url] = [404, "text/html", "<html><body>Not found</body></html>"]
                documents.append([url, None, "unavailable"])
            else:
                url = f"https://{site}/articles/{i}-{rank}.html"
                if slot.startswith("mirror") and mirror_paras is not None:
                    paras, proof = mirror_paras, mirror_proof
                else:
                    v, sh, has_proof, pos = (mirror_specs if slot.startswith("mirror")
                                             else own_specs).pop()
                    proof = None
                    if has_proof:
                        proof = (f"Sources confirm that {s} has {p} {o}. "
                                 + _text(rng, 80, 240, f"proof{i}-{rank}"))
                        entry["proof"].append(proof)
                    paras = make_page(f"w{i}-{rank}", v, sh, proof, pos)
                    if slot.startswith("mirror"):
                        mirror_paras, mirror_proof = paras, proof
                remote["pages"][url] = [200, "text/html; charset=utf-8",
                                        _page_html(f"{o} page {rank}", paras)]
                documents.append([url, "direct", None])
                if proof is not None:
                    traces.append([url, proof])
            hits.append({"link": url, "title": f"{o} result {rank}"})
        query = f"{s} {p} {o} -wikipedia"
        remote["search"][query] = hits
        expected_sessions.append({
            "statement": [s, p, o], "documents": documents, "traces": traces,
            "anchors": [], "skips": [],
        })

    rows = []
    for s, p, o, pid, oid in statements + fillers:
        obj = ({"type": "uri", "value": ENTITY_PREFIX + oid} if oid
               else {"type": "literal", "value": o})
        rows.append({
            "prop": {"type": "uri", "value": ENTITY_PREFIX + pid},
            "object": obj,
            "propLabel": {"type": "literal", "value": p},
            "objectLabel": {"type": "literal", "value": o},
            "subjectLabel": {"type": "literal", "value": s},
        })
    order = list(range(len(rows)))
    rng.shuffle(order)
    rows = [rows[k] for k in order]
    selected = [k for k in order if k < n_stmt]
    expected_sessions = [expected_sessions[k] for k in selected]
    remote["unsourced"][subject_qid] = rows
    remote["entities"][subject_qid] = _entity_record(subject_qid, subject, None, rng.randint(10**6, 10**7))
    remote["oracle"] = oracle.dump()
    return Corpus(
        workload="websearch", seed=seed,
        argv=["verify-wikidata", subject_qid],
        files={},
        remote=remote,
        expected={"sessions": expected_sessions},
        properties={"statements": n_stmt, "filler_statements": n_filler, "hits": n_slots,
                    "pdf_hits": n_pdf, "dead_hits": n_404, "pool_hits": pool_size * pool_uses,
                    "mirror_pairs": n_mirror_pairs, "proof_pages": proof_pages},
    )


# -- wikipedia -----------------------------------------------------------------


def _wikipedia(seed: int, scale: float) -> Corpus:
    rng = random.Random(f"wikipedia:{seed}")
    n_stmt = max(4, round(100 * scale))
    n_paragraphs = 10
    n_refs = 200
    n_anchor_paras = 7
    subject_qid = f"Q{rng.randint(100000, 999999)}"
    subject = f"{rng.choice(_CAPS)} {rng.choice(_CAPS)} Society"
    title = subject
    article_url = "https://en.wikipedia.org/wiki/" + title.replace(" ", "_")
    remote = _base_remote()
    oracle = _Oracle()

    # Reference list: most entries are only decoration; cited ones get a kind.
    ref_urls = [f"https://{_SITES[k % len(_SITES)]}/sources/{k}.html" for k in range(n_refs)]
    ref_kinds: dict[int, str] = {}

    # The article's shape is fixed; the seed picks texts, reference numbers and
    # which statements share an anchor, so call counts do not depend on it.
    # Each anchor paragraph cites 1-3 references of fixed kinds.
    cite_counts = [1, 2, 3, 2, 1, 2, 3][:n_anchor_paras]
    cited_numbers = rng.sample(range(1, n_refs + 1), sum(cite_counts))
    kind_cycle = ["live", "archived", "live", "dead", "live", "pdf", "dangling"]
    kinds = [kind_cycle[k % len(kind_cycle)] for k in range(len(cited_numbers))]
    anchor_refs: list[list[int]] = []
    cursor = 0
    dangling_next = n_refs + 1
    for count in cite_counts:
        numbers = []
        for _ in range(count):
            number, kind = cited_numbers[cursor], kinds[cursor]
            cursor += 1
            if kind == "dangling":
                numbers.append(dangling_next)
                dangling_next += 1
            else:
                ref_kinds[number] = kind
                numbers.append(number)
        anchor_refs.append(numbers)

    # Statements: 3 in 5 are anchored in the article, several per anchor paragraph.
    n_anchored = (3 * n_stmt) // 5
    anchor_of = _cycled(list(range(n_anchor_paras)), n_anchored, rng) + [None] * (n_stmt - n_anchored)
    rng.shuffle(anchor_of)
    statements = []
    for i in range(n_stmt):
        pred = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
        statements.append((subject, pred, f"{rng.choice(_CAPS)} {rng.choice(_CAPS)} {i:03d}"))
    by_anchor: dict[int, list[int]] = {}
    for i, a in enumerate(anchor_of):
        if a is not None:
            by_anchor.setdefault(a, []).append(i)

    # Article paragraphs: anchors carry every fact of their statements. Every
    # long paragraph is 2050-2400 characters, so a 10 000-character chunk holds
    # exactly four of them and the chunk layout is the same on every seed.
    anchor_slots = [0, 1, 3, 4, 6, 8, 9][:n_anchor_paras]
    paragraphs_html, paragraph_text = [], []
    anchor_text: dict[int, str] = {}
    filler_cites = iter(rng.sample([n for n in range(1, n_refs + 1) if n not in ref_kinds],
                                   n_paragraphs))
    for slot in range(n_paragraphs):
        if slot in anchor_slots:
            a = anchor_slots.index(slot)
            facts = " ".join(f"The society has {statements[i][1]} {statements[i][2]}."
                             for i in by_anchor.get(a, []))
            body = facts + " " + _text(rng, 2050 - len(facts), 2250 - len(facts), f"art{slot}")
            numbers = anchor_refs[a]
        else:
            a = None
            body = _text(rng, 2050, 2250, f"art{slot}")
            numbers = [next(filler_cites)]
        sups = "".join(
            f"<sup class=\"reference\" id=\"cite_ref-{n}\"><a href=\"#cite_note-{n}\">[{n}]</a></sup>"
            for n in numbers)
        text = body + "".join(f"[{n}]" for n in numbers)
        paragraphs_html.append(f"<p>{body}{sups}</p>")
        paragraph_text.append(text)
        oracle.known.add(text)
        if a is not None:
            anchor_text[a] = text
        # a short caption paragraph now and then (below the 100-char floor)
        if slot % 5 == 4:
            caption = f"Figure {slot}: {rng.choice(_WORDS)}."
            paragraphs_html.append(f"<p>{caption}</p>")
            oracle.known.add(caption)

    # Source pages of cited references: a lead paragraph, then proofs for a
    # third of the statements citing the source (by their place in the
    # anchor's list), then a closing paragraph and a short date line.
    proofs_in: dict[int, list[str]] = {}
    for a, numbers in enumerate(anchor_refs):
        for c, n in enumerate(numbers):
            if ref_kinds.get(n) not in ("live", "archived"):
                continue
            for j, i in enumerate(by_anchor.get(a, [])):
                if (j + c) % 3 == 0:
                    s, p, o = statements[i]
                    proof = (f"Records show that {s} has {p} {o}. "
                             + _text(rng, 80, 200, f"src{n}-{i}"))
                    proofs_in.setdefault(n, []).append(proof)
                    oracle.statement(triple_key(s, p, o))["proof"].append(proof)
    source_paras: dict[int, list[str]] = {}
    for n, kind in sorted(ref_kinds.items()):
        url = ref_urls[n - 1]
        if kind in ("live", "archived"):
            paras = ([_text(rng, 120, 380, f"s{n}-lead")] + proofs_in.get(n, [])
                     + [_text(rng, 120, 380, f"s{n}-end"), f"Updated {n}."])
            oracle.known.update(paras)
            source_paras[n] = paras
            html = _page_html(f"Source {n}", paras)
            if kind == "live":
                remote["pages"][url] = [200, "text/html; charset=utf-8", html]
            else:
                snap = f"http://web.archive.org/web/20190101000000/{url}"
                remote["pages"][url] = [404, "text/html", "<html><body>Gone</body></html>"]
                remote["archive"][url] = snap
                remote["pages"][snap] = [200, "text/html; charset=utf-8",
                                         _page_html(f"Source {n}", paras, WAYBACK_TOOLBAR)]
        elif kind == "dead":
            remote["pages"][url] = [410, "text/html", "<html><body>Gone</body></html>"]
            remote["archive"][url] = None
        elif kind == "pdf":
            remote["pages"][url] = [200, "application/pdf", _pdf()]

    refs_html = "".join(
        f"<li id=\"cite_note-{k + 1}\"><span class=\"reference-text\">{rng.choice(_CAPS)} "
        f"({1950 + k % 70}). "
        f"<a rel=\"nofollow\" class=\"external text\" href=\"{ref_urls[k]}\">"
        f"{_SITES[k % len(_SITES)]}</a>. Retrieved 2023.</span></li>"
        for k in range(n_refs))
    article = (
        "<!DOCTYPE html>\n<html><head><title>" + title + " - Wikipedia</title></head><body>"
        "<div id=\"mw-content-text\"><table class=\"infobox\"><tr><td>" + subject
        + "</td></tr></table>\n" + "\n".join(paragraphs_html)
        + "\n<h2>References</h2>\n<div class=\"reflist\"><ol class=\"references\">"
        + refs_html + "</ol></div></div></body></html>\n"
    )
    remote["pages"][article_url] = [200, "text/html; charset=UTF-8", article]
    remote["entities"][subject_qid] = _entity_record(subject_qid, subject, title, rng.randint(10**6, 10**7))
    remote["revisions"][title] = rng.randint(10**8, 10**9)

    expected_sessions = []
    for i, (s, p, o) in enumerate(statements):
        key = triple_key(s, p, o)
        entry = oracle.statement(key)
        documents = [[article_url, "direct", None]]
        traces, anchors, skips = [], [], []
        a = anchor_of[i]
        if a is not None:
            entry["hint"].append(anchor_text[a])
            entry["proof"].append(anchor_text[a])
            anchors.append([anchor_text[a], anchor_refs[a]])
            for n in anchor_refs[a]:
                if n > n_refs:
                    skips.append(["dangling-reference", str(n)])
                    continue
                url, kind = ref_urls[n - 1], ref_kinds[n]
                if kind in ("live", "archived"):
                    source = "direct" if kind == "live" else "web-archive"
                    documents.append([url, source, None])
                    trace_url = url if kind == "live" else remote["archive"][url]
                    mine = [q for q in source_paras[n] if q in entry["proof"]]
                    if mine:
                        traces.append([trace_url, mine[0]])
                else:
                    documents.append([url, None, "unavailable" if kind == "dead" else "unsupported-media"])
        expected_sessions.append({
            "statement": [s, p, o], "documents": documents, "traces": traces,
            "anchors": anchors, "skips": skips,
        })
    remote["oracle"] = oracle.dump()
    tsv = "".join(f"{s}\t{p}\t{o}\n" for s, p, o in statements)
    return Corpus(
        workload="wikipedia", seed=seed,
        argv=["verify-wikipedia", subject_qid, "--statements", "inputs/statements.tsv"],
        files={"inputs/statements.tsv": tsv},
        remote=remote,
        expected={"sessions": expected_sessions},
        properties={"statements": n_stmt, "anchored_statements": n_anchored,
                    "article_chars": sum(len(t) for t in paragraph_text),
                    "article_bytes": len(article.encode("utf-8")), "references": n_refs,
                    "cited_kinds": {k: kinds.count(k) for k in sorted(set(kinds))}},
    )


# -- evaluate-triples ------------------------------------------------------------

_PAIRS = [
    ("ChemicalEntity", "DiseaseOrPhenotypicFeature"),
    ("ChemicalEntity", "GeneOrGeneProduct"),
    ("GeneOrGeneProduct", "DiseaseOrPhenotypicFeature"),
    ("GeneOrGeneProduct", "GeneOrGeneProduct"),
    ("SequenceVariant", "DiseaseOrPhenotypicFeature"),
]
_RELATIONS = ("Positive_Correlation", "Negative_Correlation")
# Model answers per gold class: exact shares of a, b, c and unparseable text.
_ANSWER_MIX = {
    "supported": {"a": 12, "b": 4, "c": 3, "u": 1},
    "not_supported": {"a": 2, "b": 4, "c": 13, "u": 1},
}


def _evaluate(seed: int, scale: float) -> Corpus:
    rng = random.Random(f"evaluate-triples:{seed}")
    n = max(40, round(800 * scale))
    n -= n % 40
    remote = _base_remote()
    oracle = _Oracle()
    golds = _exact({"supported": n // 2, "not_supported": n // 2}, rng)
    answers = {g: _cycled([k for k, c in _ANSWER_MIX[g].items() for _ in range(c)],
                          golds.count(g), rng) for g in _ANSWER_MIX}
    cells = _cycled([(r, p) for r in _RELATIONS for p in _PAIRS], n, rng)
    lines, expected = [], {}
    used = {"supported": 0, "not_supported": 0}
    for i in range(n):
        gold = golds[i]
        relation, pair = cells[i]
        letter = answers[gold][used[gold]]
        used[gold] += 1
        subj = f"{rng.choice(_CAPS)}{rng.choice(_WORDS)}-{i}"
        obj = f"{rng.choice(_CAPS)} {rng.choice(_WORDS)} {i}"
        pred = "positively correlated with" if relation == _RELATIONS[0] else "negatively correlated with"
        text = _text(rng, 900, 1700, f"abs{i}")
        fact = f"{subj} {pred} {obj}"
        raw = rng.choice(VERDICT_TEXT[letter]).format(fact=fact)
        oracle.answers[text] = [triple_key(subj, pred, obj), raw]
        lines.append(json.dumps({
            "statement": {"subject": subj, "predicate": pred, "object": obj},
            "grounding_text": text, "gold": gold, "concept_pair": list(pair),
            "relation_type": relation,
            "origin": "ground_truth" if gold == "supported" else "corrupted",
            "doc_id": f"PMID{30000000 + i}", "tail_type": pair[1],
        }, ensure_ascii=False))
        predicted = letter == "a"
        cell = expected.setdefault(relation, {}).setdefault(
            "|".join(pair), {"tp": 0, "tn": 0, "fp": 0, "fn": 0})
        if gold == "supported":
            cell["tp" if predicted else "fn"] += 1
        else:
            cell["fp" if predicted else "tn"] += 1
    remote["oracle"] = oracle.dump()
    return Corpus(
        workload="evaluate-triples", seed=seed,
        argv=["evaluate", "--task", "triples", "--dataset", "inputs/dataset.jsonl"],
        files={"inputs/dataset.jsonl": "\n".join(lines) + "\n"},
        remote=remote,
        expected={"tables": expected},
        properties={"instances": n, "answer_mix": _ANSWER_MIX},
    )


def generate(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    """Build the corpus of one workload; scale shrinks it for quick self-tests."""
    generators = {"websearch": _websearch, "wikipedia": _wikipedia, "evaluate-triples": _evaluate}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return generators[workload](seed, scale)
