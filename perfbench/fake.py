"""The fake remote side: answers every request from a corpus, with a modelled latency.

This module knows nothing of ``requests``; ``child.py`` wraps it in a
transport adapter. A request the corpus does not know is an error, never a
guess, so a changed request shape stops the benchmark instead of skewing it.
"""

from __future__ import annotations

import hashlib
import json
import re
import zlib
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

import corpus as corpus_mod

# Latency model, in milliseconds. Each remote kind has its own base delay; an
# LLM call adds a term per KB of prompt; a fixed share of requests, picked by
# hashing (tail key, request), is TAIL_FACTOR times slower. The ratios follow a
# live run (LLM >> SPARQL ~ archive lookup > page fetch > search > wiki API);
# the scale makes the mean wait per request about ten times the program's own
# CPU per request at zero latency (websearch and evaluate-triples, 2-core
# x86-64 container), while a 100-item command still ends in about 15 s.
BASE_MS = {
    "llm": 7.0,
    "sparql": 4.5,
    "archive": 4.5,
    "page": 3.0,
    "search": 2.0,
    "wikiapi": 1.5,
}
LLM_MS_PER_KB = 0.3
TAIL_SHARE = 0.15
TAIL_FACTOR = 3.0

_PROMPT = re.compile(
    r'RDF for verification: \["(.*?)" - "(.*?)" - "(.*?)"\]\. '
    r'Snippet to verify from: "(.*)" Please, choose the correct option',
    re.DOTALL,
)


class UnknownRequest(Exception):
    """The fake received a request that its corpus cannot answer."""


@dataclass
class Reply:
    status: int
    content_type: str
    body: bytes
    kind: str
    delay_s: float
    identity: bytes


def latency_model() -> dict:
    return {"base_ms": BASE_MS, "llm_ms_per_kb_of_prompt": LLM_MS_PER_KB,
            "tail_share": TAIL_SHARE, "tail_factor": TAIL_FACTOR}


class FakeRemote:
    """Answers requests from a corpus' ``remote`` block."""

    def __init__(self, remote: dict, tail_key: str, latency_scale: float = 1.0):
        self._tail_key = tail_key.encode("utf-8")
        self._scale = latency_scale
        self._pages = {url: (status, ctype, body.encode("utf-8"))
                       for url, (status, ctype, body) in remote["pages"].items()}
        self._search = remote["search"]
        self._entities = remote["entities"]
        self._revisions = remote["revisions"]
        self._archive = remote["archive"]
        self._unsourced = remote["unsourced"]
        self._constrained = set(remote["constrained"])
        oracle = remote["oracle"]
        self._known = set(oracle["known"])
        self._statements = {key: (set(v["proof"]), set(v["hint"]))
                            for key, v in oracle["statements"].items()}
        self._answers = oracle["answers"]

    # -- dispatch -----------------------------------------------------------------

    def handle(self, method: str, url: str, body: bytes | None) -> Reply:
        parts = urlsplit(url)
        base = f"{parts.scheme}://{parts.netloc}{parts.path}"
        params = dict(parse_qsl(parts.query, keep_blank_values=True))
        identity = f"{method} {url}\n".encode("utf-8") + (body or b"")
        if method == "POST" and parts.netloc == corpus_mod.LLM_HOST:
            prompt, payload = self._llm(body)
            return self._reply(201, "application/json", payload, "llm", identity,
                               len(prompt.encode("utf-8")) / 1024)
        if method != "GET":
            raise UnknownRequest(f"{method} {url}")
        if base == corpus_mod.SPARQL_URL:
            return self._reply(200, "application/sparql-results+json",
                               self._sparql(params.get("query", "")), "sparql", identity)
        if base == corpus_mod.WIKIDATA_API and params.get("action") == "wbgetentities":
            record = self._entities.get(params.get("ids"))
            if record is None:
                raise UnknownRequest(f"entity {params.get('ids')}")
            payload = {"entities": {params["ids"]: record}, "success": 1}
            return self._reply(200, "application/json", payload, "wikiapi", identity)
        if base == corpus_mod.WIKIPEDIA_API and params.get("action") == "query":
            title = params.get("titles")
            if title not in self._revisions:
                raise UnknownRequest(f"revision of {title!r}")
            page = {"pageid": 4242, "ns": 0, "title": title, "lastrevid": self._revisions[title]}
            return self._reply(200, "application/json", {"query": {"pages": {"4242": page}}},
                               "wikiapi", identity)
        if base == corpus_mod.SEARCH_URL:
            query = params.get("q")
            if query not in self._search or not params.get("key") or not params.get("cx"):
                raise UnknownRequest(f"search {query!r}")
            hits = self._search[query][: int(params.get("num", "10"))]
            payload = {"kind": "customsearch#search",
                       "items": [dict(h, kind="customsearch#result") for h in hits]}
            return self._reply(200, "application/json", payload, "search", identity)
        if base == corpus_mod.ARCHIVE_API:
            target = params.get("url")
            if target not in self._archive:
                raise UnknownRequest(f"archive lookup of {target!r}")
            snapshot = self._archive[target]
            closest = ({"closest": {"available": True, "url": snapshot, "status": "200",
                                    "timestamp": "20190101000000"}} if snapshot else {})
            return self._reply(200, "application/json",
                               {"url": target, "archived_snapshots": closest}, "archive", identity)
        if parts.query or url not in self._pages:
            raise UnknownRequest(f"GET {url}")
        status, ctype, page = self._pages[url]
        return self._reply(status, ctype, page, "page", identity)

    def _reply(self, status, ctype, payload, kind, identity, prompt_kb: float = 0.0) -> Reply:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        delay_ms = BASE_MS[kind] + (LLM_MS_PER_KB * prompt_kb if kind == "llm" else 0.0)
        ticket = hashlib.sha256(self._tail_key + b"\n" + identity).digest()
        if int.from_bytes(ticket[:8], "big") < TAIL_SHARE * 2**64:
            delay_ms *= TAIL_FACTOR
        return Reply(status, ctype, body, kind, self._scale * delay_ms / 1000, identity)

    # -- handlers -------------------------------------------------------------------

    def _sparql(self, query: str) -> dict:
        if "FILTER NOT EXISTS" in query:
            match = re.search(r"wd:(Q\d+) \?claim", query)
            if not match or match.group(1) not in self._unsourced:
                raise UnknownRequest("unsourced-statements query for an unknown subject")
            rows = self._unsourced[match.group(1)]
        elif "VALUES ?prop" in query:
            values = query.split("VALUES ?prop", 1)[1].split("}", 1)[0]
            asked = re.findall(r"wd:(P\d+)", values)
            if not asked:
                raise UnknownRequest("constraint query without properties")
            rows = [{"prop": {"type": "uri", "value": corpus_mod.ENTITY_PREFIX + pid}}
                    for pid in sorted(set(asked) & self._constrained)]
        else:
            raise UnknownRequest(f"SPARQL query {query[:80]!r}")
        return {"head": {"vars": []}, "results": {"bindings": rows}}

    def _llm(self, body: bytes | None) -> tuple[str, dict]:
        try:
            prompt = json.loads(body or b"")["input"]["prompt"]
        except (ValueError, KeyError, TypeError) as exc:
            raise UnknownRequest(f"LLM request body: {exc}") from None
        match = _PROMPT.search(prompt)
        if not match:
            raise UnknownRequest(f"LLM prompt {prompt[:80]!r}")
        subject, predicate, obj, snippet = match.groups()
        key = corpus_mod.triple_key(subject, predicate, obj)
        if snippet in self._answers:
            owner, raw = self._answers[snippet]
            if owner != key:
                raise UnknownRequest(f"grounding text paired with another statement: {key!r}")
        elif key in self._statements:
            lines = snippet.split("\n")
            if not all(line in self._known for line in lines):
                raise UnknownRequest(f"snippet not in the corpus: {snippet[:80]!r}")
            proofs, hints = self._statements[key]
            if snippet in proofs:
                letter = "a"
            elif any(line in proofs or line in hints for line in lines):
                letter = "b"
            else:
                letter = "c"
            variants = corpus_mod.VERDICT_TEXT[letter]
            pick = zlib.crc32((key + snippet).encode("utf-8")) % len(variants)
            raw = variants[pick].format(fact=f"{subject} {predicate} {obj}")
        else:
            raise UnknownRequest(f"statement not in the corpus: {key!r}")
        third = max(1, len(raw) // 3)
        tokens = [raw[:third], raw[third:2 * third], raw[2 * third:]]
        prediction = {"id": f"p{zlib.crc32(raw.encode('utf-8')):08x}", "status": "succeeded",
                      "output": [t for t in tokens if t]}
        return prompt, prediction
