"""Per-layer metrics: which public functions the traced run wraps, and how
their spans and the fake's counters become layer numbers.

Spans are recorded from the benchmark's own files, around calls into each
module's public functions; nothing inside the program is edited. A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

from collections import defaultdict

# (module:qualified name, span name, what to measure from the call)
TARGETS = [
    ("verifier:Verifier.verify_via_web_search", "verifier.session", "session"),
    ("verifier:Verifier.verify_via_wikipedia", "verifier.session", "session"),
    ("verifier:parse_wikipedia_article", "verifier.article_parse", "none"),
    ("verifier:resolve_citations", "verifier.resolve_citations", "none"),
    ("llm:LlmGateway.complete", "llm.gateway", "none"),
    ("llm:ReplicateHttpProvider.complete", "llm.provider", "none"),
    ("llm:ResponseLog.append", "llm.response_log", "none"),
    ("llm:parse_option", "llm.parse", "unparseable"),
    ("llm:parse_nli_label", "llm.parse", "unparseable"),
    ("llm:extract_justification", "llm.parse", "none"),
    ("prompting:render_rdf_prompt", "prompting.render", "result_len"),
    ("prompting:render_nli_prompt", "prompting.render", "result_len"),
    ("net:LiveTransport.send", "net.transport", "none"),
    ("net:RequestGate.__enter__", "net.gate", "none"),
    ("retrieval:GoogleSearchProvider.search", "retrieval.search", "none"),
    ("retrieval:DocumentFetcher.fetch_raw", "retrieval.fetch", "none"),
    ("wikidata:WikidataClient.fetch_unsourced_statements", "wikidata.client", "none"),
    ("wikidata:WikidataClient.filter_mandatory_reference", "wikidata.client", "none"),
    ("wikidata:WikidataClient.entity_info", "wikidata.client", "none"),
    ("wikidata:WikidataClient.wikipedia_revision", "wikidata.client", "none"),
    ("html_text:capture_elements", "html_text", "arg0_len"),
    ("html_text:extract_paragraphs", "html_text", "arg0_len"),
    ("html_text:extract_paragraph_elements", "html_text", "arg0_len"),
    ("html_text:extract_links", "html_text", "arg0_len"),
    ("html_text:strip_archive_chrome", "html_text", "arg0_len"),
    ("reporting:build_run_xml", "reporting.build", "none"),
    ("reporting:serialize_xml", "reporting.serialize", "result_len"),
    ("reporting:render_html", "reporting.render", "none"),
    ("reporting:validate_report", "reporting.validate", "none"),
    ("datasets:read_instances", "datasets.read", "none"),
    ("evaluation:binary_confusion", "evaluation", "none"),
    ("evaluation:micro_average", "evaluation", "none"),
    ("evaluation:compute_metrics", "evaluation", "none"),
    ("evaluation:binary_table_rows", "evaluation", "none"),
    ("evaluation:format_binary_table", "evaluation", "none"),
]


def _session(args, result, failed):
    if failed:
        return [0, 0, 0]
    skipped = sum(1 for record in result.documents if record.skip is not None)
    return [result.paragraphs_queried, len(result.traces), skipped]


def _unparseable(args, result, failed):
    if failed:
        return 0
    return int(getattr(result, "kind", result).value == "unparseable")


MEASURES = {
    "none": lambda args, result, failed: 0,
    "arg0_len": lambda args, result, failed: len(args[0]) if args else 0,
    "result_len": lambda args, result, failed: 0 if failed else len(result),
    "session": _session,
    "unparseable": _unparseable,
}

# Spans each workload must produce; a missing one means a refactor moved the
# layer out from under the tracer, which must stop the benchmark.
REQUIRED = {
    "websearch": {"verifier.session", "llm.gateway", "llm.provider", "llm.response_log",
                  "llm.parse", "prompting.render", "net.transport", "net.gate",
                  "retrieval.search", "retrieval.fetch", "wikidata.client", "html_text",
                  "reporting.build", "reporting.serialize", "reporting.render",
                  "reporting.validate"},
    "wikipedia": {"verifier.session", "verifier.article_parse", "verifier.resolve_citations",
                  "llm.gateway", "llm.provider", "llm.response_log", "llm.parse",
                  "prompting.render", "net.transport", "net.gate", "retrieval.fetch",
                  "wikidata.client", "html_text", "reporting.build", "reporting.serialize",
                  "reporting.render", "reporting.validate"},
    "evaluate-triples": {"llm.gateway", "llm.provider", "llm.response_log", "llm.parse",
                         "prompting.render", "net.transport", "net.gate", "datasets.read",
                         "evaluation"},
}

# name -> (unit, better); the order is the order of the printed table.
METRICS = {
    "llm.requests": ("count", "lower"),
    "llm.remote_wait_s": ("s", "lower"),
    "llm.duplicate_share": ("ratio", "lower"),
    "llm.gateway_self_s": ("s", "lower"),
    "llm.parse_s": ("s", "lower"),
    "llm.parse.calls": ("count", "lower"),
    "llm.unparseable": ("count", "lower"),
    "llm.response_log_s": ("s", "lower"),
    "prompting.render_s": ("s", "lower"),
    "prompting.prompt_chars": ("chars", "lower"),
    "net.requests": ("count", "lower"),
    "net.remote_wait_s": ("s", "lower"),
    "net.self_s": ("s", "lower"),
    "net.gate_wait_s": ("s", "lower"),
    "net.failed": ("count", "lower"),
    "net.repeat_share": ("ratio", "lower"),
    "retrieval.search.requests": ("count", "lower"),
    "retrieval.fetch.requests": ("count", "lower"),
    "retrieval.fetch_s": ("s", "lower"),
    "retrieval.fetch.self_s": ("s", "lower"),
    "retrieval.fetch.skipped": ("count", "lower"),
    "retrieval.archive.lookups": ("count", "lower"),
    "retrieval.fetch.repeat_share": ("ratio", "lower"),
    "wikidata.requests": ("count", "lower"),
    "wikidata.wait_s": ("s", "lower"),
    "html_text.calls": ("count", "lower"),
    "html_text.s": ("s", "lower"),
    "html_text.bytes": ("bytes", "lower"),
    "verifier.article_parse.calls": ("count", "lower"),
    "verifier.article_parse_s": ("s", "lower"),
    "verifier.resolve_citations.calls": ("count", "lower"),
    "verifier.resolve_citations_s": ("s", "lower"),
    "verifier.sessions": ("count", "higher"),
    "verifier.self_s": ("s", "lower"),
    "verifier.paragraphs_queried": ("count", "lower"),
    "verifier.traces": ("count", "higher"),
    "verifier.traces_per_llm_call": ("ratio", "higher"),
    "reporting.build_s": ("s", "lower"),
    "reporting.serialize_s": ("s", "lower"),
    "reporting.render_s": ("s", "lower"),
    "reporting.validate.calls": ("count", "lower"),
    "reporting.xml_bytes": ("bytes", "lower"),
    "datasets.read_s": ("s", "lower"),
    "evaluation.s": ("s", "lower"),
    "cli.residual_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def aggregate(stats: dict) -> dict[str, float]:
    """Layer metrics of one traced child (all but ``trace.overhead_s``)."""
    spans = stats["spans"]
    kinds = stats["kinds"]
    first = stats["first_request"]
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    measured: dict[str, float] = defaultdict(float)
    child_sum = [0.0] * len(spans)
    names = [s[0] for s in spans]
    for k, (name, start, end, parent, item, measure) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += end - start
    session_parts = [0, 0, 0]
    html_top = [0, 0.0, 0]
    roots_after_first = 0.0
    for k, (name, start, end, parent, item, measure) in enumerate(spans):
        duration = end - start
        count[name] += 1
        total[name] += duration
        self_time[name] += duration - child_sum[k]
        if name == "verifier.session":
            session_parts = [a + b for a, b in zip(session_parts, measure)]
        elif name == "html_text" and (parent < 0 or names[parent] != "html_text"):
            html_top[0] += 1
            html_top[1] += duration
            html_top[2] += measure
        elif isinstance(measure, (int, float)):
            measured[name] += measure
        if parent < 0 and first is not None and end > first:
            roots_after_first += end - max(start, first)

    def kind(name: str, key: str) -> float:
        return kinds.get(name, {}).get(key, 0)

    remote_kinds = [k for k in kinds if k != "llm"]
    remote_requests = sum(kind(k, "requests") for k in remote_kinds)
    llm_requests = kind("llm", "requests")
    ended = stats["ended"] if stats["ended"] is not None else first
    return {
        "llm.requests": llm_requests,
        "llm.remote_wait_s": kind("llm", "wait_s"),
        "llm.duplicate_share": _share(kind("llm", "repeats"), llm_requests),
        "llm.gateway_self_s": self_time["llm.gateway"],
        "llm.parse_s": total["llm.parse"],
        "llm.parse.calls": count["llm.parse"],
        "llm.unparseable": measured["llm.parse"],
        "llm.response_log_s": total["llm.response_log"],
        "prompting.render_s": total["prompting.render"],
        "prompting.prompt_chars": measured["prompting.render"],
        "net.requests": sum(kind(k, "requests") for k in kinds),
        "net.remote_wait_s": sum(kind(k, "wait_s") for k in kinds),
        "net.self_s": self_time["net.transport"],
        "net.gate_wait_s": total["net.gate"],
        "net.failed": sum(kind(k, "failed") for k in kinds),
        "net.repeat_share": _share(sum(kind(k, "repeats") for k in remote_kinds), remote_requests),
        "retrieval.search.requests": count["retrieval.search"],
        "retrieval.fetch.requests": count["retrieval.fetch"],
        "retrieval.fetch_s": total["retrieval.fetch"],
        "retrieval.fetch.self_s": self_time["retrieval.fetch"],
        "retrieval.fetch.skipped": session_parts[2],
        "retrieval.archive.lookups": kind("archive", "requests"),
        "retrieval.fetch.repeat_share": _share(kind("page", "repeats"), kind("page", "requests")),
        "wikidata.requests": kind("sparql", "requests") + kind("wikiapi", "requests"),
        "wikidata.wait_s": kind("sparql", "wait_s") + kind("wikiapi", "wait_s"),
        "html_text.calls": html_top[0],
        "html_text.s": html_top[1],
        "html_text.bytes": html_top[2],
        "verifier.article_parse.calls": count["verifier.article_parse"],
        "verifier.article_parse_s": total["verifier.article_parse"],
        "verifier.resolve_citations.calls": count["verifier.resolve_citations"],
        "verifier.resolve_citations_s": total["verifier.resolve_citations"],
        "verifier.sessions": count["verifier.session"],
        "verifier.self_s": self_time["verifier.session"],
        "verifier.paragraphs_queried": session_parts[0],
        "verifier.traces": session_parts[1],
        "verifier.traces_per_llm_call": _share(session_parts[1], llm_requests),
        "reporting.build_s": total["reporting.build"],
        "reporting.serialize_s": total["reporting.serialize"],
        "reporting.render_s": total["reporting.render"],
        "reporting.validate.calls": count["reporting.validate"],
        "reporting.xml_bytes": measured["reporting.serialize"],
        "datasets.read_s": total["datasets.read"],
        "evaluation.s": sum(e - s for n, s, e, p, _, _ in spans
                            if n == "evaluation" and (p < 0 or names[p] != "evaluation")),
        "cli.residual_s": (ended - first) - roots_after_first if first is not None else 0.0,
        "trace.spans": len(spans),
    }


def missing_layers(workload: str, stats: dict) -> list[str]:
    seen = {span[0] for span in stats.get("spans", [])}
    return sorted(REQUIRED[workload] - seen)
