"""Output gate: a run's outputs must match the generator's ground truth, and
every run of a commit must produce the same bytes after one normalisation.

The normalisation masks the XML ``<duration-ms>`` values, which time the
injected wait, and reads ``responses.jsonl`` as a multiset of records without
their wall-clock ``timestamp`` and ``latency_ms`` fields. Nothing else is
masked.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from xml.etree import ElementTree as ET

_DURATION = re.compile(rb"<duration-ms>\d+</duration-ms>")
_CLOCK_FIELDS = ("timestamp", "latency_ms")


class GateFailure(Exception):
    """The program's output differs from the ground truth or from another run."""


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def normalise(outputs: dict[str, bytes]) -> dict[str, bytes]:
    normalised = {}
    for name, data in outputs.items():
        if name.endswith(".xml"):
            data = _DURATION.sub(b"<duration-ms>#</duration-ms>", data)
        elif name.endswith("responses.jsonl"):
            records = []
            for line in data.decode("utf-8").splitlines():
                if line.strip():
                    record = json.loads(line)
                    for key in _CLOCK_FIELDS:
                        record.pop(key, None)
                    records.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
            data = ("\n".join(sorted(records)) + "\n").encode("utf-8")
        normalised[name] = data
    return normalised


def digest(normalised: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(normalised):
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(normalised[name]).digest())
    return h.hexdigest()


def first_difference(a: dict[str, bytes], b: dict[str, bytes]) -> str:
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            return f"{name}: present in only one run"
        if a[name] != b[name]:
            x, y = a[name], b[name]
            at = next((k for k in range(min(len(x), len(y))) if x[k] != y[k]), min(len(x), len(y)))
            return f"{name}: first differs at byte {at}: {x[at:at + 60]!r} vs {y[at:at + 60]!r}"
    return ""


# -- ground truth ------------------------------------------------------------------


def _sessions(xml: bytes) -> list[dict]:
    root = ET.fromstring(xml)
    out = []
    for node in root.findall("session"):
        stmt = node.find("statement")
        out.append({
            "statement": [stmt.findtext("subject"), stmt.findtext("predicate"),
                          stmt.findtext("object")],
            "documents": [[d.get("url"), d.get("source"), d.get("skip-kind")]
                          for d in node.findall("documents/document")],
            "traces": [[t.findtext("document-url"), t.findtext("paragraph")]
                       for t in node.findall("traces/trace")],
            "anchors": [[a.text, [int(n) for n in (a.get("refs") or "").split()]]
                        for a in node.findall("wikipedia-anchors/anchor")],
            "skips": [[s.get("kind"), s.get("target")] for s in node.findall("skips/skip")],
        })
    return out


def _tables(results: bytes) -> dict:
    payload = json.loads(results)
    tables = {}
    for relation, rows in payload.items():
        if relation == "overall":
            continue
        for row in rows:
            if row["concept_1"] == "Average (micro)":
                continue
            key = f"{row['concept_1']}|{row['concept_2']}"
            tables.setdefault(relation, {})[key] = {k: row[k] for k in ("tp", "tn", "fp", "fn")}
    return tables


def completed_items(workload: str, outputs: dict[str, bytes]) -> int:
    """Items with a completed result in the output (0 when there is no report)."""
    if workload == "evaluate-triples":
        if "results.json" not in outputs:
            return 0
        overall = json.loads(outputs["results.json"])["overall"]
        return sum(overall[k] for k in ("tp", "tn", "fp", "fn"))
    reports = [data for name, data in outputs.items() if name.endswith(".xml")]
    return len(_sessions(reports[0])) if reports else 0


def check_ground_truth(workload: str, expected: dict, outputs: dict[str, bytes]) -> None:
    if workload == "evaluate-triples":
        if "results.json" not in outputs:
            raise GateFailure("no results.json was written")
        got = _tables(outputs["results.json"])
        if got != expected["tables"]:
            for relation in sorted(set(got) | set(expected["tables"])):
                if got.get(relation) != expected["tables"].get(relation):
                    raise GateFailure(f"confusion table of {relation} differs: got "
                                      f"{got.get(relation)}, expected {expected['tables'].get(relation)}")
        return
    reports = [data for name, data in outputs.items() if name.endswith(".xml")]
    if len(reports) != 1:
        raise GateFailure(f"expected one XML report, found {len(reports)}")
    got = _sessions(reports[0])
    want = expected["sessions"]
    if len(got) != len(want):
        raise GateFailure(f"report holds {len(got)} sessions, expected {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        for field in ("statement", "documents", "traces", "anchors", "skips"):
            if g[field] != w[field]:
                raise GateFailure(f"session {k} ({' / '.join(w['statement'])}): {field} differ: "
                                  f"got {g[field]!r}, expected {w[field]!r}")


def skip_kinds(outputs: dict[str, bytes]) -> dict[str, int]:
    """How often each skip kind occurs in a verify report (documents and skips)."""
    counts: dict[str, int] = {}
    for name, data in outputs.items():
        if name.endswith(".xml"):
            for session in _sessions(data):
                kinds = [d[2] for d in session["documents"] if d[2]]
                kinds += [s[0] for s in session["skips"]]
                for kind in kinds:
                    counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))
