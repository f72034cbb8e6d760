"""Command-line entry point wiring statement selection, verification,
dataset construction, evaluation, and report generation.

Configuration precedence is flags > environment > config file > defaults.
Replay mode swaps every outbound dependency for recorded fixtures, so a
replayed run performs no network access at all.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import typing
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import click

from . import __version__, datasets, evaluation, reporting
from .errors import (SHAPE_ERRORS, KgVerifyError, MalformedInput, NoSitelink, json_value,
                     malformed, read_input)
from .llm import (
    LlmGateway,
    LlmParams,
    ReplicateHttpProvider,
    ResponseLog,
    parse_nli_label,
    parse_option,
)
from .model import DecisionMode, Statement, statements_from_text, verdict_to_binary
from .net import DEFAULT_REQUESTS_IN_FLIGHT, LiveTransport, RequestGate, atomic_write
from .prompting import (
    NLI_TEMPLATE,
    RDF_TEMPLATE,
    render_nli_prompt,
    render_rdf_prompt,
    template_digest,
)
from .retrieval import DEFAULT_HIT_LIMIT, MAX_HIT_LIMIT, DocumentFetcher, GoogleSearchProvider
from .store import FixtureStore
from .verifier import VerificationSession, Verifier, WorkerPool, map_in_order
from .wikidata import (
    WIKIDATA_API,
    WIKIDATA_SPARQL_ENDPOINT,
    WIKIPEDIA_API,
    EntityId,
    EntityInfo,
    WikidataClient,
    wikipedia_permalink,
)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
# Fields naming a file system path, which may be any name the system accepts
_PATH_FIELDS = frozenset({"out_dir", "fixtures_dir", "cache_dir"})


def _parse_instant(text: str) -> datetime:
    """An ISO 8601 instant, UTC if it names no zone; ``ValueError`` if it is none."""
    instant = datetime.fromisoformat(str(text).replace("Z", "+00:00"))
    return instant if instant.tzinfo else instant.replace(tzinfo=timezone.utc)


@dataclass
class RunConfig:
    sparql_endpoint: str = WIKIDATA_SPARQL_ENDPOINT
    wikidata_api: str = WIKIDATA_API
    wikipedia_api: str = WIKIPEDIA_API
    model: str = LlmParams().model
    decision_mode: str = "precision"
    replay: bool = False
    fixtures_dir: str | None = None
    cache_dir: str | None = None
    cache_ttl_seconds: float = 7 * 24 * 3600.0
    out_dir: str = "out"
    max_statements: int | None = None
    hit_limit: int = DEFAULT_HIT_LIMIT
    llm_context_tokens: int | None = None
    fixed_clock: str | None = None
    corruption_seed: int = 42
    sample_seed: int = 42
    example_seed: int = 42
    llm_requests: int = DEFAULT_REQUESTS_IN_FLIGHT

    _ENV_PREFIX = "KGVERIFY_"

    @classmethod
    def resolve(cls, options: dict) -> "RunConfig":
        """The config for a command's options; a ``config_file`` option names the file."""
        config_file = options.pop("config_file", None)
        # each field's type is its annotation's, less None: int | None -> int
        hints = typing.get_type_hints(cls)
        kinds = {name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
                 for name, hint in hints.items()}
        values: dict = {}
        if config_file:
            try:  # {**...}: a JSON object, not a list or a number
                values.update({**json_value(Path(config_file).read_text(encoding="utf-8-sig"))})
            except (OSError, *SHAPE_ERRORS) as exc:
                raise click.UsageError(f"cannot read config file {config_file}: {exc}")
        for name in kinds:
            env_key = cls._ENV_PREFIX + name.upper()
            if env_key in os.environ:
                values[name] = os.environ[env_key]
        values.update((key, value) for key, value in options.items() if value is not None)
        unknown = set(values) - set(kinds)
        if unknown:
            raise click.UsageError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
        config = cls()
        for key, value in values.items():
            kind = kinds[key]
            with malformed(click.UsageError, f"bad value for {key}", value):
                if value is None:
                    if type(None) not in typing.get_args(hints[key]):
                        raise TypeError("not optional")
                elif kind is bool and isinstance(value, str):
                    if value.lower() not in _BOOLEANS:
                        raise ValueError("not one of 1/true/yes/on or 0/false/no/off")
                    value = _BOOLEANS[value.lower()]
                elif kind in (bool, str) and not isinstance(value, kind):
                    # a JSON value of another type
                    raise TypeError("not a string" if kind is str else "not a boolean")
                elif kind in (int, float):  # a string is parsed; a JSON number must be one
                    if isinstance(value, bool) or not isinstance(
                            value, (str, int) if kind is int else (str, int, float)):
                        raise TypeError("not an integer" if kind is int else "not a number")
                    value = kind(value)
                elif key == "fixed_clock" and value:
                    _parse_instant(value)  # the runtime parses it again
                if isinstance(value, str) and key not in _PATH_FIELDS:
                    # argv and the environment hold undecodable bytes as lone surrogates,
                    # which no request, prompt or output file can carry
                    value.encode("utf-8")
            setattr(config, key, value)
        if config.replay and not config.fixtures_dir:
            raise click.UsageError("replay mode requires a fixtures directory")
        if config.decision_mode not in {mode.value for mode in DecisionMode}:
            raise click.UsageError(f"unknown decision mode {config.decision_mode!r}")
        for name in ("llm_requests", "max_statements", "hit_limit", "llm_context_tokens"):
            value = getattr(config, name)
            if value is not None and value < 1:  # None: no statement limit, no budget
                raise click.UsageError(f"{name} must be at least 1")
        if config.hit_limit > MAX_HIT_LIMIT:  # the most hits one search API request returns
            raise click.UsageError(f"hit_limit must be at most {MAX_HIT_LIMIT}")
        if not config.cache_ttl_seconds >= 0:  # NaN too; inf never expires
            raise click.UsageError("cache_ttl_seconds must be a number of at least 0")
        # checked before any input is read or request asked: a run must not end where
        # it cannot write (a replay never writes into the cache directory)
        dirs = {"output": Path(config.out_dir)}
        if config.cache_dir and not config.replay:
            dirs["cache"] = Path(config.cache_dir)
        for kind, path in dirs.items():
            taken = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
            if not taken.is_dir():
                raise click.UsageError(f"{kind} directory {path}: {taken} is not a directory")
        return config


class _Runtime:
    """Everything a command needs, built once from the resolved config.

    Its Wikidata client decides what a run verifies, and a verify run asks
    it everything before the first statement: the subject's record, the
    statements, and for ``verify-wikipedia`` the article's revision. The
    verifier decides how, and asks nothing of Wikidata.
    Its worker pool, ``llm_requests`` threads started with the runtime, runs
    evaluate's instances and the documents and judgments of every
    verification session, the oldest statement's first; a verify run's
    statements run on ``max(1, llm_requests - 1)`` workers of their own, the
    next only once a worker of this pool would idle. Every command builds it
    in ``with closing(_Runtime(config)) as runtime:``, so its workers stop
    also when the command fails.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        if config.fixed_clock:
            instant = _parse_instant(config.fixed_clock)
            self.clock = lambda: instant
        else:
            self.clock = lambda: datetime.now(timezone.utc)
        # One gate holds every request in flight to the pool width. The LLM has
        # its own session, so page hosts never evict its pooled connections; the
        # other transport serves SPARQL, the wiki APIs, search, pages and the archive.
        gate = RequestGate(config.llm_requests)
        # Replay answers from the fixtures alone and builds no live transport; a
        # live run reads through the --cache-dir store when one is given.
        live = None if config.replay else LiveTransport(gate=gate)
        root = config.fixtures_dir if config.replay else config.cache_dir
        ttl = None if config.replay else config.cache_ttl_seconds
        self.store = FixtureStore(root, live, ttl) if root else None
        # Each client keeps what a run asks once: the fetcher pages, the verifier
        # searches, the gateway completions; Wikidata is asked once by construction.
        self.transport = self.store or live
        # a store records completions but only replay serves them
        logs = [] if config.replay else [Path(config.out_dir) / "responses.jsonl"]
        if logs and self.store is not None:
            logs.append(self.store.response_log_path)
        self.response_log = ResponseLog(*logs, clock=self.clock) if logs else None
        self.gateway = LlmGateway(
            self.store if config.replay else ReplicateHttpProvider(LiveTransport(gate=gate)),
            params=LlmParams(model=config.model),
            context_tokens=config.llm_context_tokens,
            response_log=self.response_log,
        )
        self.fetcher = DocumentFetcher(self.transport)
        self.wikidata = WikidataClient(
            self.transport,
            endpoint=config.sparql_endpoint,
            api_url=config.wikidata_api,
            wikipedia_api=config.wikipedia_api,
        )
        # one request in flight per worker: the same knob sizes the fan-out
        self.pool = WorkerPool(config.llm_requests)

    def close(self) -> None:
        """Stop the worker pool (queued items are dropped, running ones finish),
        then close the response log."""
        self.pool.close()
        if self.response_log is not None:
            self.response_log.close()

    def verifier(self, need_search: bool = False) -> Verifier:
        search_provider = None
        if need_search:  # a live one needs credentials; replay gets placeholders
            credentials = ("replay", "replay") if self.config.replay else ()
            search_provider = GoogleSearchProvider(self.transport, *credentials)
        return Verifier(
            gateway=self.gateway,
            fetcher=self.fetcher,
            search_provider=search_provider,
            clock=self.clock,
            pool=self.pool,
        )


def guarded(fn):
    """Turn a pipeline error into its documented exit code (see ``kgverify.errors``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KgVerifyError, click.ClickException) as exc:  # a usage error exits 2
            message, code = str(exc), exc.exit_code
        except KeyboardInterrupt:
            message, code = "interrupted", 130
        click.echo(f"error: {message}", err=True)
        sys.exit(code)

    return wrapper


def _fixtures_digest(fixtures_dir: str | None) -> str | None:
    """Content digest of the fixture set, so a manifest pins the exact inputs."""
    if not fixtures_dir or not Path(fixtures_dir).is_dir():
        return None
    root = Path(fixtures_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(hashlib.sha256(read_input(path, "fixture")).digest())
    return digest.hexdigest()


def _write_outputs(config: RunConfig, command: str, files: dict[str, str | bytes],
                   manifest_extra: dict | None) -> list[Path]:
    """Write ``files`` (name: text or bytes) into ``out_dir``, each atomically,
    in order, and return their paths.

    Unless ``manifest_extra`` is None (``report``), the run's ``manifest.json``
    is written last and an earlier one is removed first: a manifest on disk
    means that its run's files are complete. A write that fails removes the
    files this call wrote and raises ``KgVerifyError`` (exit 1).
    """
    out_dir = Path(config.out_dir)
    paths = [out_dir / name for name in files]
    if manifest_extra is not None:
        fixtures = config.fixtures_dir if config.replay else None  # a live run reads none
        manifest = {
            "command": command,
            "package_version": __version__,
            "config": dataclasses.asdict(config),
            "templates": {name: template_digest(name) for name in (RDF_TEMPLATE, NLI_TEMPLATE)},
            "report_schema_sha256": reporting.schema_digest(),
            "seeds": {"corruption": config.corruption_seed, "sample": config.sample_seed,
                      "examples": config.example_seed},
            "replay": config.replay,
            "fixtures_dir": fixtures,
            "fixtures_sha256": _fixtures_digest(fixtures),
            **manifest_extra,
        }
        files = {**files, "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    written: list[Path] = []
    path = out_dir / "manifest.json"
    try:
        if manifest_extra is not None:
            path.unlink(missing_ok=True)
        for name, content in files.items():
            path = out_dir / name
            atomic_write(path, content.encode("utf-8") if isinstance(content, str) else content)
            written.append(path)
    except BaseException as exc:
        for done in written:
            done.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise KgVerifyError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
    return paths


def _verify_statements(
    pool: WorkerPool,
    statements: Sequence[Statement],
    verify: Callable[[Statement], VerificationSession],
) -> tuple[list[VerificationSession], bool]:
    """Verify the statements on the run's pool (see ``WorkerPool.run_statements``).

    Returns the sessions in statement order and whether the run was
    interrupted. Ctrl-C starts no further statement and waits for those in
    flight; the sessions are then the longest prefix of statements that
    finished. Otherwise the first failure in statement order propagates, once
    every started statement has ended.
    """
    sessions: list[VerificationSession | None] = [None] * len(statements)

    def run(index: int) -> None:
        statement = statements[index]
        click.echo(f"verifying: {' / '.join(statement.labels())}", err=True)
        sessions[index] = verify(statement)

    interrupted = False
    try:
        pool.run_statements(run, len(statements))
    except KeyboardInterrupt:
        interrupted = True
    done = list(itertools.takewhile(lambda session: session is not None, sessions))
    return done, interrupted


def _verify_run(
    runtime: _Runtime,
    command: str,
    info: EntityInfo,
    started: datetime,
    statements: Sequence[Statement],
    verify: Callable[[Statement], VerificationSession],
    summary_extra: dict,
    manifest_extra: dict,
) -> None:
    """The run lifecycle both verify commands share.

    The caller asks Wikidata for everything the report needs (``info`` and
    ``summary_extra``) before the first statement; this asks no remote of
    its own. Verifies the statements (``_verify_statements``), then writes
    the report and manifest for the sessions done; an interrupted run exits
    130 after writing them. Any other error propagates and writes nothing.
    """
    config = runtime.config
    sessions, interrupted = _verify_statements(runtime.pool, statements, verify)

    elapsed = max(0, int((runtime.clock() - started).total_seconds()))
    summary = reporting.ReportSummary(
        llm_model=config.model,
        date=started.date(),
        time=started.time().replace(microsecond=0),
        duration_minutes=elapsed // 60,
        duration_seconds=elapsed % 60,
        subject_id=str(info.entity_id.numeric_id),
        subject_name=info.label,
        subject_url=info.entity_url,
        subject_permalink=info.permalink,
        endpoint=config.sparql_endpoint,
        **summary_extra,
    )
    tree = reporting.build_run_xml(sessions, summary)  # validated once, here
    xml_bytes = reporting.serialize_xml(tree)  # indents the tree the HTML renders
    xml_path, html_path = _write_outputs(config, command, {
        f"{command}-{info.entity_id}.xml": xml_bytes,
        f"{command}-{info.entity_id}.html": reporting.render_html(tree),
    }, {
        "entity": str(info.entity_id),
        "sessions": len(sessions),
        "traces": sum(len(s.traces) for s in sessions),
        "interrupted": interrupted,
        **manifest_extra,
    })
    click.echo(f"wrote {xml_path} and {html_path}")
    if interrupted:
        sys.exit(130)


_OPTIONS = {
    "config": click.option("--config", "config_file", type=click.Path(), default=None,
                           help="JSON config file; flags and environment override it."),
    "out": click.option("--out", "out_dir", type=click.Path(), default=None,
                        help="Output directory."),
    "replay": click.option("--replay/--live", "replay", default=None,
                           help="Replay recorded fixtures instead of touching the network."),
    "fixtures": click.option("--fixtures", "fixtures_dir", type=click.Path(), default=None,
                             help="Directory holding recorded fixtures (http/, llm/)."),
    "model": click.option("--model", default=None, help="LLM model identifier."),
    "fixed-clock": click.option("--fixed-clock", "fixed_clock", default=None,
                                help="Pin all timestamps to this ISO instant (for replay)."),
    "cache-dir": click.option("--cache-dir", "cache_dir", type=click.Path(), default=None,
                              help="Live runs read through and record into this directory, "
                                   "in the layout --replay --fixtures reads."),
    "endpoint": click.option("--endpoint", "sparql_endpoint", default=None,
                             help="SPARQL endpoint URL."),
    "max-statements": click.option("--max-statements", "max_statements", type=int, default=None,
                                   help="Verify at most this many selected statements."),
    "decision-mode": click.option("--decision-mode", "decision_mode",
                                  type=click.Choice([mode.value for mode in DecisionMode]),
                                  default=None,
                                  help="How the middle option counts in binary decisions."),
}
# every command takes _LOCAL; the commands that ask remote services take _REMOTE
_LOCAL = ("config", "out")
_REMOTE = (*_LOCAL, "replay", "fixtures", "model", "fixed-clock", "cache-dir")


def config_options(*names: str):
    """Apply the named shared options, listed in this order in --help."""
    def decorate(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return decorate


def _parse_entity(entity: str) -> EntityId:
    try:
        return EntityId.parse(entity)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Verify knowledge-graph statements against external grounding documents."""


@main.command("verify-wikidata")
@click.argument("entity")
@config_options(*_REMOTE, "endpoint", "max-statements")
@click.option("--hit-limit", type=int, default=None, help="Web-search hits per statement.")
@guarded
def cmd_verify_wikidata(entity: str, **kwargs) -> None:
    """Select a subject's unsourced statements and verify them via web search."""
    config = RunConfig.resolve(kwargs)
    entity_id = _parse_entity(entity)
    with closing(_Runtime(config)) as runtime:
        verifier = runtime.verifier(need_search=True)  # no credentials: before any request
        started = runtime.clock()
        info = runtime.wikidata.entity_info(entity_id)

        unsourced = runtime.wikidata.fetch_unsourced_statements(entity_id)
        click.echo(f"{entity_id}: {len(unsourced)} unsourced statements", err=True)
        selected = runtime.wikidata.filter_mandatory_reference(unsourced)
        click.echo(f"{entity_id}: {len(selected)} with a mandatory-reference predicate",
                   err=True)
        selected = selected[: config.max_statements]  # a None limit keeps them all

        _verify_run(
            runtime, "verify-wikidata", info, started, selected,
            lambda statement: verifier.verify_via_web_search(statement, config.hit_limit),
            summary_extra={},
            manifest_extra={"statements_selected": len(selected)},
        )


@main.command("verify-wikipedia")
@click.argument("entity")
@click.option("--statements", "statements_file", type=click.Path(), required=True,
              help="Tab-separated statements file (subject, predicate, object, optional ids).")
@config_options(*_REMOTE, "endpoint", "max-statements")
@guarded
def cmd_verify_wikipedia(entity: str, statements_file: str, **kwargs) -> None:
    """Verify designated statements through the subject's Wikipedia article."""
    config = RunConfig.resolve(kwargs)
    entity_id = _parse_entity(entity)
    data = read_input(statements_file, "statements file")
    with malformed(MalformedInput, f"cannot read statements file {statements_file}", data):
        text = data.decode("utf-8-sig")  # a BOM is no label
    statements = statements_from_text(text)
    statements = statements[: config.max_statements]  # a None limit keeps them all
    if not statements:
        raise MalformedInput(f"{statements_file}: no statements to verify")
    with closing(_Runtime(config)) as runtime:
        started = runtime.clock()
        info = runtime.wikidata.entity_info(entity_id)
        if not info.wikipedia_url:
            raise NoSitelink(f"entity {entity_id} has no English Wikipedia article")
        permalink = None
        if info.wikipedia_title:
            revision = runtime.wikidata.wikipedia_revision(info.wikipedia_title)
            permalink = wikipedia_permalink(info.wikipedia_title, revision)
        verifier = runtime.verifier()
        _verify_run(
            runtime, "verify-wikipedia", info, started, statements,
            lambda statement: verifier.verify_via_wikipedia(
                statement, article_url=info.wikipedia_url),
            summary_extra={"wikipedia_url": info.wikipedia_url, "wikipedia_permalink": permalink},
            manifest_extra={"statements": len(statements)},
        )


@main.command("build-dataset")
@click.option("--biored", "biored_path", type=click.Path(), required=True,
              help="Directory (or single file) of the source BioC JSON distribution.")
@click.option("--seed", "corruption_seed", type=int, default=None, help="Corruption seed.")
@config_options(*_LOCAL)
@guarded
def cmd_build_dataset(biored_path: str, **kwargs) -> None:
    """Build the verification benchmark: positives plus corrupted negatives."""
    config = RunConfig.resolve(kwargs)
    docs = datasets.load_biored(biored_path)
    click.echo(f"loaded {len(docs)} documents", err=True)
    positives = datasets.extract_positives(docs)
    ground_truth = datasets.GroundTruth.from_documents(docs)
    negatives, skips = datasets.generate_negatives(positives, ground_truth,
                                                   seed=config.corruption_seed)
    manifest = datasets.dataset_manifest(positives, negatives, skips, config.corruption_seed)
    [dataset_path] = _write_outputs(config, "build-dataset", {
        "biored_verify.jsonl": datasets.instances_to_jsonl([*positives, *negatives]),
    }, {"dataset": manifest})
    for relation_type, stats in manifest["relations"].items():
        click.echo(
            f"{relation_type}: {stats['positives']} positives, {stats['negatives']} negatives"
        )
    if skips:
        click.echo(f"skipped {len(skips)} positives with no usable replacement", err=True)
    click.echo(f"wrote {dataset_path}")


@main.command("evaluate")
@click.option("--dataset", "dataset_path", type=click.Path(), required=True,
              help="JSON-lines dataset: verification instances, or an SNLI split for --task nli.")
@click.option("--task", type=click.Choice(["triples", "nli"]), default="triples")
@click.option("--sample", type=click.IntRange(min=1), default=None,
              help="For --task nli: evaluate this many records sampled from the split.")
@click.option("--snli-train", "snli_train", type=click.Path(), default=None,
              help="For --task nli: training split for the few-shot examples.")
@config_options(*_REMOTE, "decision-mode")
@guarded
def cmd_evaluate(dataset_path: str, task: str, sample: int | None, snli_train: str | None,
                 **kwargs) -> None:
    """Run the benchmark protocol over a dataset and emit metric tables."""
    if task == "triples" and (sample is not None or snli_train is not None):
        raise click.UsageError("--sample and --snli-train apply only to --task nli")
    config = RunConfig.resolve(kwargs)
    if task == "triples":
        tables, text, manifest_extra = _evaluate_triples(config, dataset_path)
    else:
        tables, text, manifest_extra = _evaluate_nli(config, dataset_path, snli_train, sample)
    _write_outputs(config, f"evaluate-{task}", {
        "results.json": json.dumps(tables, indent=2, sort_keys=True) + "\n",
        "results.txt": text + "\n",
    }, manifest_extra)
    click.echo(text)


def _judge(runtime: _Runtime, items: Sequence, prompt: Callable[..., str],
           parse: Callable[[str], object]) -> list:
    """The model's answer to each item's ``prompt``, ``parse``d, in item order.

    One task per item on the run's pool; each renders its own prompt, so only
    the prompts in flight are alive at once.
    """
    def judge(item):
        return parse(runtime.gateway.complete(prompt(item)).raw_text)

    return map_in_order(runtime.pool, judge, items)


def _evaluate_triples(config: RunConfig, dataset_path: str) -> tuple[dict, str, dict]:
    """The results tables, their text and the manifest's fields."""
    instances = datasets.read_instances(dataset_path)
    if not instances:
        raise MalformedInput(f"{dataset_path}: empty dataset")
    with closing(_Runtime(config)) as runtime:  # built once the inputs are known to be good
        mode = DecisionMode(config.decision_mode)
        predictions = _judge(runtime, instances,
                             lambda i: render_rdf_prompt(i.statement, i.grounding_text),
                             lambda text: verdict_to_binary(parse_option(text), mode))
    grouped: dict[tuple[str, tuple[str, str]], list] = {}
    for instance, predicted in zip(instances, predictions):
        key = (instance.relation_type, instance.concept_pair)
        grouped.setdefault(key, []).append((instance.gold, predicted))
    tables_json: dict = {}
    text_blocks: list[str] = []
    all_counts = []
    for relation_type in datasets.RELATION_TYPES:
        rows = [(pair, evaluation.binary_confusion(pairs))
                for (rel, pair), pairs in sorted(grouped.items()) if rel == relation_type]
        all_counts.extend(counts for _, counts in rows)
        if rows:
            tables_json[relation_type] = evaluation.binary_table_rows(rows)
            text_blocks.append(
                evaluation.format_binary_table(rows, title=f"Relation: {relation_type}")
            )
    overall = evaluation.micro_average(all_counts)
    metrics = evaluation.compute_metrics(overall)
    tables_json["overall"] = {
        "tp": overall.tp, "tn": overall.tn, "fp": overall.fp, "fn": overall.fn,
        "precision": evaluation.rounded_percent(metrics.precision),
        "recall": evaluation.rounded_percent(metrics.recall),
        "f1": evaluation.rounded_percent(metrics.f1),
    }
    text_blocks.append(
        "Overall (micro): precision "
        f"{evaluation.percent(metrics.precision, 1)}, recall "
        f"{evaluation.percent(metrics.recall, 1)}, F1 {evaluation.percent(metrics.f1, 1)}"
    )
    return (tables_json, "\n\n".join(text_blocks),
            {"instances": len(instances), "decision_mode": config.decision_mode})


def _evaluate_nli(config: RunConfig, dataset_path: str, snli_train: str | None,
                  sample: int | None) -> tuple[dict, str, dict]:
    """As ``_evaluate_triples``, for the NLI task."""
    if not snli_train:
        raise click.UsageError("--task nli requires --snli-train for the example picks")
    if sample is not None:
        records = datasets.sample_snli_test(dataset_path, n=sample, seed=config.sample_seed)
    else:
        records = datasets.load_snli(dataset_path)
    if not records:
        raise MalformedInput(f"{dataset_path}: empty dataset")
    examples = datasets.pick_nli_example_records(snli_train, config.example_seed)
    with closing(_Runtime(config)) as runtime:  # built once the inputs are known to be good
        labels = _judge(runtime, records,
                        lambda r: render_nli_prompt(r.premise, r.hypothesis, examples),
                        parse_nli_label)
    confusion = evaluation.tally_nli([(r.gold, label) for r, label in zip(records, labels)])
    tables = {
        "matrix": [list(row) for row in confusion.matrix],
        "unparsed": confusion.unparsed,
        "accuracy": evaluation.rounded_percent(confusion.accuracy(), 1),
        "total": confusion.total,
    }
    return (tables, evaluation.format_nli_table(confusion, model_name=config.model),
            {"records": len(records), "example_pair_ids": [r.pair_id for r in examples]})


@main.command("report")
@click.argument("xml_file", type=click.Path())
@config_options(*_LOCAL)
@guarded
def cmd_report(xml_file: str, **kwargs) -> None:
    """Re-render the HTML report from an existing XML process trace."""
    config = RunConfig.resolve(kwargs)
    xml_bytes = read_input(xml_file, "report")
    [out_path] = _write_outputs(config, "report", {
        Path(xml_file).stem + ".html": reporting.render_html(xml_bytes),
    }, None)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
