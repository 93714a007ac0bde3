"""Command-line interface.

Five subcommands cover the typical workflow on CSV data:

``validate``
    Check every entity's specification for conflicts between the data, the
    currency constraints and the CFDs (algorithm ``IsValid``).

``resolve``
    Derive the most current, consistent tuple per entity and write the result
    as CSV.  Attributes whose true value cannot be deduced are either left
    empty or filled with the ``Pick`` strategy (``--fallback pick``).

``pipeline``
    The streaming end-to-end path: read raw CSV rows, link them into entity
    instances incrementally (blocking + matching with bounded open buckets),
    resolve each instance through the engine as it completes, and stream
    per-entity results to a JSON-lines file — with optional periodic
    checkpointing so an interrupted run resumes where it stopped
    (``--checkpoint state.json --resume``).  Memory stays bounded by the
    linker's open buckets plus the engine's in-flight window, never by the
    size of the input.

``serve``
    The interactive path: a long-lived server over one warm engine.  Requests
    are JSON lines (``{"entity": ..., "rows": [...]}``) read from stdin (or
    ``--input``) with responses written as JSON lines in request order, or —
    with ``--tcp`` — accepted as concurrent localhost TCP connections, each
    carrying its own JSONL stream.  Concurrent requests share the worker pool
    and its compiled-constraint caches; ``--checkpoint``/``--resume`` continue
    an interrupted input stream without re-resolving delivered entities.

``discover``
    Mine constant CFDs (and, when the rows carry a timestamp column, currency
    constraints) from the data and print them in the constraint-file format.

Examples
--------
::

    python -m repro validate  people.csv --entity-key name --constraints rules.txt
    python -m repro resolve   people.csv --entity-key name --constraints rules.txt -o resolved.csv
    python -m repro pipeline  people.csv --entity-key name --constraints rules.txt \
        --output resolved.jsonl --checkpoint state.json --workers 4
    python -m repro serve --schema name,status,job --constraints rules.txt \
        --workers 4 < requests.jsonl > responses.jsonl
    python -m repro serve --schema name,status,job --tcp 127.0.0.1:8765 --workers 4
    python -m repro discover  people.csv --entity-key name --timestamp-column updated_at
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.api import ResolutionClient, RunConfig
from repro.core.instance import EntityInstance, TemporalInstance
from repro.core.specification import Specification
from repro.core.values import is_null
from repro.discovery import (
    CFDDiscoveryConfig,
    CurrencyDiscoveryConfig,
    discover_constant_cfds,
    discover_currency_constraints,
)
from repro.io import dump_constraints, load_constraint_file, read_entity_rows, write_resolved_tuples
from repro.linkage import MatcherConfig, RecordMatcher, attribute_blocking
from repro.linkage.streaming import StreamingLinker
from repro.pipeline import (
    Checkpoint,
    CheckpointSink,
    FunctionSink,
    JsonlSink,
    LinkageStage,
    MapStage,
    SkipStage,
)
from repro import profiling
from repro.encoding import IncrementalEncoder
from repro.resolution import ResolverOptions, check_validity
from repro.solvers import SolverBudget

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conflict resolution by data currency and consistency (ICDE 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("data", help="CSV file with one row per observation")
        sub.add_argument("--entity-key", required=True, help="column identifying the entity of each row")
        sub.add_argument("--constraints", help="constraint file (currency constraints and CFDs)")

    def add_resolution_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fallback",
            choices=["none", "pick"],
            default="none",
            help="how to fill attributes whose true value cannot be deduced",
        )
        sub.add_argument("--max-rounds", type=int, default=0, help="interaction rounds (0 = automatic only)")
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="resolve entities in parallel over this many worker processes",
        )
        sub.add_argument(
            "--store",
            metavar="PATH",
            help="persistent result store (SQLite file, or ':memory:'): entities "
            "whose (entity, specification hash) is already stored are answered "
            "without solving, and fresh resolutions are upserted for later runs",
        )
        sub.add_argument(
            "--max-attempts",
            type=int,
            default=3,
            help="resolution attempts per entity before it is quarantined "
            "(dead-lettered with an all-NULL result; default: %(default)s)",
        )
        sub.add_argument(
            "--entity-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="solver wall-clock budget per entity; an entity that exceeds it "
            "fails cleanly with a budget_exceeded marker instead of hanging the run",
        )
        sub.add_argument(
            "--retry-quarantined",
            action="store_true",
            help="with --store: re-attempt entities whose stored result is a "
            "quarantine marker instead of serving the stored failure",
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help="collect per-phase solver timing (encode / propagate / decide / "
            "analyze) and print the profile to stderr after the run; "
            "REPRO_PROFILE=1 in the environment does the same",
        )

    validate = subparsers.add_parser("validate", help="check specifications for conflicts")
    add_common(validate)

    resolve = subparsers.add_parser("resolve", help="derive the current tuple of every entity")
    add_common(resolve)
    resolve.add_argument("-o", "--output", help="output CSV path (default: stdout summary only)")
    add_resolution_options(resolve)

    pipeline = subparsers.add_parser(
        "pipeline", help="streaming end-to-end run: raw CSV → linkage → resolve → report"
    )
    pipeline.add_argument("data", help="CSV file with one raw observation row per line")
    pipeline.add_argument(
        "--entity-key",
        required=True,
        help="column identifying the entity of each row (also the linkage blocking key)",
    )
    pipeline.add_argument("--constraints", help="constraint file (currency constraints and CFDs)")
    pipeline.add_argument(
        "--blocking",
        nargs="+",
        metavar="ATTR",
        help="blocking attributes for linkage (default: the entity key column)",
    )
    pipeline.add_argument(
        "--threshold", type=float, default=0.85, help="linkage match threshold (weighted similarity)"
    )
    pipeline.add_argument(
        "--max-open-blocks",
        type=int,
        default=4096,
        help="bound on simultaneously open linkage buckets; least-recently-touched "
        "buckets are matched and emitted early when exceeded, which keeps memory "
        "bounded but can split an entity whose rows arrive far apart "
        "(0 = unbounded, i.e. exact batch linkage semantics; default: %(default)s)",
    )
    pipeline.add_argument("-o", "--output", help="JSON-lines output path (one record per entity)")
    pipeline.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    pipeline.add_argument(
        "--checkpoint-every", type=int, default=50, help="entities between checkpoint saves"
    )
    pipeline.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint file instead of starting over",
    )
    pipeline.add_argument("--quiet", action="store_true", help="suppress the per-entity summary lines")
    add_resolution_options(pipeline)

    serve = subparsers.add_parser(
        "serve", help="serve resolve requests over a long-lived warm engine"
    )
    serve.add_argument(
        "--schema",
        required=True,
        metavar="ATTR,ATTR,...",
        help="comma-separated attribute names of the served relation",
    )
    serve.add_argument("--constraints", help="constraint file (currency constraints and CFDs)")
    serve.add_argument(
        "--input",
        help="JSONL request file (default: read requests from stdin)",
    )
    serve.add_argument("-o", "--output", help="JSONL response path (default: stdout)")
    serve.add_argument(
        "--tcp",
        metavar="[HOST:]PORT",
        help="listen for concurrent JSONL connections instead of the stdin loop",
    )
    serve.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="serve through N worker processes (each with its own warm engine) "
        "behind a key-routing frontdoor with admission control; "
        "--store becomes a shared cross-process result cache",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="cap on concurrently resolving requests (default: the engine's in-flight window)",
    )
    serve.add_argument("--checkpoint", help="checkpoint file for resumable request streams")
    serve.add_argument(
        "--checkpoint-every", type=int, default=25, help="responses between checkpoint saves"
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="skip the requests a previous run already answered (per the checkpoint) "
        "and append to the output; after a hard kill (no graceful shutdown) up to "
        "checkpoint-every responses may repeat in the output",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="include per-request timings in responses and print a final server summary",
    )
    serve.add_argument(
        "--follow",
        metavar="FEED",
        help="instead of answering piped requests, consume the change feed at "
        "FEED (JSONL or SQLite file): affected entities are invalidated in "
        "--store and re-resolved on the warm engine (or routed through the "
        "--cluster frontdoor); the consume report is written as one JSON line",
    )
    serve.add_argument(
        "--cursor",
        metavar="PATH",
        help="with --follow: checkpoint file persisting the feed position so "
        "a restarted follower resumes exactly where it crashed",
    )
    add_resolution_options(serve)

    discover = subparsers.add_parser("discover", help="mine constraints from the data")
    discover.add_argument("data", help="CSV file with one row per observation")
    discover.add_argument("--entity-key", required=True, help="column identifying the entity of each row")
    discover.add_argument("--timestamp-column", help="column ordering each entity's rows in time")
    discover.add_argument("--min-support", type=int, default=3, help="minimum CFD pattern support")
    discover.add_argument("--min-confidence", type=float, default=0.95, help="minimum CFD confidence")

    cdc = subparsers.add_parser(
        "cdc", help="append to / inspect an append-only change feed"
    )
    cdc_sub = cdc.add_subparsers(dest="cdc_command", required=True)
    cdc_append = cdc_sub.add_parser(
        "append", help="append change events (one JSON object per line) to a feed"
    )
    cdc_append.add_argument(
        "feed", help="feed file (.jsonl appends lines, anything else is SQLite)"
    )
    cdc_append.add_argument(
        "--input", help="JSONL event file (default: read events from stdin)"
    )
    cdc_tail = cdc_sub.add_parser(
        "tail", help="print stored feed records (seq, ts, event) as JSON lines"
    )
    cdc_tail.add_argument("feed", help="feed file to read")
    cdc_tail.add_argument(
        "--after",
        type=int,
        default=0,
        help="print only records with sequence > AFTER (default: %(default)s)",
    )
    cdc_status = cdc_sub.add_parser(
        "status", help="print feed status (last sequence, consumer lag) as JSON"
    )
    cdc_status.add_argument("feed", help="feed file to inspect")
    cdc_status.add_argument(
        "--cursor",
        metavar="PATH",
        help="consumer checkpoint file; reports how far behind that consumer is",
    )
    return parser


def _load_specifications(args) -> Dict[str, Specification]:
    schema, instances = read_entity_rows(args.data, args.entity_key)
    if args.constraints:
        sigma, gamma = load_constraint_file(args.constraints)
    else:
        sigma, gamma = [], []
    return {
        key: Specification(TemporalInstance(instance), sigma, gamma, name=key)
        for key, instance in instances.items()
    }


def _command_validate(args) -> int:
    specifications = _load_specifications(args)
    invalid: List[str] = []
    for key, spec in sorted(specifications.items()):
        report = check_validity(IncrementalEncoder(spec))
        status = "valid" if report.valid else "INVALID"
        print(f"{key}: {status} ({report.encoding.statistics()['clauses']} clauses)")
        if not report.valid:
            invalid.append(key)
    print(f"\n{len(specifications) - len(invalid)}/{len(specifications)} specifications are valid")
    return 1 if invalid else 0


def _run_config(args) -> RunConfig:
    """Build the client configuration shared by resolve/pipeline/serve."""
    entity_timeout = getattr(args, "entity_timeout", None)
    budget = SolverBudget(wall_seconds=entity_timeout) if entity_timeout else None
    return RunConfig(
        options=ResolverOptions(
            max_rounds=args.max_rounds,
            fallback=args.fallback,
            budget=budget,
            max_attempts=getattr(args, "max_attempts", 3),
        ),
        workers=args.workers,
        max_inflight=getattr(args, "max_inflight", None),
        store=getattr(args, "store", None),
        retry_quarantined=getattr(args, "retry_quarantined", False),
    )


def _command_resolve(args) -> int:
    specifications = _load_specifications(args)
    resolved: Dict[str, Dict] = {}
    rounds: Dict[str, int] = {}
    complete: Dict[str, bool] = {}
    schema = None
    ordered = sorted(specifications.items())
    with ResolutionClient(_run_config(args)) as client:
        for (key, spec), result in zip(ordered, client.resolve_stream(ordered)):
            schema = spec.schema
            resolved[key] = result.resolved_tuple
            rounds[key] = result.interaction_rounds
            complete[key] = result.complete
            deduced = len(result.true_values)
            print(f"{key}: {deduced}/{len(spec.schema)} true values deduced"
                  + ("" if result.valid else " (specification INVALID)"))
    if args.output and schema is not None:
        write_resolved_tuples(
            args.output,
            schema,
            resolved,
            extra_columns={"__complete__": complete, "__rounds__": rounds},
        )
        print(f"\nwrote {len(resolved)} resolved tuples to {args.output}")
    return 0


def _truncate_jsonl(path: str, records: int) -> None:
    """Keep only the first *records* lines of a JSONL file (resume trim).

    Streams to the cut-off byte offset instead of loading the file, so
    resuming a multi-gigabyte run stays constant-memory.
    """
    import os
    from pathlib import Path

    target = Path(path)
    if not target.exists():
        return
    offset = 0
    kept = 0
    with target.open("rb") as handle:
        for line in handle:
            if kept >= records:
                break
            offset += len(line)
            kept += 1
        else:
            return  # file has at most `records` lines already
    os.truncate(target, offset)


def _command_pipeline(args) -> int:
    """Streaming end-to-end run: raw CSV → linkage → resolution → JSONL report."""
    from repro.io import read_csv_header, stream_csv_rows

    schema = read_csv_header(args.data)
    if args.constraints:
        sigma, gamma = load_constraint_file(args.constraints)
    else:
        sigma, gamma = [], []
    blocking = args.blocking or [args.entity_key]
    schema.require([args.entity_key, *blocking])

    # Match on the blocking attributes: rows sharing the block (e.g. the
    # entity key) then link with similarity 1.0, which reproduces the
    # ``resolve`` command's group-by-key semantics while still allowing
    # fuzzier blocking schemes via --blocking/--threshold.
    linker = StreamingLinker(
        schema,
        attribute_blocking(blocking),
        RecordMatcher(
            MatcherConfig({attribute: 1.0 for attribute in blocking}, args.threshold)
        ),
        max_open_blocks=args.max_open_blocks if args.max_open_blocks > 0 else None,
    )

    counter = {"index": 0}

    def keyed_specification(instance: EntityInstance):
        first = instance.tuples[0]
        key_value = first[args.entity_key]
        key = str(key_value) if not is_null(key_value) else f"entity_{counter['index']}"
        counter["index"] += 1
        spec = Specification(TemporalInstance(instance), sigma, gamma, name=key)
        return key, spec

    # Resume support: the checkpoint counts *resolved* entities; linkage is
    # deterministic and cheap, so a resumed run replays it and skips the
    # already-resolved prefix before the expensive resolve stage.
    offset = 0
    checkpoint = Checkpoint(args.checkpoint) if args.checkpoint else None
    if checkpoint is not None and args.resume:
        saved = checkpoint.load()
        if saved is not None:
            offset = saved["processed"]
            print(f"resuming after {offset} already-resolved entities")
            # A crash between checkpoint saves leaves the JSONL ahead of the
            # checkpointed position (records flush per entity); trim it back
            # so the resumed run appends without duplicating those entities.
            if args.output:
                _truncate_jsonl(args.output, offset)

    def record(item) -> Dict:
        key, result, _ = item
        payload = {
            "entity": key,
            "valid": result.valid,
            "complete": result.complete,
            "rounds": result.interaction_rounds,
            "resolved": {
                attribute: (None if is_null(value) else value)
                for attribute, value in result.resolved_tuple.items()
            },
        }
        # Quarantine markers only on afflicted entities, so fault-free output
        # stays byte-identical to earlier releases.
        failure = getattr(result, "failure", "")
        if failure:
            payload["failure"] = failure
            payload["attempts"] = getattr(result, "attempts", 0)
        return payload

    sinks = []
    if args.output:
        sinks.append(JsonlSink(args.output, encoder=record, append=args.resume and offset > 0))
    if not args.quiet:

        def summarize(item) -> None:
            key, result, _ = item
            deduced = len(result.true_values)
            print(f"{key}: {deduced}/{len(schema)} true values deduced"
                  + ("" if result.valid else " (specification INVALID)"))

        sinks.append(FunctionSink(summarize, name="summary"))

    with ResolutionClient(_run_config(args)) as client:
        if checkpoint is not None:

            def quarantine_records():
                engine = client.engine
                if engine is None:
                    return []
                return [entry.as_dict() for entry in engine.statistics.quarantine]

            sinks.append(
                CheckpointSink(
                    checkpoint,
                    every=args.checkpoint_every,
                    offset=offset,
                    quarantine_provider=quarantine_records,
                )
            )
        report = client.pipeline(
            stream_csv_rows(args.data, schema),
            pre_stages=[
                LinkageStage(linker),
                MapStage(keyed_specification),
                SkipStage(offset),
            ],
            sinks=sinks,
        )
        peak_inflight = int(client.engine.statistics.peak_inflight_entities)

    print(
        f"\nresolved {report.items} entities in {report.seconds:.2f}s "
        f"({linker.statistics['rows']} rows, "
        f"peak in-flight {peak_inflight} entities)"
    )
    if args.output:
        print(f"results: {args.output}" + (f" (+{offset} from previous run)" if offset else ""))
    return 0


def _parse_tcp_endpoint(parser_error, endpoint: str):
    """Split ``[HOST:]PORT`` (default host: localhost)."""
    host, _, port_text = endpoint.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        parser_error(f"invalid --tcp endpoint {endpoint!r}; expected [HOST:]PORT")
    if not 0 <= port <= 65535:
        parser_error(f"invalid --tcp port {port}; expected 0-65535")
    return host, port


def _command_serve(args) -> int:
    """Long-lived serving loop: JSONL requests in, ordered JSONL responses out."""
    from repro.core.schema import RelationSchema
    from repro.serving import SpecificationBuilder

    attributes = [name.strip() for name in args.schema.split(",") if name.strip()]
    schema = RelationSchema("serving", attributes)
    if args.constraints:
        sigma, gamma = load_constraint_file(args.constraints)
    else:
        sigma, gamma = [], []
    builder = SpecificationBuilder(schema, sigma, gamma)
    checkpoint = Checkpoint(args.checkpoint) if args.checkpoint else None

    def _fail(message: str):  # pragma: no cover - main() validated the endpoint already
        raise SystemExit(f"repro serve: error: {message}")

    endpoint = _parse_tcp_endpoint(_fail, args.tcp) if args.tcp is not None else None

    def on_ready(bound) -> None:
        print(f"serving on tcp://{bound[0]}:{bound[1]}", file=sys.stderr, flush=True)

    if getattr(args, "cluster", 0):
        return _serve_cluster(args, builder)
    if getattr(args, "follow", None):
        return _serve_follow(args, builder)

    try:
        with ResolutionClient(_run_config(args)) as client:
            if endpoint is not None:
                report = client.serve(
                    builder, tcp=endpoint, include_stats=args.stats, on_ready=on_ready
                )
            else:
                in_handle = open(args.input) if args.input else sys.stdin
                # A resumed run appends: the previous run's responses stay on
                # disk and the checkpoint skips the requests behind them.
                out_mode = "a" if args.resume else "w"
                out_handle = open(args.output, out_mode) if args.output else sys.stdout
                try:

                    def write(record: str) -> None:
                        out_handle.write(record)
                        out_handle.flush()

                    report = client.serve(
                        builder,
                        lines=in_handle,
                        write=write,
                        include_stats=args.stats,
                        checkpoint=checkpoint,
                        checkpoint_every=args.checkpoint_every,
                        resume=args.resume,
                    )
                    print(f"answered {report.responses} requests", file=sys.stderr)
                finally:
                    if args.input:
                        in_handle.close()
                    if args.output:
                        out_handle.close()
            if args.stats:
                import json as _json

                print(_json.dumps(report.stats.as_dict(), sort_keys=True), file=sys.stderr)
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted", file=sys.stderr)
        return 130


def _serve_cluster(args, builder) -> int:
    """The multi-process serving frontdoor behind ``serve --cluster N``."""
    import asyncio
    import json as _json

    from repro.serving.cluster import ServingCluster

    config = _run_config(args)
    follow = getattr(args, "follow", None)
    in_handle = open(args.input) if args.input else sys.stdin
    out_handle = open(args.output, "w") if args.output else sys.stdout

    def write(record: str) -> None:
        out_handle.write(record)
        out_handle.flush()

    async def run():
        async with ServingCluster(builder, config, workers=args.cluster) as cluster:
            if follow:
                outcome = await cluster.follow(follow, cursor=args.cursor)
            else:
                outcome = await cluster.serve_lines(in_handle, write)
            summary = await cluster.stats() if args.stats else None
        return outcome, summary

    try:
        outcome, summary = asyncio.run(run())
        if follow:
            write(_json.dumps(outcome, sort_keys=True) + "\n")
            print(
                f"applied {outcome['applied']} events "
                f"(position {outcome['position']})",
                file=sys.stderr,
            )
        else:
            print(f"answered {outcome} requests", file=sys.stderr)
        if summary is not None:
            print(_json.dumps(summary, sort_keys=True, default=str), file=sys.stderr)
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if args.input:
            in_handle.close()
        if args.output:
            out_handle.close()


def _serve_follow(args, builder) -> int:
    """Standalone change-feed follower behind ``serve --follow FEED``."""
    import json as _json

    from repro.cdc import ChangeConsumer

    out_handle = open(args.output, "w") if args.output else sys.stdout
    try:
        with ResolutionClient(_run_config(args)) as client:
            with ChangeConsumer(
                args.follow,
                client,
                builder.schema,
                sigma=tuple(builder.currency_constraints),
                gamma=tuple(builder.cfds),
                cursor=args.cursor,
            ) as consumer:
                report = consumer.consume()
        out_handle.write(_json.dumps(report.as_dict(), sort_keys=True) + "\n")
        out_handle.flush()
        print(
            f"applied {report.applied} events (position {report.position})",
            file=sys.stderr,
        )
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if args.output:
            out_handle.close()


def _command_discover(args) -> int:
    schema, instances = read_entity_rows(args.data, args.entity_key)
    rows = [t.as_dict() for instance in instances.values() for t in instance]
    skip = (args.entity_key,) + ((args.timestamp_column,) if args.timestamp_column else ())
    gamma = discover_constant_cfds(
        schema,
        rows,
        CFDDiscoveryConfig(
            min_support=args.min_support,
            min_confidence=args.min_confidence,
            skip_attributes=skip,
        ),
    )
    sigma = []
    if args.timestamp_column:
        histories = []
        for instance in instances.values():
            ordered = sorted(
                (t.as_dict() for t in instance),
                key=lambda row: str(row.get(args.timestamp_column)),
            )
            histories.append(ordered)
        sigma = discover_currency_constraints(
            schema, histories, CurrencyDiscoveryConfig(skip_attributes=skip)
        )
    print(dump_constraints(sigma, gamma), end="")
    return 0


def _command_cdc(args) -> int:
    """Append to / inspect a change feed (``repro cdc append|tail|status``)."""
    import json as _json

    from repro.cdc import FeedError, decode_event, feed_status, open_change_feed
    from repro.cdc.feed import encode_envelope

    if args.cdc_command == "append":
        in_handle = open(args.input) if args.input else sys.stdin
        feed = open_change_feed(args.feed)
        appended = 0
        last = 0
        try:
            for number, line in enumerate(in_handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = decode_event(line)
                except FeedError as error:
                    print(f"line {number}: {error}", file=sys.stderr)
                    return 1
                last = feed.append(event)
                appended += 1
        finally:
            feed.close()
            if args.input:
                in_handle.close()
        print(f"appended {appended} events (last sequence {last})", file=sys.stderr)
        return 0

    feed = open_change_feed(args.feed)
    try:
        if args.cdc_command == "tail":
            for record in feed.events(after=args.after):
                print(encode_envelope(record))
            return 0
        # status
        position = 0
        if args.cursor:
            data = Checkpoint(args.cursor).load()
            if data:
                position = int(data.get("processed", 0))
        print(_json.dumps(feed_status(feed, position), sort_keys=True))
        return 0
    finally:
        feed.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    import os

    parser = build_parser()
    args = parser.parse_args(argv)
    # Validate cheap-to-check invariants up front so misuse fails with a
    # usage error (exit code 2) instead of a traceback from deep inside the
    # engine or the file layer.
    if getattr(args, "workers", 1) < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "checkpoint_every", 1) < 1:
        parser.error(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")
    max_inflight = getattr(args, "max_inflight", None)
    if max_inflight is not None and max_inflight < 1:
        parser.error(f"--max-inflight must be >= 1, got {max_inflight}")
    if getattr(args, "max_attempts", 1) < 1:
        parser.error(f"--max-attempts must be >= 1, got {args.max_attempts}")
    cluster = getattr(args, "cluster", 0)
    if cluster < 0:
        parser.error(f"--cluster must be >= 1 worker, got {cluster}")
    if cluster:
        if getattr(args, "tcp", None) is not None:
            parser.error("--cluster serves the stdio JSONL loop; it cannot be combined with --tcp")
        for incompatible in ("checkpoint", "resume"):
            if getattr(args, incompatible, None):
                parser.error(f"--cluster cannot be combined with --{incompatible}")
        if getattr(args, "store", None) == ":memory:":
            parser.error(
                "--cluster workers share the store across processes; "
                "':memory:' is per-process — pass a SQLite file path"
            )
    entity_timeout = getattr(args, "entity_timeout", None)
    if entity_timeout is not None and entity_timeout <= 0:
        parser.error(f"--entity-timeout must be positive, got {entity_timeout}")
    if getattr(args, "retry_quarantined", False) and not getattr(args, "store", None):
        parser.error("--retry-quarantined requires --store (there is nothing to retry from)")
    if getattr(args, "tcp", None) is not None:
        _parse_tcp_endpoint(parser.error, args.tcp)
        # The TCP mode serves connections, not a request file; flags of the
        # stdio loop would be silently ignored — reject the combination.
        for incompatible in ("input", "output", "checkpoint"):
            if getattr(args, incompatible, None):
                parser.error(f"--tcp cannot be combined with --{incompatible}")
        if getattr(args, "resume", False):
            parser.error("--tcp cannot be combined with --resume")
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        parser.error("--resume requires --checkpoint (there is no position to resume from)")
    follow = getattr(args, "follow", None) if args.command == "serve" else None
    if follow:
        # Following a change feed replaces the request loop entirely; flags
        # of the stdio/TCP request paths would be silently ignored.
        for incompatible in ("input", "tcp", "checkpoint"):
            if getattr(args, incompatible, None):
                parser.error(f"--follow cannot be combined with --{incompatible}")
        if getattr(args, "resume", False):
            parser.error("--follow resumes via --cursor, not --resume")
        if not getattr(args, "store", None):
            parser.error(
                "--follow requires --store: re-resolved entities must land in "
                "a result store for the feed to have any effect"
            )
        if not os.path.exists(follow):
            parser.error(f"change feed {follow!r} does not exist")
    if args.command == "serve" and getattr(args, "cursor", None) and not follow:
        parser.error("--cursor only applies with --follow")
    if args.command == "cdc":
        if args.feed == ":memory:":
            parser.error(
                "a ':memory:' feed dies with this process; pass a .jsonl or "
                "SQLite file path"
            )
        if args.cdc_command in ("tail", "status") and not os.path.exists(args.feed):
            parser.error(f"change feed {args.feed!r} does not exist")
        if getattr(args, "after", 0) < 0:
            parser.error(f"--after must be >= 0, got {args.after}")
    for path_attribute in ("data", "input", "constraints"):
        path = getattr(args, path_attribute, None)
        if path is not None and not os.path.exists(path):
            parser.error(f"input file {path!r} does not exist")
    # Writable paths (results, checkpoints, stores) used to fail only at the
    # first write — possibly deep into a long run.  Validate them up front:
    # the target must not be a directory and its parent directory must exist
    # and be writable.
    writable_attributes = ("output", "checkpoint", "store") + (
        # ``cdc status --cursor`` only reads the checkpoint; the serve
        # follower is what writes it.
        ("cursor",) if args.command == "serve" else ()
    )
    for path_attribute in writable_attributes:
        path = getattr(args, path_attribute, None)
        if not path or path == ":memory:":
            continue
        flag = "--" + path_attribute.replace("_", "-")
        if os.path.isdir(path):
            parser.error(f"cannot write {flag} path {path!r}: it is a directory")
        if os.path.exists(path) and not os.access(path, os.W_OK):
            parser.error(f"cannot write {flag} path {path!r}: file is not writable")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            parser.error(
                f"cannot write {flag} path {path!r}: directory {parent!r} does not exist"
            )
        if not os.access(parent, os.W_OK):
            parser.error(
                f"cannot write {flag} path {path!r}: directory {parent!r} is not writable"
            )
    handlers = {
        "validate": _command_validate,
        "resolve": _command_resolve,
        "pipeline": _command_pipeline,
        "serve": _command_serve,
        "discover": _command_discover,
        "cdc": _command_cdc,
    }
    if getattr(args, "profile", False):
        # Exported so pool workers spawned by the engine also collect; their
        # totals stay in their own processes, so the printed table covers the
        # parent only — accurate for the default --workers 1 path.
        os.environ["REPRO_PROFILE"] = "1"
        profiling.enable()
    exit_code = handlers[args.command](args)
    if profiling.enabled():
        workers = getattr(args, "workers", 1)
        print("\nper-phase solver profile (seconds):", file=sys.stderr)
        if workers > 1:
            print(
                f"(parent process only; {workers} workers kept their own totals)",
                file=sys.stderr,
            )
        print(profiling.format_report(), file=sys.stderr)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
