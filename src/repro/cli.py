"""Command-line interface.

``hbrepro`` runs a scaled-down reproduction end to end and prints the
requested artefacts, which is the quickest way to see the pipeline working::

    hbrepro run --sites 2000 --days 1 --figures table1 adoption fig12 facet
    hbrepro run --sites 2000 --save crawl.jsonl --figures table1
    hbrepro run --sites 2000 --save crawl.jsonl --checkpoint crawl.ckpt
    hbrepro run --sites 2000 --save crawl.jsonl --checkpoint crawl.ckpt --resume
    hbrepro run --sites 2000 --save crawl.hbc --store-format columnar
    hbrepro analyze crawl.jsonl --artifact table1 fig12
    hbrepro analyze crawl.jsonl --watch --interval 2
    hbrepro convert crawl.hbc crawl.jsonl
    hbrepro historical --sites 400
    hbrepro serve --port 8710 --data-dir campaigns
    hbrepro daemon --dir campaign/ --sites 2000 --days 34 \\
        --threshold table1.summary.websites_with_hb:drop=0.25
    hbrepro list

Artefact names resolve through the central metric registry
(:mod:`repro.analysis.registry`); ``analyze`` recomputes any dataset-only
metric from a saved crawl without re-simulating the Web.  ``analyze
--watch`` tails a growing sink (a crawl still running with ``--save``) and
re-renders the artefacts whenever new detections land; each refresh feeds
only the new records into the dataset's incrementally maintained indices
(index upkeep is O(new detections); rendering the chosen artefacts still
scans their data).

Saved crawls come in two on-disk formats (``--store-format``): ``jsonl``,
the human-greppable reference, and ``columnar``, the typed binary layout of
:mod:`repro.crawler.colstore` that ``analyze`` mmaps instead of re-parsing.
``analyze``, ``--watch`` and ``convert`` sniff the format from the file
itself, so every read-side command works unchanged on either.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.analysis.context import AnalysisContext, CONTEXT_FIELDS
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import available_metrics, compute_metric, iter_metrics
from repro.crawler.colstore import COLUMNAR_SUFFIXES, storage_for
from repro.crawler.engine import BACKEND_NAMES
from repro.crawler.storage import STORE_FORMATS, DetectionSink
from repro.errors import ReproError, StorageError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner

__all__ = ["main", "build_parser"]

#: What each command's analysis context provides, for filtering the registry.
_RUN_CONTEXT = frozenset(CONTEXT_FIELDS) - {"historical"}
_OFFLINE_CONTEXT = frozenset({"dataset"})
_HISTORICAL_CONTEXT = frozenset({"historical"})


def _metric_names_for(provided: frozenset[str]) -> list[str]:
    return sorted(available_metrics(provided))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbrepro",
        description="Reproduce the IMC 2019 Header Bidding measurement study on a simulated Web.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a crawl and print selected artefacts")
    run.add_argument("--sites", type=int, default=2_000, help="number of simulated websites")
    run.add_argument("--days", type=int, default=1, help="number of daily re-crawls")
    run.add_argument("--seed", type=int, default=2019, help="random seed")
    run.add_argument(
        "--workers", type=int, default=1,
        help="parallel crawl workers (shards); results are identical for any count",
    )
    run.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="serial",
        help="crawl execution backend",
    )
    run.add_argument(
        "--slow-path", action="store_true",
        help="simulate with the reference browser instead of the columnar "
        "simulator (detections are byte-identical, pages simulate slower)",
    )
    run.add_argument(
        "--oversubscribe", type=_positive_int, default=4, metavar="N",
        help="shards per worker for parallel crawls (default %(default)s; "
        "bytes identical for any value; use 1 to resume checkpoints written "
        "before this knob existed)",
    )
    run.add_argument(
        "--save", metavar="PATH", default=None,
        help="stream detections to this file as the crawl progresses",
    )
    run.add_argument(
        "--store-format", choices=list(STORE_FORMATS), default="jsonl",
        help="on-disk format for --save: 'jsonl' is the reference format, "
        "'columnar' the typed binary layout that analyze mmaps "
        "(default %(default)s; `hbrepro convert` translates between them)",
    )
    run.add_argument(
        "--flush-every", type=_positive_int, default=DetectionSink.DEFAULT_FLUSH_EVERY, metavar="N",
        help="buffer N detections between --save file writes (1 = per record, "
        "default %(default)s); bytes are identical for any value",
    )
    run.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write a resumable crawl checkpoint to PATH at shard boundaries "
        "(requires --save); resume an interrupted run with --resume",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume the campaign recorded at --checkpoint instead of starting "
        "fresh; the resumed sink and artefacts are byte-identical to an "
        "uninterrupted run",
    )
    run.add_argument(
        "--shard-retries", type=_nonnegative_int, default=2, metavar="N",
        help="retry a failed shard attempt up to N times before quarantining "
        "it (default %(default)s; retried shards reproduce identical bytes)",
    )
    run.add_argument(
        "--shard-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget for pool backends; a timed-out "
        "shard is retried under the normal policy (default: no timeout)",
    )
    run.add_argument(
        "--retry-backoff", type=_nonnegative_float, default=0.1, metavar="SECONDS",
        help="base backoff between retry attempts, exponential with "
        "deterministic jitter (default %(default)s)",
    )
    run.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="chaos-test the supervision layer with injected faults, e.g. "
        "'seed=7,crash@p=0.2x4,hang@shard=3~5.0,sink@count=10x2' (kinds: "
        "crash/hang/slow/raise/sink; keys: shard/count/p); the crawl still "
        "produces byte-identical detections",
    )
    run.add_argument(
        "--fault-log", metavar="PATH", default=None,
        help="append supervision events (retries, pool rebuilds, quarantines) "
        "to PATH as JSON lines",
    )
    run.add_argument(
        "--figures",
        nargs="+",
        default=["table1", "adoption", "facet", "fig12"],
        choices=_metric_names_for(_RUN_CONTEXT),
        help="which artefacts to print",
    )

    analyze = sub.add_parser(
        "analyze",
        help="recompute artefacts from a saved crawl (no re-simulation)",
    )
    analyze.add_argument(
        "path",
        help="crawl dataset written by run --save (JSONL or columnar; auto-detected)",
    )
    analyze.add_argument(
        "--artifact", "--figures",
        dest="figures",
        nargs="+",
        default=["table1", "adoption", "facet", "fig12"],
        choices=_metric_names_for(_OFFLINE_CONTEXT),
        help="which artefacts to recompute (dataset-only metrics)",
    )
    analyze.add_argument(
        "--watch", action="store_true",
        help="tail the file and re-render the artefacts as new detections land",
    )
    analyze.add_argument(
        "--interval", type=_positive_float, default=2.0, metavar="SECONDS",
        help="polling interval between tail reads in --watch mode",
    )
    analyze.add_argument(
        "--watch-rounds", type=_positive_int, default=None, metavar="N",
        help="stop --watch after N tail reads (default: watch until Ctrl-C)",
    )

    convert = sub.add_parser(
        "convert",
        help="convert a saved crawl between detection store formats",
        description="Translate a saved crawl between the JSONL reference "
        "format and the columnar binary format, in either direction. "
        "Converting columnar back to JSONL reproduces the exact bytes a "
        "direct JSONL run would have written.",
    )
    convert.add_argument("src", help="existing detection store (JSONL or columnar; auto-detected)")
    convert.add_argument("dst", help="destination file to write")
    convert.add_argument(
        "--to", choices=list(STORE_FORMATS), default=None,
        help="target format (default: inferred from DST's extension, "
        "falling back to the opposite of SRC's format)",
    )
    convert.add_argument(
        "--force", action="store_true",
        help="overwrite DST if it already exists",
    )

    historical = sub.add_parser("historical", help="run the Figure 4 historical adoption study")
    historical.add_argument("--sites", type=int, default=500, help="sites per yearly top list")
    historical.add_argument("--seed", type=int, default=2019, help="random seed")

    serve = sub.add_parser(
        "serve",
        help="run the crawl-as-a-service HTTP campaign server",
        description="Serve the campaign API: submit ExperimentConfig campaigns "
        "over HTTP, query their detections, download artefacts, and stream "
        "live progress over server-sent events.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    serve.add_argument(
        "--port", type=int, default=8710,
        help="TCP port (default %(default)s; 0 picks a free port)",
    )
    serve.add_argument(
        "--data-dir", default="campaigns", metavar="DIR",
        help="root directory for per-campaign working directories (default %(default)s)",
    )
    serve.add_argument(
        "--max-parallel", type=_positive_int, default=1, metavar="N",
        help="campaigns crawling at once; the rest wait queued (default %(default)s)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )

    daemon = sub.add_parser(
        "daemon",
        help="continuously grow a long-lived campaign one crawl day per tick",
        description="Run the continuous-recrawl daemon: each tick appends one "
        "crawl-day partition to the campaign under --dir through the "
        "checkpoint/sink machinery (kill it at any instant; the next tick "
        "resumes byte-identically), snapshots the watched metrics for the "
        "finished day, and appends regression alerts to DIR/alerts.jsonl "
        "when a --threshold rule fires.",
    )
    daemon.add_argument(
        "--dir", required=True, metavar="DIR",
        help="campaign working directory (sink, checkpoint, per-day snapshots "
        "and partitions, alert log); reuse it to keep growing the same campaign",
    )
    daemon.add_argument("--sites", type=int, default=2_000, help="number of simulated websites")
    daemon.add_argument("--seed", type=int, default=2019, help="random seed")
    daemon.add_argument(
        "--days", type=_nonnegative_int, default=None, metavar="N",
        help="stop once N re-crawl days are recorded "
        "(default: keep growing until interrupted)",
    )
    daemon.add_argument(
        "--interval", type=_nonnegative_float, default=60.0, metavar="SECONDS",
        help="pause between ticks (default %(default)s; 0 runs ticks back to back)",
    )
    daemon.add_argument(
        "--ticks", type=_positive_int, default=None, metavar="N",
        help="run at most N ticks, then exit (default: until --days or a signal)",
    )
    daemon.add_argument(
        "--metrics", nargs="+", default=["table1"],
        choices=_metric_names_for(_OFFLINE_CONTEXT),
        help="dataset-only metrics snapshotted after each crawl day "
        "(default %(default)s)",
    )
    daemon.add_argument(
        "--threshold", action="append", default=[], metavar="SPEC",
        help="regression alert rule, metric.field:kind=value with kind one of "
        "drop/min/max (e.g. table1.summary.websites_with_hb:drop=0.25); "
        "repeatable",
    )
    daemon.add_argument(
        "--retention-days", type=_positive_int, default=None, metavar="N",
        help="keep only the trailing N days of per-day partition/snapshot "
        "files (the canonical sink and alert log are never pruned; "
        "default: keep everything)",
    )
    daemon.add_argument(
        "--workers", type=int, default=1,
        help="parallel crawl workers; detections are identical for any count",
    )
    daemon.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="serial",
        help="crawl execution backend",
    )
    daemon.add_argument(
        "--flush-every", type=_positive_int,
        default=DetectionSink.DEFAULT_FLUSH_EVERY, metavar="N",
        help="buffer N detections between sink writes (bytes identical for any value)",
    )
    daemon.add_argument(
        "--oversubscribe", type=_positive_int, default=4, metavar="N",
        help="shards per worker for parallel crawls (bytes identical for any value)",
    )
    daemon.add_argument(
        "--slow-path", action="store_true",
        help="simulate with the reference browser instead of the columnar "
        "simulator (byte-identical, slower)",
    )
    daemon.add_argument(
        "--store-format", choices=list(STORE_FORMATS), default="columnar",
        help="sink format for the long-lived campaign (default %(default)s; "
        "`hbrepro convert` translates to the JSONL reference bytes)",
    )
    daemon.add_argument(
        "--shard-retries", type=_nonnegative_int, default=2, metavar="N",
        help="retry a failed shard attempt up to N times (default %(default)s)",
    )
    daemon.add_argument(
        "--shard-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget for pool backends (default: none)",
    )

    sub.add_parser("list", help="list every artefact the run and analyze commands can print")
    return parser


def _print_supervision(longitudinal) -> None:
    """Report supervision activity (retries, quarantines) after a run.

    Silent on a fault-free run.  A degraded campaign (quarantined shards)
    warns on stderr with the failed shards and the resume instructions —
    the printed artefacts below cover only the completed prefix.
    """
    results = [longitudinal.discovery, *longitudinal.daily_results]
    retries = sum(r.retries for r in results)
    rebuilds = sum(r.pool_rebuilds for r in results)
    sink_retries = sum(r.sink_retries for r in results)
    if retries or rebuilds or sink_retries:
        print(
            f"supervision: {retries} shard retr{'y' if retries == 1 else 'ies'}, "
            f"{rebuilds} pool rebuild(s), {sink_retries} sink retr"
            f"{'y' if sink_retries == 1 else 'ies'}; detections unaffected\n"
        )
    quarantined = [
        (day, failure)
        for day, result in enumerate(results)
        for failure in result.quarantined_shards
    ]
    if quarantined:
        print(
            f"WARNING: crawl completed DEGRADED: {len(quarantined)} shard(s) "
            "quarantined after exhausting retries; artefacts below cover only "
            "the completed prefix",
            file=sys.stderr,
        )
        for day, failure in quarantined:
            label = "discovery" if day == 0 else f"day {day}"
            print(
                f"  {label} shard {failure.shard_index} "
                f"({failure.attempts} attempts): {failure.error}",
                file=sys.stderr,
            )
        print(
            "re-run with --resume to re-crawl the quarantined shards "
            "(requires --checkpoint)",
            file=sys.stderr,
        )


def _print_artifacts(names: Sequence[str], context: AnalysisContext) -> None:
    for name in names:
        result = compute_metric(name, context)
        print(result.text)
        print()


def _watch(
    storage,  # CrawlStorage or ColumnarStorage: anything with read_new()
    names: Sequence[str],
    *,
    interval: float,
    rounds: int | None = None,
) -> int:
    """Tail ``storage`` and re-render ``names`` whenever detections arrive.

    One crawl dataset lives across the whole watch: every tail read feeds
    only the newly appended records into :meth:`CrawlDataset.extend`, so
    index maintenance per refresh is O(delta) (re-rendering the requested
    artefacts still scans their data).  If the file shrinks — the crawl was
    restarted with a fresh sink — the watch restarts from an empty dataset
    instead of stalling on a stale offset.  Runs until interrupted (or for
    ``rounds`` tail reads when given, which is how tests and smoke runs
    bound it).

    Each poll starts with the cheap ``storage.size()`` staleness probe
    (exactly like ``DetectionStore.refresh()``): an idle watch — the recrawl
    daemon's common state between crawl days — costs one ``stat`` per poll
    and never opens the file.
    """
    dataset = CrawlDataset(label=storage.path.stem)
    offset = 0
    reads = 0
    try:
        while rounds is None or reads < rounds:
            if reads > 0:
                time.sleep(interval)
            size = storage.size()
            if size == offset:
                # Nothing was flushed since the last read: skip the parse
                # entirely.  (At offset 0 this also skips a still-empty file.)
                reads += 1
                continue
            if size < offset:
                # The file shrank under the watch: the crawl was restarted
                # with a fresh sink.  Start over from an empty dataset.
                print(f"=== {storage.path.name}: file changed, restarting watch ===\n")
                dataset = CrawlDataset(label=storage.path.stem)
                offset = 0
                reads += 1
                continue
            try:
                new, offset = storage.read_new(offset)
            except ReproError:
                # The file shrank or changed under the watch (the crawl was
                # restarted with a fresh sink, possibly already regrown past
                # our offset).  A failure at offset 0 cannot be that race —
                # the file itself is malformed — so let it surface.
                if offset == 0:
                    raise
                print(f"=== {storage.path.name}: file changed, restarting watch ===\n")
                dataset = CrawlDataset(label=storage.path.stem)
                offset = 0
                reads += 1
                continue
            reads += 1
            if not new:
                continue
            dataset.extend(new)
            print(f"=== {storage.path.name}: {len(dataset)} detections "
                  f"(+{len(new)}) ===\n")
            _print_artifacts(names, AnalysisContext.offline(dataset))
    except KeyboardInterrupt:
        pass
    return 0


def _convert(args: argparse.Namespace) -> int:
    """Translate a saved crawl between store formats (either direction)."""
    src, dst = Path(args.src), Path(args.dst)
    try:
        if src.resolve() == dst.resolve():
            raise StorageError("convert needs distinct source and destination paths")
        src_storage = storage_for(src)
        if args.to is not None:
            target = args.to
        elif dst.suffix.lower() in COLUMNAR_SUFFIXES:
            target = "columnar"
        elif dst.suffix.lower() in {".jsonl", ".ndjson", ".json"}:
            target = "jsonl"
        else:
            target = "jsonl" if src_storage.format == "columnar" else "columnar"
        if dst.exists() and not args.force:
            raise StorageError(f"{dst} already exists; pass --force to overwrite it")
        # Write to a sibling temp file and rename into place (the
        # checkpoint's tmp+fsync+rename pattern): a crash mid-convert — or
        # mid --force overwrite — can never leave a torn file where a valid
        # one stood.
        tmp = dst.with_name(dst.name + ".convert-tmp")
        if tmp.resolve() == src.resolve():
            raise StorageError("convert needs distinct source and destination paths")
        try:
            count = storage_for(tmp, format=target).save(src_storage.iter_load())
            with tmp.open("rb") as handle:
                os.fsync(handle.fileno())
            os.replace(tmp, dst)
        except OSError as exc:
            raise StorageError(f"could not write {dst}: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"Converted {count} detections: {src} ({src_storage.format}) -> {dst} ({target})")
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run the campaign service until interrupted; exit gracefully.

    SIGTERM is translated into :class:`KeyboardInterrupt` so ``kill`` and
    Ctrl-C take the same path: stop accepting requests, cancel in-flight
    campaigns (each checkpoints its last shard boundary and stays
    resumable), then close the sockets.
    """
    import signal

    from repro.service.api import ReproServiceServer

    def _sigterm(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    try:
        server = ReproServiceServer(
            (args.host, args.port),
            data_dir=args.data_dir,
            max_parallel=args.max_parallel,
            verbose=args.verbose,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    previous = signal.signal(signal.SIGTERM, _sigterm)
    print(f"serving campaigns at {server.base_url} (data dir: {args.data_dir})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: checkpointing in-flight campaigns...", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
    return 0


def _daemon(args: argparse.Namespace) -> int:
    """Run the continuous-recrawl daemon until done or interrupted.

    SIGTERM takes the same path as Ctrl-C (exactly like ``serve``): the tick
    in flight stops at its next shard boundary's checkpoint, and the next
    daemon run over the same --dir resumes byte-identically.  Every exit
    closes the daemon, releasing the pool it keeps between ticks.
    """
    import signal
    import threading

    from repro.daemon import RecrawlDaemon, TickReport, parse_rules

    def _sigterm(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    try:
        config = ExperimentConfig(
            total_sites=args.sites,
            seed=args.seed,
            workers=args.workers,
            crawl_backend=args.backend,
            sink_flush_every=args.flush_every,
            fast_path=not args.slow_path,
            shard_oversubscribe=args.oversubscribe,
            store_format=args.store_format,
            shard_retries=args.shard_retries,
            shard_timeout=args.shard_timeout,
        )
        daemon = RecrawlDaemon(
            args.dir,
            config,
            metrics=tuple(args.metrics),
            rules=parse_rules(args.threshold),
            target_days=args.days,
            retention_days=args.retention_days,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def _report(report: TickReport) -> None:
        if report.status == "failed":
            print(f"tick failed: {report.error} (backing off, will retry)",
                  file=sys.stderr, flush=True)
            return
        if report.status == "complete":
            print(
                f"campaign complete at day {report.horizon} "
                f"({report.detections} detections)",
                flush=True,
            )
            return
        label = "discovery pass" if report.day == 0 else f"crawl day {report.day}"
        print(f"{label} done: {report.detections} detections total", flush=True)
        for alert in report.alerts:
            print(f"ALERT {alert['message']}", flush=True)

    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, _sigterm)
    print(f"recrawl daemon: campaign at {daemon.workdir}", flush=True)
    try:
        daemon.run(
            max_ticks=args.ticks,
            interval=args.interval,
            stop_event=stop,
            on_tick=_report,
        )
    except KeyboardInterrupt:
        print("daemon interrupted: campaign checkpointed and resumable", flush=True)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
        daemon.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        offline = set(_metric_names_for(_OFFLINE_CONTEXT))
        historical_only = set(_metric_names_for(_HISTORICAL_CONTEXT))
        for metric in iter_metrics():
            if metric.name in offline:
                availability = "offline"
            elif metric.name in historical_only:
                availability = "historical"
            else:
                availability = "run-only"
            print(f"{metric.name:<10} {availability:<10} {metric.title}  [{metric.ref}]")
        return 0

    if args.command == "historical":
        config = ExperimentConfig(
            total_sites=max(400, args.sites),
            seed=args.seed,
            historical_sites=args.sites,
        )
        historical = ExperimentRunner(config).run_historical()
        context = AnalysisContext(historical=historical)
        print(compute_metric("fig04", context).text)
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "daemon":
        return _daemon(args)

    if args.command == "convert":
        return _convert(args)

    if args.command == "analyze":
        try:
            if args.watch:
                return _watch(
                    storage_for(args.path), args.figures,
                    interval=args.interval, rounds=args.watch_rounds,
                )
            dataset = CrawlDataset.from_path(args.path)
            _print_artifacts(args.figures, AnalysisContext.offline(dataset))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.checkpoint is not None and args.save is None:
        parser.error("--checkpoint requires --save (resume recovers the sink file)")
    import signal

    def _sigterm(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    # SIGTERM takes the Ctrl-C path, so the engine's context managers shut
    # pool workers down instead of orphaning them; a checkpointed campaign
    # resumes from its last recorded shard boundary either way.
    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        config = ExperimentConfig(
            total_sites=args.sites,
            recrawl_days=args.days,
            seed=args.seed,
            workers=args.workers,
            crawl_backend=args.backend,
            sink_flush_every=args.flush_every,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            fast_path=not args.slow_path,
            shard_oversubscribe=args.oversubscribe,
            store_format=args.store_format,
            shard_retries=args.shard_retries,
            shard_timeout=args.shard_timeout,
            retry_backoff=args.retry_backoff,
            fault_spec=args.inject_faults,
            fault_log=args.fault_log,
        )
        storage = storage_for(args.save, format=args.store_format) if args.save else None
        artifacts = ExperimentRunner(config).run(storage=storage)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    if storage is not None:
        print(f"Streamed {len(artifacts.longitudinal.all_detections)} detections "
              f"to {storage.path}\n")
    _print_supervision(artifacts.longitudinal)
    try:
        _print_artifacts(args.figures, AnalysisContext.from_artifacts(artifacts))
    except ReproError as exc:
        # A heavily degraded run may not have enough data for the requested
        # artefacts (e.g. an empty dataset); the quarantine report above
        # already told the operator what happened.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if artifacts.longitudinal.degraded else 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
