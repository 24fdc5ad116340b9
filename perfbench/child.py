"""Fresh-interpreter units of the benchmark: one role per invocation.

``run.py`` starts each role in its own interpreter so every set-up it times
is a cold start.  A role that does set-up prints ``READY`` once set-up is
done (the parent times spawn-to-``READY``), then does its measured work and
prints one JSON result line last.  ``--trace-out PATH`` installs the layer
wrappers first and writes the recorded spans to ``PATH`` at exit.

Roles::

    import-probe                      time a fresh ``import repro.cli``
    campaign  --sink P --sites N --days D --seed S [--setup-only]
    daemon    --workdir W --sites N --ticks M --seed S [--setup-only]
    serve     --data-dir D            ``hbrepro serve`` on a free port
    sink-summary --sink P [--metrics ...] [--candidates BIN_SIZE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

from tracer import Tracer

#: Pool workers the daemon workload crawls with (the host has 2 CPUs).
DAEMON_WORKERS = 2


def _peak_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ready() -> None:
    print("READY", flush=True)


def _start_tracer(path: str | None, *, service: bool = False) -> Tracer | None:
    if path is None:
        return None
    import layers

    tracer = Tracer()
    layers.install(tracer)
    if service:
        layers.install_service(tracer)
    tracer.active = True
    return tracer


def _finish(tracer: Tracer | None, path: str | None, process: str, result: dict) -> None:
    if tracer is not None:
        tracer.active = False
        tracer.dump(path, process=process)
    print(json.dumps(result), flush=True)


def import_probe(args: argparse.Namespace) -> None:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    print(json.dumps({"import_s": time.perf_counter() - start}), flush=True)


def campaign(args: argparse.Namespace) -> None:
    """The cold serial campaign of ``hbrepro run --save X.jsonl --figures table1``."""
    tracer = _start_tracer(args.trace_out)
    from repro.analysis.context import AnalysisContext
    from repro.analysis.dataset import CrawlDataset
    from repro.analysis.registry import compute_metric
    from repro.crawler.colstore import storage_for
    from repro.crawler.crawler import Crawler
    from repro.crawler.scheduler import LongitudinalScheduler
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentArtifacts, ExperimentRunner

    config = ExperimentConfig(total_sites=args.sites, recrawl_days=args.days, seed=args.seed)
    runner = ExperimentRunner(config)
    population = runner.build_population()
    environment = runner.build_environment(population)
    detector = runner.build_detector(population)
    storage = storage_for(args.sink, format="jsonl")
    with Crawler(environment, detector, config.crawl_config()) as crawler:
        _ready()
        if args.setup_only:
            return
        phases: list[dict] = []
        crawl_domains = crawler.crawl_domains

        def timed_phase(*a, **kw):
            if tracer is not None:
                tracer.unit = f"day-{kw['crawl_day']}"
            start = time.perf_counter()
            result = crawl_domains(*a, **kw)
            phases.append({"day": kw["crawl_day"], "s": time.perf_counter() - start,
                           "pages": result.pages_visited,
                           "detections": len(result.detections),
                           "degraded": result.degraded})
            return result

        crawler.crawl_domains = timed_phase
        start = time.perf_counter()
        with storage.open_sink(flush_every=config.sink_flush_every) as sink:
            longitudinal = LongitudinalScheduler(crawler, recrawl_days=args.days).run(
                population, sink=sink
            )
        written = sink.count
    if tracer is not None:
        tracer.unit = "table1"
    dataset = CrawlDataset.from_detections(
        longitudinal.all_detections, label=f"crawl-{config.total_sites}"
    )
    artifacts = ExperimentArtifacts(
        config=config, population=population, environment=environment,
        detector=detector, longitudinal=longitudinal, dataset=dataset,
    )
    table1 = compute_metric("table1", AnalysisContext.from_artifacts(artifacts)).text
    wall = time.perf_counter() - start
    _finish(tracer, args.trace_out, "campaign", {
        "wall_s": wall,
        "phases": phases,
        "pages": longitudinal.pages_visited,
        "detections": len(longitudinal.all_detections),
        "written": written,
        "degraded": longitudinal.degraded,
        "table1": table1,
        "peak_rss_mb": _peak_mb(),
    })


def daemon(args: argparse.Namespace) -> None:
    """Bootstrap a recrawl daemon (set-up), then time ``--ticks`` ticks."""
    tracer = _start_tracer(args.trace_out)
    from repro.crawler.colstore import storage_for
    from repro.daemon import RecrawlDaemon
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(
        total_sites=args.sites, seed=args.seed, store_format="columnar",
        workers=DAEMON_WORKERS, crawl_backend="process",
    )
    if tracer is not None:
        tracer.unit = "bootstrap"
    rig = RecrawlDaemon(args.workdir, config)
    boot = rig.tick()
    _ready()
    if args.setup_only:
        return
    ticks: list[dict] = []
    detections = boot.detections
    start = time.perf_counter()
    for index in range(args.ticks):
        if tracer is not None:
            tracer.unit = f"tick-{index + 1}"
        began = time.perf_counter()
        report = rig.tick()
        ticks.append({"s": time.perf_counter() - began, "status": report.status,
                      "day": report.day, "pages": report.detections - detections,
                      "detections": report.detections})
        detections = report.detections
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    # Checks (outside the timed phase): the partitions add up to the sink,
    # and the supervision log recorded no retry, rebuild or quarantine.
    partitions = sorted(rig.partitions_dir.iterdir())
    partition_detections = sum(len(storage_for(p).load()) for p in partitions)
    sink_detections = len(storage_for(rig.sink_path).load())
    faults = rig.fault_log_path.read_text().splitlines() if rig.fault_log_path.exists() else []
    _finish(tracer, args.trace_out, "daemon", {
        "wall_s": wall,
        "bootstrap": {"status": boot.status, "detections": boot.detections},
        "ticks": ticks,
        "partitions": len(partitions),
        "partition_detections": partition_detections,
        "sink_detections": sink_detections,
        "supervision_events": len(faults),
        # Pool workers are reaped children; the two run at once.
        "peak_rss_mb": _peak_mb() + DAEMON_WORKERS * _peak_mb(resource.RUSAGE_CHILDREN),
    })


def serve(args: argparse.Namespace) -> None:
    """``hbrepro serve --port 0``; SIGTERM stops it (the CLI's own handling)."""
    tracer = _start_tracer(args.trace_out, service=True)
    from repro.cli import main

    code = main(["serve", "--port", "0", "--data-dir", args.data_dir])
    _finish(tracer, args.trace_out, "server", {"exit": code, "peak_rss_mb": _peak_mb()})


def _filter_total(records: list[dict], query: dict) -> int:
    """How many records match a /detections filter, evaluated independently
    of the service's own query code."""
    total = 0
    for r in records:
        if "hb" in query and r["hb_detected"] != (query["hb"] == "true"):
            continue
        if "partner" in query and query["partner"] not in r["partners"]:
            continue
        if "crawl_day" in query and r["crawl_day"] != query["crawl_day"]:
            continue
        if "rank_bin" in query and (r["rank"] - 1) // query["bin_size"] != query["rank_bin"]:
            continue
        total += 1
    return total


def sink_summary(args: argparse.Namespace) -> None:
    """Count, sha256 and rendered metrics of a saved sink; with
    ``--candidates BIN_SIZE`` also every /detections filter the read mix may
    draw, with its expected total over the sink."""
    from repro.analysis.context import AnalysisContext
    from repro.analysis.dataset import CrawlDataset
    from repro.analysis.registry import compute_metric

    path = Path(args.sink)
    raw = path.read_bytes()
    dataset = CrawlDataset.from_path(path)
    context = AnalysisContext.offline(dataset)
    result: dict = {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "bytes": len(raw),
        "detections": len(dataset),
        "metrics": {name: compute_metric(name, context).text for name in args.metrics},
    }
    if args.candidates:
        records = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        bins = max(r["rank"] for r in records) // args.candidates + 1
        filters = [{"kind": "unfiltered"}, {"kind": "hb", "hb": "true"}]
        filters += [{"kind": "partner", "partner": p}
                    for p in sorted({p for r in records for p in r["partners"]})]
        filters += [{"kind": "crawl_day", "crawl_day": d}
                    for d in sorted({r["crawl_day"] for r in records})]
        filters += [{"kind": "rank_bin", "rank_bin": b, "bin_size": args.candidates}
                    for b in range(bins)]
        result["filters"] = filters
        result["totals"] = [_filter_total(records, f) for f in filters]
    print(json.dumps(result), flush=True)


ROLES = {
    "import-probe": import_probe,
    "campaign": campaign,
    "daemon": daemon,
    "serve": serve,
    "sink-summary": sink_summary,
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--sink")
    parser.add_argument("--workdir")
    parser.add_argument("--data-dir")
    parser.add_argument("--sites", type=int)
    parser.add_argument("--days", type=int)
    parser.add_argument("--ticks", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--metrics", nargs="*", default=[])
    parser.add_argument("--candidates", type=int)
    args = parser.parse_args(argv)
    ROLES[args.role](args)


if __name__ == "__main__":
    main()
