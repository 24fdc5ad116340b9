"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapper sits on a public function of one module of ``src/repro``, with
two exceptions where no public function marks the boundary: the service's
request handler (the only place a request's server-side time is visible)
and the process pool's executor factory (where the pool and its shared
payload are built).  ``install`` and ``install_service`` patch them into a
:class:`~tracer.Tracer`; ``layer_metrics`` turns the recorded spans and
counters of one or more processes into the flat per-layer metric set that
``BENCHMARK.json`` lists under ``per_layer``.  A layer the workload does not
exercise reports 0 (for example ``colstore.*`` on the JSONL ``campaign``).
"""

from __future__ import annotations

import statistics
import weakref
from collections import defaultdict
from typing import Iterable

from tracer import Tracer, self_times

__all__ = ["PER_LAYER", "install", "install_service", "layer_metrics"]

#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: dict[str, str] = {
    "cli.import_s": "s",
    "experiments.population_s": "s",
    "experiments.detector_s": "s",
    "profiles.precompile_s": "s",
    "profiles.compiles": "count",
    "profiles.compiles_per_site": "ratio",
    "columnar.shard_self_s": "s",
    "columnar.shards": "count",
    "detector.detect_s": "s",
    "detector.calls": "count",
    "storage.write_s": "s",
    "storage.flush_s": "s",
    "storage.flushes": "count",
    "storage.bytes_per_detection": "B",
    "colstore.flush_s": "s",
    "colstore.chunks": "count",
    "colstore.read_s": "s",
    "colstore.bytes_read": "B",
    "colstore.bytes_per_detection": "B",
    "checkpoint.resume_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.saves": "count",
    "engine.prepare_s": "s",
    "engine.execute_s": "s",
    "engine.shutdown_s": "s",
    "engine.merge_s": "s",
    "engine.retries": "count",
    "engine.pool_rebuilds": "count",
    "analysis.compute_s": "s",
    "analysis.computes": "count",
    "dataset.extend_s": "s",
    "store.query_s": "s",
    "store.scanned_per_returned": "ratio",
    "store.compute_artifact_s": "s",
    "store.refresh_s": "s",
    "api.overhead_ms": "ms",
    "route.detections_p50_ms": "ms",
    "route.artifact_p50_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries (imports ``repro`` lazily)."""
    from repro.analysis.dataset import CrawlDataset
    from repro.analysis.registry import FunctionMetric
    from repro.crawler import colstore
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.crawler.crawler import Crawler
    from repro.crawler.engine import ProcessPoolBackend
    from repro.crawler.storage import DetectionSink
    from repro.detector.detector import HBDetector
    from repro.ecosystem import columnar
    from repro.ecosystem.profiles import SiteProfileTable
    from repro.experiments.runner import ExperimentRunner

    counters = tracer.counters
    patch = tracer.patch

    def count(key: str):
        def after(result, args, kwargs) -> None:
            counters[key] += 1

        return after

    patch(ExperimentRunner, "build_population", "build_population", "experiments")
    patch(ExperimentRunner, "build_environment", "build_environment", "experiments")
    patch(ExperimentRunner, "build_detector", "build_detector", "experiments")

    # Compiles are read from the table's public counter as a delta since the
    # table was last seen, so compiles outside precompile are not lost.
    seen_compiles: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    sites: set[str] = set()

    def after_precompile(result, args, kwargs) -> None:
        table, publishers = args[0], args[1]
        counters["profiles.compiles"] += table.compiles - seen_compiles.get(table, 0)
        seen_compiles[table] = table.compiles
        sites.update(p.domain for p in publishers)
        counters["profiles.sites"] = len(sites)

    patch(SiteProfileTable, "precompile", "precompile", "profiles", after=after_precompile)
    patch(columnar, "simulate_shard_columnar", "simulate_shard", "columnar",
          after=count("columnar.shards"))
    patch(HBDetector, "detect_from_observations", "detect", "detector",
          after=count("detector.calls"))

    def after_close(prefix: str):
        def after(result, args, kwargs) -> None:
            sink = args[0]
            counters[f"{prefix}.flushes"] += sink.flushes
            if not sink.append:
                counters[f"{prefix}.detections"] += sink.count
                counters[f"{prefix}.bytes"] += sink.offset

        return after

    patch(DetectionSink, "write", "write", "storage")
    patch(DetectionSink, "flush", "flush", "storage")
    patch(DetectionSink, "close", "close", "storage", after=after_close("storage"))

    def after_read_new(result, args, kwargs) -> None:
        offset = args[1] if len(args) > 1 else kwargs.get("offset", 0)
        counters["colstore.bytes_read"] += result[1] - offset

    def after_recover(result, args, kwargs) -> None:
        counters["colstore.bytes_read"] += args[1] if len(args) > 1 else kwargs["offset"]

    def after_load(result, args, kwargs) -> None:
        counters["colstore.bytes_read"] += args[0].size()

    patch(colstore.ColumnarDetectionSink, "flush", "flush", "colstore")
    patch(colstore.ColumnarDetectionSink, "close", "close", "colstore",
          after=after_close("colstore"))
    patch(colstore.ColumnarStorage, "read_new", "read_new", "colstore", after=after_read_new)
    patch(colstore.ColumnarStorage, "recover_to", "recover_to", "colstore", after=after_recover)
    patch(colstore.ColumnarStorage, "load", "load", "colstore", after=after_load)

    patch(CrawlCheckpointer, "resume", "resume", "checkpoint")
    patch(CrawlCheckpointer, "save", "save", "checkpoint", after=count("checkpoint.saves"))

    # Pool start: prepare records the context, the executor (with the
    # shared env/detector/config payload) is built on first use, and each
    # crawl publishes its site list.  execute is a generator: its spans
    # cover dispatch and the wait for each result, not the consumer.
    patch(ProcessPoolBackend, "prepare", "prepare", "engine")
    patch(ProcessPoolBackend, "_make_executor", "make_executor", "engine")
    patch(ProcessPoolBackend, "publish_sites", "publish_sites", "engine")
    patch(ProcessPoolBackend, "execute", "execute", "engine")
    patch(ProcessPoolBackend, "shutdown", "shutdown", "engine")

    def after_phase(result, args, kwargs) -> None:
        counters["engine.retries"] += result.retries
        counters["engine.pool_rebuilds"] += result.pool_rebuilds

    patch(Crawler, "crawl_domains", "crawl_domains", "crawler", after=after_phase)
    patch(FunctionMetric, "compute", "compute_metric", "analysis",
          after=count("analysis.computes"))
    patch(CrawlDataset, "extend", "extend", "dataset")


def install_service(tracer: Tracer) -> None:
    """Wrap the service's store and route layers (inside the server process)."""
    from repro.service import api
    from repro.service.store import DetectionQuery, DetectionStore

    counters = tracer.counters
    original_query = DetectionStore.query
    hb_totals: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def after_query(result, args, kwargs) -> None:
        store, query = args[0], args[1]
        if query.partner is not None or query.facet is not None or query.hb is True:
            # Those filters scan the HB-only index; its size is memoised per
            # store size (one unwrapped query, outside the recorded span).
            known = hb_totals.get(store)
            if known is None or known[0] != store.count:
                known = (store.count, original_query(store, DetectionQuery(hb=True, limit=1))["total"])
                hb_totals[store] = known
            scanned = known[1]
        else:
            scanned = store.count
        counters["store.scanned"] += scanned
        counters["store.returned"] += result["count"]

    tracer.patch(DetectionStore, "query", "query", "store", after=after_query)
    tracer.patch(DetectionStore, "compute_artifact", "compute_artifact", "store")
    tracer.patch(DetectionStore, "refresh", "refresh", "store")

    handler = api._ServiceHandler
    traced_get = tracer.wrap(handler.do_GET, "GET", "route")

    def do_get(request) -> None:
        # The request path is the unit every span of this request carries;
        # the load generator pairs its own timings with it.
        tracer.set_thread_unit(request.path)
        try:
            traced_get(request)
        finally:
            tracer.set_thread_unit(None)

    handler.do_GET = do_get


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(dumps: Iterable[dict]) -> dict[str, float]:
    """The per-layer metric values over every process's spans and counters."""
    dumps = list(dumps)
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    route_spans: list[tuple[tuple, float]] = []  # (span, self seconds)
    client_spans: list[tuple] = []
    for dump in dumps:
        own = self_times(dump["spans"])
        for span in dump["spans"]:
            self_s[(span[3], span[2])] += own[span[0]]
            if span[3] == "route":
                route_spans.append((span, own[span[0]]))
            elif span[3] == "client":
                client_spans.append(span)
        for key, value in dump["counters"].items():
            counters[key] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    detections = [s[5] - s[4] for s, _ in route_spans if s[7].split("?")[0].endswith("/detections")]
    # Artifact reads only: the sink download is an artifact path too.
    artifacts = [s[5] - s[4] for s, _ in route_spans
                 if "/artifacts/" in s[7] and not s[7].endswith(".jsonl")]

    # Pair each client request with the server span of the same path that it
    # encloses; overhead = client latency minus the store's share of it (the
    # route span's time not spent in its own code: HTTP, routing and JSON
    # encoding are what remains).
    by_path: dict[str, list[tuple[tuple, float]]] = defaultdict(list)
    for span, own in route_spans:
        by_path[span[7]].append((span, own))
    overheads: list[float] = []
    for client in client_spans:
        candidates = by_path.get(client[8]["path"], [])
        for position, (server, own) in enumerate(candidates):
            if server[4] >= client[4] and server[5] <= client[5]:
                store_time = (server[5] - server[4]) - own
                overheads.append((client[5] - client[4]) - store_time)
                del candidates[position]
                break

    values = {
        "experiments.population_s": self_s[("experiments", "build_population")],
        "experiments.detector_s": self_s[("experiments", "build_environment")]
        + self_s[("experiments", "build_detector")],
        "profiles.precompile_s": self_s[("profiles", "precompile")],
        "profiles.compiles": counters["profiles.compiles"],
        "profiles.compiles_per_site": ratio(counters["profiles.compiles"], counters["profiles.sites"]),
        "columnar.shard_self_s": self_s[("columnar", "simulate_shard")],
        "columnar.shards": counters["columnar.shards"],
        "detector.detect_s": self_s[("detector", "detect")],
        "detector.calls": counters["detector.calls"],
        "storage.write_s": self_s[("storage", "write")],
        "storage.flush_s": self_s[("storage", "flush")] + self_s[("storage", "close")],
        "storage.flushes": counters["storage.flushes"],
        "storage.bytes_per_detection": ratio(counters["storage.bytes"], counters["storage.detections"]),
        "colstore.flush_s": self_s[("colstore", "flush")] + self_s[("colstore", "close")],
        "colstore.chunks": counters["colstore.flushes"],
        "colstore.read_s": self_s[("colstore", "read_new")] + self_s[("colstore", "recover_to")]
        + self_s[("colstore", "load")],
        "colstore.bytes_read": counters["colstore.bytes_read"],
        "colstore.bytes_per_detection": ratio(counters["colstore.bytes"], counters["colstore.detections"]),
        "checkpoint.resume_s": self_s[("checkpoint", "resume")],
        "checkpoint.save_s": self_s[("checkpoint", "save")],
        "checkpoint.saves": counters["checkpoint.saves"],
        "engine.prepare_s": self_s[("engine", "prepare")] + self_s[("engine", "make_executor")]
        + self_s[("engine", "publish_sites")],
        "engine.execute_s": self_s[("engine", "execute")],
        "engine.shutdown_s": self_s[("engine", "shutdown")],
        "engine.merge_s": self_s[("crawler", "crawl_domains")],
        "engine.retries": counters["engine.retries"],
        "engine.pool_rebuilds": counters["engine.pool_rebuilds"],
        "analysis.compute_s": self_s[("analysis", "compute_metric")],
        "analysis.computes": counters["analysis.computes"],
        "dataset.extend_s": self_s[("dataset", "extend")],
        "store.query_s": self_s[("store", "query")],
        "store.scanned_per_returned": ratio(counters["store.scanned"], counters["store.returned"]),
        "store.compute_artifact_s": self_s[("store", "compute_artifact")],
        "store.refresh_s": self_s[("store", "refresh")],
        "api.overhead_ms": _p50_ms(overheads),
        "route.detections_p50_ms": _p50_ms(detections),
        "route.artifact_p50_ms": _p50_ms(artifacts),
        "trace.spans": float(sum(len(d["spans"]) for d in dumps)),
    }
    return values
