"""Load-test harness for the crawl-as-a-service HTTP campaign server.

Starts an in-process service (the same ``ThreadingHTTPServer`` that
``hbrepro serve`` runs), submits a campaign, and hammers the read API from
concurrent clients while the crawl streams detections into its sink —
measuring what the service adds on top of the crawl itself:

* ``campaign`` — end-to-end wall time of the submitted crawl and its
  detections/s throughput, with concurrent readers attached the whole time;
* ``live_queries`` — requests/s and latency quantiles for detection queries,
  campaign polls and live metric (``table1``) computations issued *while*
  the crawl is running, i.e. against a store whose indices are being
  extended concurrently;
* ``post_queries`` — the same mix against the finished campaign (the
  steady-state read path);
* ``events`` — the SSE stream's event count and time-to-first-progress;
* ``download`` — throughput of the raw ``detections.jsonl`` artifact fetch.

Every phase also asserts the service's correctness contract — the
downloaded sink is byte-identical to a direct ``ExperimentRunner`` run of
the same configuration, served metric text matches a locally-computed
metric, and the SSE final snapshot equals an ``analyze`` over the finished
sink — so the harness doubles as a smoke test.  CI runs it with ``--smoke``
(tiny campaign, fewer clients) producing ``BENCH_service.smoke.json``.

Run with::

    PYTHONPATH=src python benchmarks/service.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import compute_metric
from repro.crawler.storage import CrawlStorage
from repro.experiments.runner import ExperimentRunner
from repro.service import ServiceClient, running_server
from repro.service.campaigns import campaign_config_from_dict

#: The query mix one reader thread cycles through (name, method-args).
QUERY_MIX = (
    ("poll", lambda client, cid: client.campaign(cid)),
    ("page", lambda client, cid: client.detections(cid, limit=100)),
    ("hb_page", lambda client, cid: client.detections(cid, hb="true", limit=100)),
    ("day_page", lambda client, cid: client.detections(cid, crawl_day=0, limit=100)),
    ("rank_bin", lambda client, cid: client.detections(cid, rank_bin=1, bin_size=100)),
    ("metric", lambda client, cid: client.artifact(cid, "table1")),
)


def _quantiles(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    return {
        "count": len(samples),
        "mean_ms": round(statistics.fmean(ordered) * 1e3, 3),
        "p50_ms": round(ordered[len(ordered) // 2] * 1e3, 3),
        "p95_ms": round(ordered[int(len(ordered) * 0.95)] * 1e3, 3),
        "max_ms": round(ordered[-1] * 1e3, 3),
    }


class _ReaderPool:
    """Concurrent clients cycling the query mix until told to stop."""

    def __init__(self, base_url: str, campaign_id: str, threads: int) -> None:
        self.base_url = base_url
        self.campaign_id = campaign_id
        self.stop = threading.Event()
        self.latencies: dict[str, list[float]] = {name: [] for name, _ in QUERY_MIX}
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._loop, name=f"reader-{i}", daemon=True)
            for i in range(threads)
        ]

    def _loop(self) -> None:
        client = ServiceClient(self.base_url)
        local: dict[str, list[float]] = {name: [] for name, _ in QUERY_MIX}
        i = 0
        while not self.stop.is_set():
            name, call = QUERY_MIX[i % len(QUERY_MIX)]
            i += 1
            start = time.perf_counter()
            try:
                call(client, self.campaign_id)
            except Exception as exc:  # noqa: BLE001 - recorded, fails the run later
                # A metric over a campaign that has not flushed its first
                # detection yet is a legitimate 409 (empty dataset), not a
                # service failure — skip the sample and move on.
                status = getattr(exc, "status", None)
                if status == 409:
                    continue
                with self._lock:
                    self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                return
            local[name].append(time.perf_counter() - start)
        with self._lock:
            for name, samples in local.items():
                self.latencies[name].extend(samples)

    def run_for(self, condition, *, poll: float = 0.02) -> float:
        """Run readers until ``condition()`` is true; return elapsed seconds."""
        start = time.perf_counter()
        for t in self._threads:
            t.start()
        while not condition():
            time.sleep(poll)
        elapsed = time.perf_counter() - start
        self.stop.set()
        for t in self._threads:
            t.join(timeout=30)
        return elapsed

    def report(self, elapsed: float) -> dict:
        total = sum(len(s) for s in self.latencies.values())
        return {
            "threads": len(self._threads),
            "requests": total,
            "requests_per_s": round(total / elapsed, 1) if elapsed else 0.0,
            "latency": {name: _quantiles(s) for name, s in self.latencies.items()},
        }


def run_benchmark(*, smoke: bool) -> dict:
    body = (
        {"sites": 60, "days": 1, "seed": 19, "flush_every": 8}
        if smoke
        else {"sites": 1200, "days": 2, "seed": 19, "workers": 2, "flush_every": 16}
    )
    reader_threads = 2 if smoke else 4
    post_rounds = 2 if smoke else 8
    report: dict = {
        "name": "service",
        "config": {
            "campaign": body,
            "reader_threads": reader_threads,
            "smoke": smoke,
            "python": sys.version.split()[0],
        },
    }

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        with running_server(tmp_path / "campaigns") as server:
            client = ServiceClient(server.base_url)

            # --- live phase: crawl with concurrent readers + one SSE consumer
            submitted = client.submit(body)
            cid = submitted["id"]
            sse: dict = {}

            def consume_events() -> None:
                start = time.perf_counter()
                first = None
                count = 0
                for event, payload in client.events(cid, artifacts=("table1",), interval=0.05):
                    count += 1
                    if event == "progress" and payload["detections"] and first is None:
                        first = time.perf_counter() - start
                    if event == "metrics" and payload.get("final"):
                        sse["final_table1"] = payload["artifacts"]["table1"]
                sse["events"] = count
                sse["first_progress_s"] = round(first, 4) if first is not None else None

            sse_thread = threading.Thread(target=consume_events, daemon=True)
            sse_thread.start()
            pool = _ReaderPool(server.base_url, cid, reader_threads)
            elapsed = pool.run_for(
                lambda: client.campaign(cid)["state"] in ("done", "failed", "cancelled")
            )
            sse_thread.join(timeout=60)
            final = client.campaign(cid)
            assert final["state"] == "done", final
            assert not pool.errors, pool.errors
            detections = final["detections"]["indexed"]
            report["campaign"] = {
                "wall_s": round(elapsed, 3),
                "detections": detections,
                "detections_per_s": round(detections / elapsed, 1),
            }
            report["live_queries"] = pool.report(elapsed)
            report["events"] = sse

            # --- post phase: the same mix against the finished campaign
            post = _ReaderPool(server.base_url, cid, reader_threads)
            target = post_rounds * len(QUERY_MIX) * reader_threads
            post_elapsed = _run_post(post, target)
            assert not post.errors, post.errors
            report["post_queries"] = post.report(post_elapsed)

            # --- download throughput + correctness contract
            start = time.perf_counter()
            served = client.download(cid)
            download_s = time.perf_counter() - start
            report["download"] = {
                "bytes": len(served),
                "mb_per_s": round(len(served) / 1e6 / download_s, 1) if download_s else None,
            }

            reference_path = tmp_path / "reference.jsonl"
            ExperimentRunner(campaign_config_from_dict(body)).run(storage=CrawlStorage(reference_path))
            assert served == reference_path.read_bytes(), "served sink diverged from direct run"
            context = AnalysisContext.offline(CrawlDataset.from_jsonl(reference_path))
            expected = compute_metric("table1", context).text
            assert client.artifact(cid, "table1")["text"] == expected, "served metric diverged"
            assert sse.get("final_table1") == expected, "SSE final snapshot diverged from analyze"
            report["checks"] = {
                "sink_byte_identical": True,
                "metric_text_identical": True,
                "sse_final_snapshot_identical": True,
            }
    return report


def _run_post(pool: _ReaderPool, target_requests: int) -> float:
    """Run a reader pool until it has issued ``target_requests`` in total."""
    start = time.perf_counter()
    for t in pool._threads:
        t.start()
    # Request counts live in thread-local lists until a reader exits, so the
    # pool is simply given a fixed time slice scaled to the target instead of
    # polling shared counters on the hot path.
    while time.perf_counter() - start < max(0.5, target_requests / 2000):
        time.sleep(0.02)
    pool.stop.set()
    for t in pool._threads:
        t.join(timeout=30)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny workload for CI")
    parser.add_argument("--out", metavar="PATH", default=None, help="report path override")
    args = parser.parse_args(argv)

    report = run_benchmark(smoke=args.smoke)
    default = "BENCH_service.smoke.json" if args.smoke else "BENCH_service.json"
    out = Path(args.out) if args.out else Path(__file__).resolve().parent.parent / default
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=1))
    print(f"\nwrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
