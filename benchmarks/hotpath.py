"""Hot-path benchmark harness: columnar simulation, worker reuse, indices, sink.

Measures the crawl hot paths and writes a machine-readable JSON report
(``BENCH_crawl_hotpath.json`` at the repo root by default) so later changes
can track the perf trajectory:

* ``crawl`` — pages/s per backend.  ``serial`` reports the reference
  simulator (``fast_path=False``) and the columnar simulator (the default)
  cold and warm — ``pages_per_s`` is the steady state a longitudinal
  campaign pays per day and ``fast_over_slow`` its speedup over the
  reference simulator, measured in the same run so the ratio is
  machine-independent; the process backend reports cold vs warm plus
  ``process.over_serial`` (process warm / serial warm) and
  ``process.worker_pages_per_s`` (throughput inside the workers, separating
  the simulation hot path from the single-core IPC tax).
* ``worker_ship`` — bytes crossing the process boundary: the one-time
  shared-memory payload and site-list blocks versus the old
  per-shard-per-crawl pickling.
* ``index`` — detections/s for a cold full re-analysis vs an incremental
  ``extend()`` + re-access of every index, with the rebuild counts proving
  the warm path never rebuilds.
* ``sink`` — detections/s through an unbuffered (``flush_every=1``) vs a
  buffered sink, and end-to-end pages/s of a parallel crawl streaming to
  each; the produced files are asserted byte-identical.
* ``match_host`` — partner-list lookups/s cold vs memoised.

Every timed section also asserts the optimisation's correctness contract
(columnar simulator byte-identical to the reference simulator, byte-identical
detections/files across backends, incremental == rebuilt), so the harness
doubles as a smoke test: CI runs it with ``--smoke`` (tiny workload, one
iteration) to keep it from rotting, and with ``--check-baseline`` to fail on
a >30% throughput regression against the committed report.

Every run also appends a timestamped entry to ``BENCH_trajectory.json``
comparing itself against the committed baseline, so the history of the hot
path survives each report overwrite.

Run with::

    PYTHONPATH=src python benchmarks/hotpath.py [--smoke] [--out PATH]
        [--check-baseline] [--max-regression 0.30]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.analysis.dataset import CrawlDataset
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.storage import CrawlStorage, detection_to_dict
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.ecosystem.registry import default_registry
from repro.hb.environment import AuctionEnvironment

SEED = 77
WORKERS = 4


def _serialise(detections):
    return json.dumps([detection_to_dict(d) for d in detections])


def _touch_indices(dataset: CrawlDataset) -> None:
    """Access every registered index (two rank-bin parameters included)."""
    dataset.hb_detections()
    dataset.sites()
    dataset.hb_sites()
    dataset.auctions()
    dataset.bids()
    dataset.priced_bids()
    dataset.by_facet()
    dataset.auctions_by_facet()
    dataset.bids_by_partner()
    dataset.partner_site_counts()
    dataset.partner_popularity_ranking()
    dataset.partner_latency_samples()
    dataset.site_latencies()
    dataset.hb_latency_values()
    dataset.hb_latencies_by_rank_bin(10)
    dataset.hb_latencies_by_rank_bin(50)
    dataset.crawl_days()
    dataset.summary()


def bench_crawl(environment, detector, publishers, repeat: int) -> dict:
    n = len(publishers)
    results: dict = {}

    # Reference simulator: every per-page input re-derived.
    with Crawler(environment, detector, CrawlConfig(seed=SEED, fast_path=False)) as engine:
        slow_result = engine.crawl(publishers)
        slow_s = min(
            [_timed(engine.crawl, publishers) for _ in range(max(1, repeat))]
        )
    reference_json = _serialise(slow_result.detections)

    # Columnar simulator (the default): whole shards seeded and stepped as
    # numpy arrays, ad pages fused onto one reusable generator.
    with Crawler(environment, detector, CrawlConfig(seed=SEED)) as engine:
        start = time.perf_counter()
        cold_result = engine.crawl(publishers)
        cold_s = time.perf_counter() - start
        assert _serialise(cold_result.detections) == reference_json, "columnar path diverged"
        serial_warm_s = min(
            [_timed(engine.crawl, publishers) for _ in range(max(1, repeat))]
        )
    results["serial"] = {
        # Steady-state throughput: what each day of a longitudinal campaign
        # pays once the profile table is compiled.  The CI gate and the
        # trajectory track it.
        "pages_per_s": round(n / serial_warm_s, 1),
        "cold_pages_per_s": round(n / cold_s, 1),
        "slow_path_pages_per_s": round(n / slow_s, 1),
        "fast_over_slow": round(slow_s / serial_warm_s, 2),
    }

    config = CrawlConfig(seed=SEED, workers=WORKERS, backend="process")
    with Crawler(environment, detector, config) as engine:
        start = time.perf_counter()
        cold_result = engine.crawl(publishers)
        cold_s = time.perf_counter() - start
        assert _serialise(cold_result.detections) == reference_json, "process backend diverged"
        warm_s = min(
            [_timed(engine.crawl, publishers) for _ in range(max(1, repeat))]
        )
        ship_counts = {
            "shared_site_tasks": engine.backend.shared_site_tasks,
            "fallback_tasks": engine.backend.fallback_tasks,
        }
    results["process"] = {
        "cold_pages_per_s": round(n / cold_s, 1),
        "warm_pages_per_s": round(n / warm_s, 1),
        "warm_over_cold": round(cold_s / warm_s, 2),
    }

    # Process-vs-serial is the regression guard the old report lacked: the
    # ratio is recorded so a slowdown cannot slip in silently.  On a
    # single-CPU host the process backend cannot exceed serial (the workers
    # and the parent share one core), so the effective parallelism is
    # recorded alongside; worker_pages_per_s isolates the in-worker hot path
    # from that scheduling tax.
    effective_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    results["process"]["over_serial"] = round(
        results["process"]["warm_pages_per_s"] / results["serial"]["pages_per_s"], 2
    )
    results["process"]["worker_pages_per_s"] = _bench_in_worker_throughput(
        environment, detector, publishers, repeat
    )
    results["process"]["effective_cpus"] = effective_cpus
    results["process"]["cpu_bound_note"] = (
        "single-CPU host: process workers and parent share one core, so "
        "over_serial < 1 is a hardware ceiling, not a software regression"
        if effective_cpus == 1
        else "multi-core host"
    )

    results["worker_ship"] = _bench_worker_ship(
        environment, detector, publishers, repeat, ship_counts
    )
    return results


def _bench_in_worker_throughput(environment, detector, publishers, repeat: int) -> float:
    """Pages/s of the simulation hot path *inside* process workers.

    Measured in CPU time (``time.process_time``), so it is undistorted by
    workers time-slicing shared cores: it answers "how fast does the worker
    hot path itself run", which is the number that regressed pre-PR-5
    (per-page object churn).  The gap between this and ``warm_pages_per_s``
    is dispatch/result IPC plus any core sharing.
    """
    import repro.crawler.engine as ce

    config = CrawlConfig(seed=SEED, workers=WORKERS, backend="process")
    plan = ce.CrawlPlan.build(
        publishers, workers=WORKERS, seed=SEED, oversubscribe=config.shard_oversubscribe
    )
    canonical = [p for shard in plan.shards for p in shard.publishers]
    payload = ce.SharedPayload((environment, detector, config))
    sites_block = ce.SharedPayload(canonical)
    n = len(publishers)
    try:
        from concurrent.futures import ProcessPoolExecutor

        # One worker on purpose: every shard lands on the same process, so
        # after the first pass its profile table is fully warm and the CPU
        # time measures the steady-state hot path, not compile noise from
        # shards hopping between workers.
        with ProcessPoolExecutor(
            max_workers=1,
            initializer=ce._init_process_worker,
            initargs=(payload.name, payload.size),
        ) as pool:
            best = None
            for _ in range(1 + max(1, repeat)):
                futures = [
                    pool.submit(
                        _timed_shared_shard,
                        sites_block.name,
                        sites_block.size,
                        shard.index,
                        shard.start,
                        len(shard.publishers),
                        shard.shard_seed,
                    )
                    for shard in plan.shards
                ]
                in_worker = sum(future.result() for future in futures)
                if best is None or in_worker < best:
                    best = in_worker
    finally:
        sites_block.release()
        payload.release()
    return round(n / best, 1)


def _timed_shared_shard(sites_name, sites_size, index, start, length, shard_seed):
    import repro.crawler.engine as ce

    begin = time.process_time()
    ce._run_shard_from_shared_sites(sites_name, sites_size, index, start, length, shard_seed, 0)
    return time.process_time() - begin


def _bench_worker_ship(environment, detector, publishers, repeat: int,
                       ship_counts: dict) -> dict:
    """Bytes crossing the process boundary, new scheme vs the old ones.

    ``ship_counts`` holds the *observed* task counters of the process
    engine's backend over the cold + warm crawls above: every submitted
    shard task either referenced the shared site list (zero publisher bytes)
    or fell back to pickling its publishers.  The counters are asserted
    here, not assumed, so a silent fall-off of the zero-copy path fails the
    harness instead of going unnoticed.
    """
    payload_bytes = len(pickle.dumps((environment, detector), protocol=pickle.HIGHEST_PROTOCOL))
    site_list_bytes = len(pickle.dumps(list(publishers), protocol=pickle.HIGHEST_PROTOCOL))
    crawls = 1 + max(1, repeat)
    assert ship_counts.get("shared_site_tasks", 0) > 0, "no shard task used the shared site list"
    assert ship_counts.get("fallback_tasks", 1) == 0, (
        f"{ship_counts.get('fallback_tasks')} shard tasks re-pickled their publishers"
    )
    return {
        # One shared-memory block for the environment/detector/config, one
        # per distinct site list — regardless of worker count or crawl count.
        "payload_bytes": payload_bytes,
        "site_list_bytes": site_list_bytes,
        "shm_ships_per_engine": 2,
        "ships_pr3_per_engine": WORKERS,  # payload pickled per worker (initargs)
        "ships_pr1_per_engine": WORKERS * crawls,  # payload per shard per crawl
        **ship_counts,
        "site_bytes_per_task": 0 if ship_counts.get("fallback_tasks") == 0 else site_list_bytes,
        "crawls_measured": crawls,
    }


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def bench_index(detections, reps: int, repeat: int) -> dict:
    # Replicate the crawl into a longitudinal-sized dataset: same sites
    # re-visited on later crawl days, which is exactly the shape extend()
    # sees when tailing a daily re-crawl.
    def day_shift(day):
        return [dataclasses.replace(d, crawl_day=d.crawl_day + day) for d in detections]

    base = [d for day in range(reps) for d in day_shift(day)]
    delta = day_shift(reps)
    n, m = len(base), len(delta)

    cold_s = []
    builds_per_pass = 0
    for _ in range(max(1, repeat)):
        cold = CrawlDataset.from_detections(base + delta)
        cold_s.append(_timed(_touch_indices, cold))
        builds_per_pass = cold.index_stats()["builds"]
    cold_best = min(cold_s)

    warm = CrawlDataset.from_detections(base)
    _touch_indices(warm)
    builds_before = warm.index_stats()["builds"]
    incr_s = _timed(lambda: (warm.extend(delta), _touch_indices(warm)))
    rebuilds = warm.index_stats()["builds"] - builds_before

    reference = CrawlDataset.from_detections(base + delta)
    assert warm.summary() == reference.summary()
    assert warm.partner_site_counts() == reference.partner_site_counts()
    assert warm.hb_latency_values() == reference.hb_latency_values()
    assert rebuilds == 0, f"extend() rebuilt {rebuilds} indices"

    return {
        "dataset_detections": n + m,
        "cold": {
            "detections_per_s": round((n + m) / cold_best, 1),
            "builds_per_pass": builds_per_pass,
        },
        "incremental": {
            "delta_detections": m,
            "detections_per_s": round(m / incr_s, 1),
            "rebuilds_after_extend": rebuilds,
        },
        # What a live watcher pays per refresh: absorbing the delta into warm
        # indices vs re-analysing the whole grown dataset from scratch.  This
        # is the O(delta)-vs-O(n) ratio and grows with the dataset.
        "refresh_speedup": round(cold_best / incr_s, 2),
    }


def bench_sink(environment, detector, publishers, detections, reps: int) -> dict:
    many = detections * reps
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        timings = {}
        for label, flush_every in (("unbuffered", 1), ("buffered", 64)):
            path = tmp_path / f"{label}.jsonl"
            sink = CrawlStorage(path).open_sink(flush_every=flush_every)
            with sink:
                elapsed = _timed(sink.write_many, many)
            timings[label] = elapsed
            out[label] = {
                "flush_every": flush_every,
                "detections_per_s": round(len(many) / elapsed, 1),
                "flushes": sink.flushes,
            }
        assert (tmp_path / "unbuffered.jsonl").read_bytes() == (
            tmp_path / "buffered.jsonl"
        ).read_bytes()
        out["speedup"] = round(timings["unbuffered"] / timings["buffered"], 2)

        # The parallel-crawl benchmark streaming to a sink.  Page-load
        # simulation dominates wall clock on this path, so the variants are
        # compared by the time the crawl actually spends inside the sink
        # (accumulated around every write()/flush() call) — that is the
        # persistence cost of the crawl, measured exactly instead of being
        # drowned in scheduler jitter.  Best-of across interleaved attempts
        # on one warm pool.
        class TimingSink:
            def __init__(self, inner):
                self.inner = inner
                self.spent_s = 0.0

            def write(self, detection):
                start = time.perf_counter()
                self.inner.write(detection)
                self.spent_s += time.perf_counter() - start

            def flush(self):
                start = time.perf_counter()
                self.inner.flush()
                self.spent_s += time.perf_counter() - start

        variants = {"unbuffered": 1, "buffered": 64}
        sink_best: dict = {label: None for label in variants}
        crawl_best: dict = {label: None for label in variants}
        config = CrawlConfig(seed=SEED, workers=WORKERS, backend="process")
        with Crawler(environment, detector, config) as engine:
            engine.crawl(publishers)  # warm the pool; measure steady state
            for _ in range(max(2, reps // 3)):
                for label, flush_every in variants.items():
                    path = tmp_path / f"crawl-{label}.jsonl"
                    inner = CrawlStorage(path).open_sink(flush_every=flush_every)
                    timing = TimingSink(inner)
                    with inner:
                        run_s = _timed(engine.crawl, publishers, sink=timing)
                        timing.flush()
                    if sink_best[label] is None or timing.spent_s < sink_best[label]:
                        sink_best[label] = timing.spent_s
                    if crawl_best[label] is None or run_s < crawl_best[label]:
                        crawl_best[label] = run_s
        assert (tmp_path / "crawl-unbuffered.jsonl").read_bytes() == (
            tmp_path / "crawl-buffered.jsonl"
        ).read_bytes()
        n = len(publishers)
        out["parallel_crawl"] = {
            "pages": n,
            "unbuffered_pages_per_s": round(n / crawl_best["unbuffered"], 1),
            "buffered_pages_per_s": round(n / crawl_best["buffered"], 1),
            "sink_time_ms": {
                label: round(spent * 1e3, 2) for label, spent in sink_best.items()
            },
            # Crawl persistence cost, buffered vs unbuffered.
            "sink_speedup": round(sink_best["unbuffered"] / sink_best["buffered"], 2),
        }
    return out


def bench_match_host(detector, repeat: int) -> dict:
    known = detector.known_partners
    hosts = [f"sub{i % 7}.{domain}" for i, domain in enumerate(known.domains)]
    hosts += [f"cdn{i}.unrelated-{i % 13}.example" for i in range(len(hosts))]
    loops = 40

    def run():
        for _ in range(loops):
            for host in hosts:
                known.match_host(host)

    # Cold: every lookup through the suffix walk (fresh caches each pass).
    cold_list = build_known_partner_list(default_registry(seed=2019))
    cold_hosts = hosts

    def run_cold():
        fresh = build_known_partner_list(default_registry(seed=2019))
        for host in cold_hosts:
            fresh.match_host(host)

    build_s = min(_timed(build_known_partner_list, default_registry(seed=2019)) for _ in range(3))
    cold_s = min(_timed(run_cold) for _ in range(max(1, repeat))) - build_s
    cold_s = max(cold_s, 1e-9)
    warm_s = min(_timed(run) for _ in range(max(1, repeat)))
    assert cold_list.match_host(hosts[0]) == known.match_host(hosts[0])
    return {
        "hosts": len(hosts),
        "uncached_lookups_per_s": round(len(hosts) / cold_s, 1),
        "cached_lookups_per_s": round(len(hosts) * loops / warm_s, 1),
        "cache": dict(known.match_cache_info()._asdict()),
    }


def _load_baseline(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def append_trajectory(report: dict, baseline: dict | None, path: Path) -> dict:
    """Append a timestamped comparison entry to the benchmark history.

    The committed report is overwritten on every run; the trajectory file
    accumulates, so regressions (and wins) stay visible across PRs.
    """
    try:
        history = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []

    serial = report["crawl"]["serial"]["pages_per_s"]
    process_warm = report["crawl"]["process"]["warm_pages_per_s"]
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": report["config"]["smoke"],
        "sites": report["config"]["sites"],
        "workers": report["config"]["workers"],
        "serial_pages_per_s": serial,
        "process_warm_pages_per_s": process_warm,
        "process_over_serial": report["crawl"]["process"]["over_serial"],
        "refresh_speedup": report["index"]["refresh_speedup"],
    }
    if baseline is not None:
        base_serial = baseline.get("crawl", {}).get("serial", {}).get("pages_per_s")
        if base_serial:
            entry["baseline_serial_pages_per_s"] = base_serial
            entry["vs_baseline_serial"] = round(serial / base_serial, 2)
        base_process = (
            baseline.get("crawl", {}).get("process", {}).get("warm_pages_per_s")
        )
        if base_process:
            entry["vs_baseline_process_warm"] = round(process_warm / base_process, 2)
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    return entry


def check_baseline(report: dict, baseline: dict | None, max_regression: float) -> list[str]:
    """Return failure messages if throughput regressed beyond the budget.

    Only the serial steady-state number is a hard gate: it is workload-size
    independent, so a ``--smoke`` CI run can be compared against the
    committed full-size report.  Pool numbers vary with machine shape and
    workload size; they are recorded (and trended in the trajectory file)
    rather than hard-gated.  Known limitation: the committed baseline is an
    absolute throughput from whatever machine last ran the full benchmark,
    so a much slower runner can trip the floor without a code change —
    widen ``--max-regression`` or re-record the baseline on the gating
    hardware if that happens.
    """
    failures = []
    process = report["crawl"]["process"]
    if (
        not report["config"]["smoke"]
        and process["effective_cpus"] > 1
        and process["over_serial"] <= 1.0
    ):
        # The PR 5 acceptance bar: a full-size run on hardware that can
        # actually run workers in parallel must show the process backend
        # beating serial.  Smoke workloads are dispatch-overhead-dominated
        # (60 sites across 16 tasks) and single-CPU hosts time-slice the
        # workers with the parent, so neither can be gated on the ratio —
        # it is recorded in the report and the trajectory either way.
        failures.append(
            f"process warm did not beat serial on a {process['effective_cpus']}-CPU "
            f"host (over_serial={process['over_serial']})"
        )
    if baseline is None:
        return failures
    base = baseline.get("crawl", {}).get("serial", {}).get("pages_per_s")
    now = report["crawl"]["serial"]["pages_per_s"]
    if isinstance(base, (int, float)):
        floor = base * (1.0 - max_regression)
        if now < floor:
            failures.append(
                f"serial pages_per_s regressed: {now} < {floor:.1f} "
                f"(committed baseline {base}, budget -{max_regression:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_crawl_hotpath.json", help="report path")
    parser.add_argument("--sites", type=int, default=480, help="sites per crawl")
    parser.add_argument("--repeat", type=int, default=3, help="timed iterations (best-of)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 iteration over a tiny workload (CI rot check)")
    parser.add_argument("--trajectory", default="BENCH_trajectory.json",
                        help="benchmark history file (appended, never overwritten)")
    parser.add_argument("--check-baseline", action="store_true",
                        help="exit 1 if pages_per_s drops more than --max-regression "
                        "below the committed report at --out")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional drop vs the committed baseline "
                        "(default %(default)s)")
    args = parser.parse_args(argv)
    out_path = Path(args.out)
    trajectory_path = Path(args.trajectory)
    if args.smoke:
        args.sites, args.repeat = 60, 1
        # A smoke run must never clobber the committed full-size baseline
        # (or pollute the committed history) when the paths were left at
        # their defaults: the baseline is still *read* from the committed
        # report, but the smoke results land in sibling scratch files.
        if args.out == parser.get_default("out"):
            out_path = out_path.with_suffix(".smoke.json")
        if args.trajectory == parser.get_default("trajectory"):
            trajectory_path = trajectory_path.with_suffix(".smoke.json")

    baseline = _load_baseline(Path(args.out))

    registry = default_registry(seed=2019)
    population = generate_population(PopulationConfig(seed=7).scaled(max(args.sites, 60)), registry)
    environment = AuctionEnvironment(registry=registry)
    detector = HBDetector(build_known_partner_list(registry))
    publishers = list(population)[: args.sites]

    crawl = bench_crawl(environment, detector, publishers, args.repeat)
    with Crawler(environment, detector, CrawlConfig(seed=SEED)) as engine:
        detections = engine.crawl(publishers).detections

    report = {
        "name": "crawl_hotpath",
        "config": {
            "sites": args.sites,
            "workers": WORKERS,
            "repeat": args.repeat,
            "smoke": args.smoke,
            "python": sys.version.split()[0],
        },
        "crawl": crawl,
        "index": bench_index(detections, reps=3 if args.smoke else 30, repeat=args.repeat),
        "sink": bench_sink(environment, detector, publishers, detections,
                           reps=2 if args.smoke else 20),
        "match_host": bench_match_host(detector, args.repeat),
    }

    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    entry = append_trajectory(report, baseline, trajectory_path)
    print(f"wrote {out_path}")
    print(f"appended to {trajectory_path}: {json.dumps(entry)}")
    print(json.dumps(report, indent=2))

    if args.check_baseline:
        failures = check_baseline(report, baseline, args.max_regression)
        for failure in failures:
            print(f"BASELINE REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
