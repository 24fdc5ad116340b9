"""Detection store benchmark: columnar binary sink vs the JSONL reference.

Measures the storage paths PR 8 introduced and writes a machine-readable
JSON report (``BENCH_store.json`` at the repo root by default) so future
PRs can track the store trajectory:

* ``write`` — detections/s streamed through each buffered sink
  (``flush_every=64``, the engine default) over a longitudinal-sized
  record stream.  ``columnar_over_jsonl`` is the headline ratio: the
  typed sink must not be slower than formatting JSON text.
* ``open`` — cold open-to-first-answer latency: construct the dataset
  from the file and render the ``table1`` summary metric, per format.
  The JSONL path pays a full parse + object build; the columnar path
  mmaps column views and reduces them with numpy.  ``speedup`` is the
  PR's acceptance number (>=10x at full size).
* ``warm`` — a second metric over the already-open dataset, showing the
  columnar dataset answers summary-shaped questions without ever
  materialising record objects.
* ``size`` — bytes on disk per format and the compression ratio from
  dictionary-encoded strings and fixed-width numerics.

Every timed section asserts the correctness contract first (converted
bytes identical to the JSONL reference, identical metric text from both
backends), so the harness doubles as a smoke test: CI runs it with
``--smoke`` (tiny workload, one iteration) and ``--check-baseline`` to
fail on a >30% regression against the committed report.

Run with::

    PYTHONPATH=src python benchmarks/store.py [--smoke] [--out PATH]
        [--check-baseline] [--max-regression 0.30]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import compute_metric
from repro.crawler.colstore import ColumnarDataset, ColumnarStorage
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.storage import CrawlStorage
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.ecosystem.registry import default_registry
from repro.hb.environment import AuctionEnvironment

SEED = 77
FLUSH_EVERY = 64


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _longitudinal(detections, days: int):
    """Replicate one crawl's detections across ``days`` re-crawl days —
    the record stream a longitudinal campaign actually writes."""
    return [
        dataclasses.replace(d, crawl_day=d.crawl_day + day)
        for day in range(days)
        for d in detections
    ]


def bench_write(records, tmp_path: Path, repeat: int) -> dict:
    out: dict = {}
    timings: dict = {}
    for label, storage_cls, suffix in (
        ("jsonl", CrawlStorage, "jsonl"),
        ("columnar", ColumnarStorage, "hbc"),
    ):
        path = tmp_path / f"write.{suffix}"
        best = None
        for _ in range(max(1, repeat)):
            sink = storage_cls(path).open_sink(flush_every=FLUSH_EVERY)
            with sink:
                elapsed, _ = _timed(sink.write_many, records)
            if best is None or elapsed < best:
                best = elapsed
        timings[label] = best
        out[label] = {
            "flush_every": FLUSH_EVERY,
            "detections_per_s": round(len(records) / best, 1),
            "flushes": sink.flushes,
        }
    # Correctness before speed: the columnar file must decode to the exact
    # record stream, and converting it must reproduce the JSONL bytes.
    converted = CrawlStorage(tmp_path / "converted.jsonl")
    converted.save(ColumnarStorage(tmp_path / "write.hbc").iter_load())
    assert converted.path.read_bytes() == (tmp_path / "write.jsonl").read_bytes(), (
        "columnar -> jsonl conversion diverged from the direct JSONL sink"
    )
    out["columnar_over_jsonl"] = round(timings["jsonl"] / timings["columnar"], 2)
    return out


def _open_and_answer_jsonl(path: Path) -> str:
    dataset = CrawlDataset.from_path(path)
    return compute_metric("table1", AnalysisContext.offline(dataset)).text


def _open_and_answer_columnar(path: Path) -> str:
    dataset = CrawlDataset.from_path(path)
    text = compute_metric("table1", AnalysisContext.offline(dataset)).text
    assert isinstance(dataset, ColumnarDataset) and dataset._records is None, (
        "columnar cold open materialised record objects"
    )
    return text


def bench_open(tmp_path: Path, repeat: int) -> dict:
    jsonl_path = tmp_path / "write.jsonl"
    columnar_path = tmp_path / "write.hbc"
    jsonl_s, jsonl_text = min(
        (_timed(_open_and_answer_jsonl, jsonl_path) for _ in range(max(1, repeat))),
        key=lambda timed: timed[0],
    )
    columnar_s, columnar_text = min(
        (_timed(_open_and_answer_columnar, columnar_path) for _ in range(max(1, repeat))),
        key=lambda timed: timed[0],
    )
    assert jsonl_text == columnar_text, "table1 diverged between storage backends"

    # Warm path: the dataset is open, answer another summary question.
    jsonl_dataset = CrawlDataset.from_path(jsonl_path)
    columnar_dataset = CrawlDataset.from_path(columnar_path)
    jsonl_warm_s, jsonl_summary = min(
        (_timed(jsonl_dataset.summary) for _ in range(max(1, repeat))),
        key=lambda timed: timed[0],
    )
    columnar_warm_s, columnar_summary = min(
        (_timed(columnar_dataset.summary) for _ in range(max(1, repeat))),
        key=lambda timed: timed[0],
    )
    assert jsonl_summary == columnar_summary, "summary diverged between backends"
    return {
        "jsonl_cold_ms": round(jsonl_s * 1e3, 2),
        "columnar_cold_ms": round(columnar_s * 1e3, 2),
        # The acceptance number: open-to-first-answer, parse vs mmap.
        "cold_speedup": round(jsonl_s / columnar_s, 2),
        "warm": {
            "jsonl_summary_ms": round(jsonl_warm_s * 1e3, 3),
            "columnar_summary_ms": round(columnar_warm_s * 1e3, 3),
        },
    }


def bench_size(tmp_path: Path, n_records: int) -> dict:
    jsonl_bytes = (tmp_path / "write.jsonl").stat().st_size
    columnar_bytes = (tmp_path / "write.hbc").stat().st_size
    return {
        "detections": n_records,
        "jsonl_bytes": jsonl_bytes,
        "columnar_bytes": columnar_bytes,
        "jsonl_over_columnar": round(jsonl_bytes / columnar_bytes, 2),
        "columnar_bytes_per_detection": round(columnar_bytes / n_records, 1),
    }


def _load_baseline(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_baseline(report: dict, baseline: dict | None, max_regression: float) -> list[str]:
    """Return failure messages if the store regressed beyond the budget.

    ``write.columnar_over_jsonl`` is workload-size independent (both sinks
    stream the same records), so a ``--smoke`` CI run compares it against
    the committed full-size report.  ``open.cold_speedup`` grows with the
    dataset — at smoke scale the columnar fixed costs (mmap, header walk,
    numpy reductions) dominate a file that parses in a millisecond anyway —
    so it is only gated when the run's workload matches the baseline's.
    A full-size run additionally enforces the PR's absolute acceptance
    bars: the columnar sink must not write slower than the buffered JSONL
    sink, and the cold open must be >=10x faster than the JSONL parse.
    Absolute throughputs vary with the machine, so they are recorded, not
    gated.
    """
    failures = []
    if not report["config"]["smoke"]:
        if report["write"]["columnar_over_jsonl"] < 1.0:
            failures.append(
                "columnar sink slower than buffered JSONL: "
                f"columnar_over_jsonl={report['write']['columnar_over_jsonl']}"
            )
        if report["open"]["cold_speedup"] < 10.0:
            failures.append(
                "columnar cold open under the 10x acceptance bar: "
                f"cold_speedup={report['open']['cold_speedup']}"
            )
    if baseline is None:
        return failures
    pairs = [("write columnar_over_jsonl", ("write", "columnar_over_jsonl"))]
    same_workload = report["config"]["detections"] == (
        baseline.get("config", {}).get("detections")
    )
    if same_workload:
        pairs.append(("open cold_speedup", ("open", "cold_speedup")))
    for label, keys in pairs:
        base: object = baseline
        now: object = report
        for key in keys:
            base = base.get(key) if isinstance(base, dict) else None
            now = now.get(key) if isinstance(now, dict) else None
        if not isinstance(base, (int, float)) or not isinstance(now, (int, float)):
            continue
        floor = base * (1.0 - max_regression)
        if now < floor:
            failures.append(
                f"{label} regressed: {now} < {floor:.2f} "
                f"(committed baseline {base}, budget -{max_regression:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_store.json", help="report path")
    parser.add_argument("--sites", type=int, default=480, help="sites per crawl")
    parser.add_argument("--days", type=int, default=30,
                        help="re-crawl days the record stream replicates")
    parser.add_argument("--repeat", type=int, default=3, help="timed iterations (best-of)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 iteration over a tiny workload (CI rot check)")
    parser.add_argument("--check-baseline", action="store_true",
                        help="exit 1 if the gated ratios drop more than "
                        "--max-regression below the committed report at --out")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional drop vs the committed baseline "
                        "(default %(default)s)")
    args = parser.parse_args(argv)
    out_path = Path(args.out)
    if args.smoke:
        args.sites, args.days, args.repeat = 60, 3, 1
        # A smoke run must never clobber the committed full-size baseline:
        # it still *reads* the committed report for the ratio gates, but
        # its own results land in a gitignored sibling scratch file.
        if args.out == parser.get_default("out"):
            out_path = out_path.with_suffix(".smoke.json")

    baseline = _load_baseline(Path(args.out))

    registry = default_registry(seed=2019)
    population = generate_population(PopulationConfig(seed=7).scaled(max(args.sites, 60)), registry)
    environment = AuctionEnvironment(registry=registry)
    detector = HBDetector(build_known_partner_list(registry))
    publishers = list(population)[: args.sites]
    with Crawler(environment, detector, CrawlConfig(seed=SEED)) as engine:
        detections = engine.crawl(publishers).detections
    records = _longitudinal(detections, args.days)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        report = {
            "name": "store",
            "config": {
                "sites": args.sites,
                "days": args.days,
                "detections": len(records),
                "repeat": args.repeat,
                "smoke": args.smoke,
                "python": sys.version.split()[0],
            },
            "write": bench_write(records, tmp_path, args.repeat),
            "open": bench_open(tmp_path, args.repeat),
            "size": bench_size(tmp_path, len(records)),
        }

    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
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
