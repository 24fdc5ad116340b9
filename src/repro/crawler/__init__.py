"""Crawling infrastructure.

The paper drives Chrome (with HBDetector loaded) through Selenium: a fresh,
stateless browser instance per page, a 60-second page-load timeout, a
five-second dwell after the load event, a one-shot crawl of the top-35k list
followed by a 34-day daily re-crawl of the HB-enabled sites, and a separate
static crawl of Wayback snapshots for the historical adoption figure.  This
package reproduces that pipeline on top of the simulated Web.

The crawl itself runs through :class:`CrawlEngine`: the site list is split
into deterministic shards (:class:`CrawlPlan`) fanned out to an execution
backend (:class:`SerialBackend` or :class:`ProcessPoolBackend`), and per-shard results are merged back in
canonical site order — detections are byte-identical regardless of worker
count.  :class:`Crawler` remains the backward-compatible facade.
"""

from repro.crawler.session import CrawlSession
from repro.crawler.crawler import Crawler, CrawlConfig, CrawlResult
from repro.crawler.engine import (
    BACKEND_NAMES,
    CrawlEngine,
    CrawlPlan,
    CrawlShard,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_name,
)
from repro.crawler.scheduler import LongitudinalScheduler, LongitudinalCrawl
from repro.crawler.historical import HistoricalCrawler, HistoricalAdoption
from repro.crawler.storage import CrawlStorage, DetectionSink
from repro.crawler.checkpoint import (
    CrawlCheckpoint,
    CrawlCheckpointer,
    plan_fingerprint,
    population_fingerprint,
)

__all__ = [
    "CrawlSession",
    "Crawler",
    "CrawlConfig",
    "CrawlResult",
    "CrawlEngine",
    "CrawlPlan",
    "CrawlShard",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "backend_from_name",
    "BACKEND_NAMES",
    "LongitudinalScheduler",
    "LongitudinalCrawl",
    "HistoricalCrawler",
    "HistoricalAdoption",
    "CrawlStorage",
    "DetectionSink",
    "CrawlCheckpoint",
    "CrawlCheckpointer",
    "plan_fingerprint",
    "population_fingerprint",
]
