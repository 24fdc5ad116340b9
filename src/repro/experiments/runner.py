"""The end-to-end experiment pipeline.

``ExperimentRunner.run()`` executes the full measurement campaign on the
simulated Web: generate the publisher population and partner registry, build
the detector, crawl the top list, re-crawl the HB sites daily, and bundle the
results into :class:`ExperimentArtifacts` — the object every figure and table
function consumes.

Because everything downstream of the configuration is deterministic, running
the same configuration twice yields identical artifacts, and benchmarks can
memoise artifacts per configuration to avoid re-simulating the Web for each
figure.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.dataset import CrawlDataset
from repro.crawler.checkpoint import CrawlCheckpointer, population_fingerprint
from repro.crawler.crawler import Crawler
from repro.crawler.storage import CrawlStorage
from repro.crawler.historical import HistoricalAdoption, HistoricalCrawler
from repro.crawler.scheduler import LongitudinalCrawl, LongitudinalScheduler
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.detector.static_analysis import StaticAnalyzer
from repro.ecosystem.alexa import yearly_top_lists
from repro.ecosystem.publishers import PublisherPopulation, generate_population
from repro.ecosystem.registry import default_registry
from repro.ecosystem.wayback import SnapshotArchive
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.hb.environment import AuctionEnvironment

__all__ = ["ExperimentArtifacts", "ExperimentRunner"]


@dataclass
class ExperimentArtifacts:
    """Everything one experiment run produced."""

    config: ExperimentConfig
    population: PublisherPopulation
    environment: AuctionEnvironment
    detector: HBDetector
    longitudinal: LongitudinalCrawl
    dataset: CrawlDataset

    @property
    def summary(self) -> Mapping[str, int | float]:
        return self.dataset.summary()


#: Memoised experiment runs, keyed by the configuration fields ``run()``
#: actually consumes (the historical-study parameters are excluded on
#: purpose: varying them must not force a crawl re-simulation).  Bounded
#: LRU: long-lived processes that sweep many configurations (parameter
#: scans, services) evict the least recently used run instead of growing
#: without limit.  Each entry holds a full simulated-Web run, so the cap is
#: deliberately small.  All access goes through :func:`_cache_get` /
#: :func:`_cache_put` under :data:`_ARTIFACT_CACHE_LOCK`: the OrderedDict
#: move-to-end/evict dance is not atomic, and the HTTP service hits the
#: cache from many request threads at once.
_ARTIFACT_CACHE: "OrderedDict[tuple, ExperimentArtifacts]" = OrderedDict()
_ARTIFACT_CACHE_LOCK = threading.Lock()
ARTIFACT_CACHE_MAX_ENTRIES = 8


def _run_cache_key(config: ExperimentConfig) -> tuple:
    return (
        config.total_sites,
        config.seed,
        config.recrawl_days,
        config.detector_coverage,
        config.total_partners,
        config.vanilla_profile,
        config.workers,
        config.crawl_backend,
    )


def _cache_get(key: tuple) -> ExperimentArtifacts | None:
    with _ARTIFACT_CACHE_LOCK:
        artifacts = _ARTIFACT_CACHE.get(key)
        if artifacts is not None:
            _ARTIFACT_CACHE.move_to_end(key)
        return artifacts


def _cache_put(key: tuple, artifacts: ExperimentArtifacts) -> None:
    with _ARTIFACT_CACHE_LOCK:
        _ARTIFACT_CACHE[key] = artifacts
        _ARTIFACT_CACHE.move_to_end(key)
        while len(_ARTIFACT_CACHE) > ARTIFACT_CACHE_MAX_ENTRIES:
            _ARTIFACT_CACHE.popitem(last=False)


class ExperimentRunner:
    """Runs the measurement campaign described by an :class:`ExperimentConfig`."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    # -- pipeline pieces --------------------------------------------------------
    def build_population(self) -> PublisherPopulation:
        registry = default_registry(seed=self.config.seed, total_partners=self.config.total_partners)
        return generate_population(self.config.population_config(), registry)

    def build_environment(self, population: PublisherPopulation) -> AuctionEnvironment:
        return AuctionEnvironment(
            registry=population.registry,
            vanilla_profile=self.config.vanilla_profile,
        )

    def build_detector(self, population: PublisherPopulation) -> HBDetector:
        known = build_known_partner_list(
            population.registry,
            coverage=self.config.detector_coverage,
            seed=self.config.seed,
        )
        return HBDetector(known)

    def campaign_fingerprint(self, population: PublisherPopulation) -> dict:
        """Identity of this campaign for checkpoint resume validation.

        Covers every knob that changes the produced bytes — seed, population,
        campaign shape, page-load parameters — and deliberately excludes
        ``workers``, ``crawl_backend``, ``sink_flush_every`` and
        ``checkpoint_every_shards``: detections are byte-identical across all
        of them, so an interrupted crawl may resume with different
        parallelism (the engine still insists the mid-flight phase re-plans
        identically).

        ``recrawl_days`` is recorded but *extensible* on resume: each crawl
        day is its own immutable phase, so a finished campaign may resume
        with a larger horizon and append net-new days (how the continuous
        recrawl daemon grows a campaign one day per tick).  Shrinking the
        horizon below a recorded day, or changing any other field, is still
        refused by :meth:`CrawlCheckpointer.resume`.
        """
        crawl = self.config.crawl_config()
        fingerprint = {
            "total_sites": self.config.total_sites,
            "seed": self.config.seed,
            "recrawl_days": self.config.recrawl_days,
            "detector_coverage": self.config.detector_coverage,
            "total_partners": self.config.total_partners,
            "vanilla_profile": self.config.vanilla_profile,
            "population": population_fingerprint(population.domains),
            "page_load_timeout_ms": crawl.page_load_timeout_ms,
            "extra_dwell_ms": crawl.extra_dwell_ms,
            "restart_every_pages": crawl.restart_every_pages,
        }
        # The store format changes the sink's byte layout, so a checkpoint
        # must not resume under the other backend.  Recorded only when
        # non-default so pre-existing JSONL checkpoints keep resuming.
        if self.config.store_format != "jsonl":
            fingerprint["store_format"] = self.config.store_format
        return fingerprint

    def open_campaign(
        self, storage: CrawlStorage | None = None
    ) -> tuple[PublisherPopulation, Crawler, CrawlCheckpointer | None]:
        """Build the population, the crawler and the campaign's checkpointer.

        The checkpointer is fresh, resumed from ``config.checkpoint_path``
        (recovering ``storage``'s sink), or ``None`` without a checkpoint
        path.  The crawler starts its pool workers on first use; the caller
        owns it and must close it.
        """
        config = self.config
        population = self.build_population()
        environment = self.build_environment(population)
        detector = self.build_detector(population)
        checkpointer: CrawlCheckpointer | None = None
        if config.checkpoint_path is not None:
            fingerprint = self.campaign_fingerprint(population)
            if config.resume:
                checkpointer = CrawlCheckpointer.resume(
                    config.checkpoint_path, fingerprint, storage
                )
            else:
                checkpointer = CrawlCheckpointer.fresh(
                    config.checkpoint_path, fingerprint
                )
        fault_plan = None
        if config.fault_spec is not None:
            from repro.testing import parse_fault_plan

            fault_plan = parse_fault_plan(config.fault_spec)
        crawler = Crawler(
            environment, detector, config.crawl_config(), fault_plan=fault_plan
        )
        return population, crawler, checkpointer

    def crawl_campaign(
        self,
        crawler: Crawler,
        population: PublisherPopulation,
        *,
        storage: CrawlStorage | None = None,
        checkpointer: CrawlCheckpointer | None = None,
    ) -> LongitudinalCrawl:
        """The discovery pass plus ``config.recrawl_days`` daily re-crawls.

        With ``storage``, detections stream to its sink, which a resumed
        campaign reopens in append mode and a fresh one starts over.
        """
        config = self.config
        scheduler = LongitudinalScheduler(crawler, recrawl_days=config.recrawl_days)
        if storage is None:
            return scheduler.run(population)
        with storage.open_sink(
            append=config.resume, flush_every=config.sink_flush_every
        ) as sink:
            return scheduler.run(population, sink=sink, checkpoint=checkpointer)

    # -- main entry points ----------------------------------------------------------
    def run(
        self,
        *,
        use_cache: bool = True,
        storage: CrawlStorage | None = None,
    ) -> ExperimentArtifacts:
        """Run (or reuse) the full crawl campaign for this configuration.

        ``storage`` streams every detection to disk incrementally as the
        campaign progresses (discovery pass first, then each crawl day) —
        runs given a storage are never served from the artifact cache, since
        a cache hit would skip the writes.

        With ``config.checkpoint_path`` set, progress is checkpointed at
        shard boundaries; with ``config.resume`` the campaign continues from
        the recorded state (recovering the sink's half-flushed tail) and the
        final artifacts and sink bytes are identical to an uninterrupted run.
        """
        config = self.config
        if config.checkpoint_path is not None and storage is None:
            raise ConfigurationError(
                "a checkpointed run needs persistent storage (run --save): "
                "resume recovers completed work from the sink file"
            )
        if storage is not None and getattr(storage, "format", "jsonl") != config.store_format:
            raise ConfigurationError(
                f"storage writes {getattr(storage, 'format', 'jsonl')!r} but the "
                f"configuration asks for store_format={config.store_format!r}; "
                f"build the storage with repro.crawler.colstore.storage_for"
            )
        cache_key = _run_cache_key(config)
        # Fault-injected runs are never cached: a chaos run that quarantines
        # shards completes degraded, and serving it from cache would hand a
        # later clean run the truncated artifacts.
        use_cache = use_cache and storage is None and config.fault_spec is None
        if use_cache:
            cached = _cache_get(cache_key)
            if cached is not None:
                return cached

        population, crawler, checkpointer = self.open_campaign(storage)
        # Pool workers persist across the discovery pass and every daily
        # re-crawl (their environment/detector ships once per worker, not
        # once per shard); the context manager releases them when the
        # campaign is done without masking a mid-crawl error.
        with crawler:
            longitudinal = self.crawl_campaign(
                crawler, population, storage=storage, checkpointer=checkpointer
            )
        dataset = CrawlDataset.from_detections(
            longitudinal.all_detections, label=f"crawl-{self.config.total_sites}"
        )
        artifacts = ExperimentArtifacts(
            config=self.config,
            population=population,
            environment=crawler.environment,
            detector=crawler.detector,
            longitudinal=longitudinal,
            dataset=dataset,
        )
        if use_cache:
            _cache_put(cache_key, artifacts)
        return artifacts

    def run_historical(self) -> HistoricalAdoption:
        """Run the Wayback-style historical adoption study (Figure 4)."""
        top_lists = yearly_top_lists(
            self.config.historical_sites,
            self.config.historical_years,
            seed=self.config.seed,
        )
        archive = SnapshotArchive(top_lists, seed=self.config.seed)
        crawler = HistoricalCrawler(archive, StaticAnalyzer())
        return crawler.crawl()


def clear_artifact_cache() -> None:
    """Drop memoised experiment artifacts (used by tests that vary configs)."""
    with _ARTIFACT_CACHE_LOCK:
        _ARTIFACT_CACHE.clear()


def artifact_cache_size() -> int:
    """How many experiment runs are currently memoised."""
    with _ARTIFACT_CACHE_LOCK:
        return len(_ARTIFACT_CACHE)
