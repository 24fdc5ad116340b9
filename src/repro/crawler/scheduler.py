"""Longitudinal crawl scheduling.

The paper's measurement has two phases: one full pass over the 35k-site list
to find HB-enabled sites, then a daily re-crawl of those ~5k sites for 34
days.  The scheduler below orchestrates both phases and accumulates the
resulting detections into one longitudinal dataset.

The scheduler drives a :class:`~repro.crawler.crawler.Crawler` through its
``crawl_domains`` method, so parallel sharded crawls
(``CrawlConfig(workers=8, backend="process")``) drop in without scheduler
changes.  An optional ``sink`` streams every detection (discovery
pass first, then each crawl day) to storage as it is produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.crawler.crawler import Crawler, CrawlResult
from repro.detector.records import SiteDetection
from repro.ecosystem.publishers import PublisherPopulation
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.crawler.engine import DetectionSinkLike

__all__ = ["LongitudinalCrawl", "LongitudinalScheduler"]


@dataclass
class LongitudinalCrawl:
    """The accumulated output of the discovery pass plus the daily re-crawls."""

    discovery: CrawlResult
    daily_results: list[CrawlResult] = field(default_factory=list)

    @property
    def n_days(self) -> int:
        return len(self.daily_results)

    @property
    def degraded(self) -> bool:
        """True when any phase completed with quarantined shards."""
        return self.discovery.degraded or any(r.degraded for r in self.daily_results)

    @property
    def all_detections(self) -> list[SiteDetection]:
        """Every detection, discovery pass included, in crawl order."""
        detections = list(self.discovery.detections)
        for daily in self.daily_results:
            detections.extend(daily.detections)
        return detections

    @property
    def hb_detections(self) -> list[SiteDetection]:
        return [d for d in self.all_detections if d.hb_detected]

    @property
    def pages_visited(self) -> int:
        return self.discovery.pages_visited + sum(r.pages_visited for r in self.daily_results)


class LongitudinalScheduler:
    """Runs the discovery pass and then the daily re-crawls."""

    def __init__(
        self,
        crawler: Crawler,
        *,
        recrawl_days: int = 34,
    ) -> None:
        if recrawl_days < 0:
            raise ConfigurationError("the number of re-crawl days cannot be negative")
        self.crawler = crawler
        self.recrawl_days = recrawl_days

    def run(
        self,
        population: PublisherPopulation,
        *,
        domains: Sequence[str] | None = None,
        sink: "DetectionSinkLike | None" = None,
        checkpoint: "CrawlCheckpointer | None" = None,
    ) -> LongitudinalCrawl:
        """Execute the full two-phase measurement.

        ``domains`` restricts the discovery pass (useful for scaled-down test
        runs); by default the whole population is crawled.  ``sink`` receives
        every detection in crawl order as the campaign progresses.

        ``checkpoint`` threads a :class:`CrawlCheckpointer` through every
        phase (the discovery pass is phase ``crawl_day=0``, each re-crawl is
        its own phase), making the whole campaign resumable: phases the
        checkpoint saw complete are recovered from the sink file instead of
        re-crawled — the discovery result, and therefore the HB-site list the
        daily plans derive from, is reconstructed deterministically — and the
        interrupted phase restarts from its last recorded shard boundary.

        A phase that completes *degraded* (supervision quarantined shards,
        see :attr:`CrawlResult.quarantined_shards`) ends the campaign at that
        phase: a degraded discovery would derive the wrong HB-site list for
        every later day, and a degraded day would leave a gap mid-stream.
        The quarantine is recorded in the checkpoint, so a resume re-crawls
        the missing shards and continues the remaining days byte-identically.
        """
        targets = list(domains) if domains is not None else list(population.domains)
        discovery = self.crawler.crawl_domains(
            population, targets, crawl_day=0, sink=sink, checkpoint=checkpoint
        )
        longitudinal = LongitudinalCrawl(discovery=discovery)
        if discovery.degraded:
            return longitudinal

        hb_domains = discovery.hb_domains
        for day in range(1, self.recrawl_days + 1):
            daily = self.crawler.crawl_domains(
                population, hb_domains, crawl_day=day, sink=sink, checkpoint=checkpoint
            )
            longitudinal.daily_results.append(daily)
            if daily.degraded:
                break
        return longitudinal
