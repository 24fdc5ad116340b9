"""Exception hierarchy for the header-bidding reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so a
caller can catch the whole family with a single ``except`` clause while still
being able to distinguish configuration problems from runtime simulation or
detection problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """An experiment, ecosystem or wrapper configuration is invalid."""


class EcosystemError(ReproError):
    """The synthetic ad ecosystem was asked to do something inconsistent."""


class UnknownPartnerError(EcosystemError):
    """A demand partner name was requested that is not in the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown demand partner: {name!r}")
        self.name = name


class BrowserError(ReproError):
    """The simulated browser failed to load or execute a page."""


class PageLoadTimeout(BrowserError):
    """A page did not finish loading within the crawler's timeout."""

    def __init__(self, url: str, timeout_ms: float) -> None:
        super().__init__(f"page {url!r} did not load within {timeout_ms:.0f} ms")
        self.url = url
        self.timeout_ms = timeout_ms


class AuctionError(ReproError):
    """An HB or waterfall auction was driven through an invalid transition."""


class DetectionError(ReproError):
    """HBDetector could not interpret the observed page activity."""


class CrawlError(ReproError):
    """The crawler failed in a way that is not a per-page timeout."""


class CheckpointError(CrawlError):
    """A crawl checkpoint is missing, corrupt, or does not match this run."""


class ShardTimeout(CrawlError):
    """A shard attempt exceeded ``CrawlConfig.shard_timeout``.

    Raised engine-side (the supervision loop abandons the attempt's future);
    retryable like any transient worker failure.
    """


class StorageError(ReproError):
    """Reading or writing a crawl dataset on disk failed."""


class ServiceError(ReproError):
    """The campaign service was asked to do something it cannot."""


class UnknownCampaignError(ServiceError):
    """A campaign id was requested that the service does not know."""

    def __init__(self, campaign_id: str) -> None:
        super().__init__(f"unknown campaign: {campaign_id!r}")
        self.campaign_id = campaign_id


class CampaignStateError(ServiceError):
    """A campaign transition was requested from a state that forbids it."""


class RequestTooLargeError(ServiceError):
    """A request body is longer than the service accepts."""


class CampaignCancelled(CrawlError):
    """Internal control-flow signal: a campaign's crawl was cancelled.

    Raised from inside the cancelled campaign's sink at the next detection
    write, unwinding the crawl through the engine's normal error path — the
    last shard-boundary checkpoint stays on disk, so the campaign is
    resumable.  Never surfaces to service clients; the campaign manager
    catches it and marks the campaign ``cancelled``.
    """


class AnalysisError(ReproError):
    """An analysis was requested on data that cannot support it."""


class EmptyDatasetError(AnalysisError):
    """An analysis was requested on an empty dataset."""


class UnknownMetricError(AnalysisError):
    """A metric name was requested that is not in the metric registry."""

    def __init__(self, name: str, known: tuple[str, ...] = ()) -> None:
        hint = f"; known metrics: {', '.join(known)}" if known else ""
        super().__init__(f"unknown metric: {name!r}{hint}")
        self.name = name


class MetricContextError(AnalysisError):
    """A metric was computed without the context pieces it requires."""

    def __init__(self, name: str, missing: tuple[str, ...]) -> None:
        super().__init__(
            f"metric {name!r} requires {', '.join(missing)} which the analysis context does not provide"
        )
        self.name = name
        self.missing = missing
