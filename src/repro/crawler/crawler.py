"""The main crawl driver.

Given a publisher population (the simulated Web), the crawler visits each
site with a clean-slate session, runs HBDetector on every page load, handles
page-load timeouts by killing and restarting the session, and returns the
per-site detections together with crawl bookkeeping.

:class:`Crawler` is a thin facade over
:class:`repro.crawler.engine.CrawlEngine`: the engine shards the site list,
fans shards out to the configured execution backend (serial by default) and
merges results in canonical order, so ``CrawlConfig(workers=8,
backend="process")`` parallelises any existing caller without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.detector.detector import HBDetector
from repro.detector.records import SiteDetection
from repro.ecosystem.publishers import Publisher, PublisherPopulation
from repro.errors import ConfigurationError
from repro.hb.environment import AuctionEnvironment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.crawler.engine import CrawlEngine, DetectionSinkLike, ExecutionBackend

__all__ = ["CrawlConfig", "CrawlResult", "ShardFailure", "Crawler", "BACKEND_NAMES"]

#: Names accepted by :attr:`CrawlConfig.backend`; the backend implementations
#: live in :mod:`repro.crawler.engine`, which re-exports this tuple.
BACKEND_NAMES = ("serial", "process")


@dataclass(frozen=True)
class CrawlConfig:
    """Operational parameters of a crawl (mirrors §3.2 of the paper)."""

    seed: int = 2019
    page_load_timeout_ms: float = 60_000.0
    extra_dwell_ms: float = 5_000.0
    #: Restart the browser session after this many pages even without a
    #: timeout, bounding state accumulation (defensive; the paper restarts
    #: per page, which corresponds to ``1``).
    restart_every_pages: int = 1
    #: Number of parallel crawl workers (shards). ``1`` reproduces the
    #: paper's strictly sequential crawl; higher values shard the site list.
    workers: int = 1
    #: Execution backend: ``"serial"`` or ``"process"``.
    #: Detections (plus ``pages_visited`` and ``timed_out_domains``) are
    #: byte-identical across backends and worker counts; only
    #: ``sessions_started`` may differ when ``restart_every_pages > 1``,
    #: since sessions never span shard boundaries.
    backend: str = "serial"
    #: Persist the crawl checkpoint every N completed shard boundaries
    #: (``1`` = at every boundary).  Purely operational: a larger interval
    #: writes fewer checkpoint files at the cost of re-crawling more shards
    #: after a crash; resumed bytes are identical for any value.
    checkpoint_every_shards: int = 1
    #: Simulate whole shards as numpy arrays over each worker's compiled
    #: site records (the columnar simulator).  ``False`` selects the
    #: reference browser simulator, which re-derives every per-page input and
    #: serves as the columnar path's oracle; detections are byte-identical
    #: either way (the equivalence tests enforce it).
    fast_path: bool = True
    #: Parallel crawls (``workers > 1``) split the site list into
    #: ``workers * shard_oversubscribe`` shards so that pool workers stay
    #: busy despite the rank-correlated cost skew (high-rank shards carry
    #: more HB sites and cost several times more than tail shards).  A
    #: sequential crawl always uses a single shard.  Detections are
    #: byte-identical for any value; only scheduling granularity changes.
    shard_oversubscribe: int = 4
    #: Supervision: how many times a failed shard attempt is retried before
    #: the shard is quarantined (or, with :attr:`quarantine` off, the crawl
    #: aborts).  Because shard simulation is deterministic, a retried shard
    #: reproduces exactly the bytes the failed attempt would have produced —
    #: supervision never changes output, only availability.
    shard_retries: int = 2
    #: Per-attempt wall-clock budget in seconds for pool backends (``None``
    #: disables).  A timed-out attempt's future is abandoned (a hung worker
    #: keeps its slot until it wakes) and the shard is retried/quarantined
    #: under the normal policy.  Not enforceable on the serial backend, which
    #: runs shards in the calling thread.
    shard_timeout: float | None = None
    #: Base backoff in seconds between retry attempts; attempt *n* waits
    #: ``retry_backoff * 2**(n-1)`` scaled by a deterministic jitter factor
    #: in ``[0.5, 1.0)`` derived from ``(seed, shard, attempt)``.  Also the
    #: policy used for transient sink-write retries.
    retry_backoff: float = 0.1
    #: After a shard exhausts its retries, quarantine it and complete the
    #: crawl degraded (quarantined shards are recorded in the checkpoint and
    #: re-crawlable via resume) instead of aborting the whole campaign.
    quarantine: bool = True
    #: Optional path of a JSON-lines supervision event log (retries, pool
    #: rebuilds, quarantines, sink retries).  Written best-effort by the
    #: parent process; the service tails it into SSE ``fault`` events.
    fault_log: str | None = None

    def __post_init__(self) -> None:
        if self.page_load_timeout_ms <= 0:
            raise ConfigurationError("page load timeout must be positive")
        if self.extra_dwell_ms < 0:
            raise ConfigurationError("extra dwell cannot be negative")
        if self.restart_every_pages < 1:
            raise ConfigurationError("restart_every_pages must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.checkpoint_every_shards < 1:
            raise ConfigurationError("checkpoint_every_shards must be >= 1")
        if self.shard_oversubscribe < 1:
            raise ConfigurationError("shard_oversubscribe must be >= 1")
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {', '.join(BACKEND_NAMES)}"
            )
        if self.shard_retries < 0:
            raise ConfigurationError("shard_retries cannot be negative")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError("shard_timeout must be positive (or None)")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff cannot be negative")


@dataclass(frozen=True)
class ShardFailure:
    """One shard quarantined after exhausting its retry budget.

    Carries everything an operator needs to triage and re-run: the shard's
    position in the plan, the last error, how many attempts were burned, and
    the domains the shard covers.  JSON-able via :meth:`to_dict` so it can be
    persisted in checkpoints and served by the campaign API.
    """

    shard_index: int
    error: str
    attempts: int
    domains: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "shard": self.shard_index,
            "error": self.error,
            "attempts": self.attempts,
            "domains": list(self.domains),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ShardFailure":
        return cls(
            shard_index=int(data["shard"]),
            error=str(data["error"]),
            attempts=int(data["attempts"]),
            domains=tuple(str(d) for d in data.get("domains", ())),
        )


@dataclass
class CrawlResult:
    """Outcome of crawling a list of sites once."""

    detections: list[SiteDetection] = field(default_factory=list)
    timed_out_domains: list[str] = field(default_factory=list)
    pages_visited: int = 0
    sessions_started: int = 0
    #: Supervision bookkeeping: shard attempts retried, worker pools rebuilt
    #: after a dead worker, transient sink writes retried.  All zero on a
    #: fault-free run; never part of the byte-identity surface.
    retries: int = 0
    pool_rebuilds: int = 0
    sink_retries: int = 0
    #: Shards that exhausted their retry budget; non-empty means the crawl
    #: completed *degraded* — its detections cover only the shards before
    #: the first quarantined index, and a resume re-crawls the rest.
    quarantined_shards: tuple[ShardFailure, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined_shards)

    @property
    def hb_detections(self) -> list[SiteDetection]:
        return [detection for detection in self.detections if detection.hb_detected]

    @property
    def hb_domains(self) -> list[str]:
        return [detection.domain for detection in self.hb_detections]

    @property
    def adoption_rate(self) -> float:
        if not self.detections:
            return 0.0
        return len(self.hb_detections) / len(self.detections)

    def merge(self, other: "CrawlResult") -> "CrawlResult":
        """Combine two results, preserving ``self``-then-``other`` order.

        Merging is associative and order-preserving, which is what lets the
        engine reassemble per-shard results into the canonical sequence:
        ``merged([a, b, c])`` equals ``a.merge(b).merge(c)``.  Neither input
        is mutated.
        """
        return CrawlResult(
            detections=self.detections + other.detections,
            timed_out_domains=self.timed_out_domains + other.timed_out_domains,
            pages_visited=self.pages_visited + other.pages_visited,
            sessions_started=self.sessions_started + other.sessions_started,
            retries=self.retries + other.retries,
            pool_rebuilds=self.pool_rebuilds + other.pool_rebuilds,
            sink_retries=self.sink_retries + other.sink_retries,
            quarantined_shards=self.quarantined_shards + other.quarantined_shards,
        )

    @classmethod
    def merged(cls, results: Iterable["CrawlResult"]) -> "CrawlResult":
        """Merge many results left to right into a fresh :class:`CrawlResult`."""
        return reduce(cls.merge, results, cls())


ProgressCallback = Callable[[int, int, SiteDetection], None]


class Crawler:
    """Visits publishers with HBDetector loaded and collects detections.

    A thin facade over :class:`repro.crawler.engine.CrawlEngine`; kept for
    backward compatibility and as the one-object entry point.  The engine's
    backend is taken from ``config.backend`` / ``config.workers`` (serial by
    default, matching the paper's sequential crawl).
    """

    def __init__(
        self,
        environment: AuctionEnvironment,
        detector: HBDetector,
        config: CrawlConfig | None = None,
        *,
        backend: "ExecutionBackend | None" = None,
        fault_plan: object | None = None,
    ) -> None:
        from repro.crawler.engine import CrawlEngine

        self.environment = environment
        self.detector = detector
        self.config = config or CrawlConfig()
        self.engine: "CrawlEngine" = CrawlEngine(
            environment, detector, self.config, backend=backend, fault_plan=fault_plan
        )

    def close(self) -> None:
        """Release the engine's pooled workers (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "Crawler":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            self.close()
        except Exception:
            # Never mask a crawl error with a pool-teardown failure.
            if exc_type is None:
                raise

    def crawl(
        self,
        publishers: Sequence[Publisher] | PublisherPopulation,
        *,
        crawl_day: int = 0,
        progress: ProgressCallback | None = None,
        sink: "DetectionSinkLike | None" = None,
        checkpoint: "CrawlCheckpointer | None" = None,
    ) -> CrawlResult:
        """Visit every publisher once and run detection on each page load."""
        return self.engine.crawl(
            publishers,
            crawl_day=crawl_day,
            progress=progress,
            sink=sink,
            checkpoint=checkpoint,
        )

    def crawl_domains(
        self,
        population: PublisherPopulation,
        domains: Iterable[str],
        *,
        crawl_day: int = 0,
        progress: ProgressCallback | None = None,
        sink: "DetectionSinkLike | None" = None,
        checkpoint: "CrawlCheckpointer | None" = None,
    ) -> CrawlResult:
        """Crawl a subset of a population selected by domain name."""
        return self.engine.crawl_domains(
            population,
            domains,
            crawl_day=crawl_day,
            progress=progress,
            sink=sink,
            checkpoint=checkpoint,
        )
