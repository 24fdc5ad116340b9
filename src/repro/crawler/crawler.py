"""The main crawl driver.

Given a publisher population (the simulated Web), the crawler visits each
site with a clean-slate session, runs HBDetector on every page load, handles
page-load timeouts by killing and restarting the session, and returns the
per-site detections together with crawl bookkeeping.

:class:`Crawler` shards the site list (:class:`repro.crawler.engine.CrawlPlan`),
fans shards out to the configured execution backend (serial by default) and
merges results in canonical order, so ``CrawlConfig(workers=8,
backend="process")`` parallelises any caller without code changes.  Every
backend runs one supervised loop whose retry policy is the crawl's
:class:`CrawlConfig` (``shard_retries`` / ``shard_timeout`` /
``retry_backoff``); a shard that exhausts its retries is quarantined.

Streaming
---------
:meth:`Crawler.crawl` accepts a ``sink`` (any object with a
``write(detection)`` method, e.g. :class:`repro.crawler.storage.DetectionSink`).
Detections are streamed to the sink in canonical order, instead of buffering
the whole crawl before persisting anything: the serial backend streams after
every page, the process backend streams each shard as soon as every earlier
shard has completed.  A process-pool shard arrives as a column batch its
worker encoded; a columnar sink takes it whole (``write_batch``), and any
other sink, or a ``progress`` callback, gets its decoded records.  If the
sink exposes a ``flush()`` method (buffered sinks do), the crawler calls it
at every shard boundary, so a buffered sink never holds more than one
shard's tail of detections in memory.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.detector.detector import HBDetector
from repro.detector.records import SiteDetection
from repro.ecosystem.publishers import Publisher, PublisherPopulation
from repro.errors import ConfigurationError, StorageError
from repro.hb.environment import AuctionEnvironment
from repro.utils.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.crawler.colstore import ColumnBatch
    from repro.crawler.engine import CrawlPlan, DetectionSinkLike, ExecutionBackend

__all__ = [
    "CrawlConfig",
    "CrawlResult",
    "ShardFailure",
    "Crawler",
    "BACKEND_NAMES",
    "retry_delay",
    "log_fault_event",
]

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
    #: the shard is quarantined and the crawl completes degraded (the
    #: quarantine is recorded in the checkpoint and re-crawled on resume).
    #: Because shard simulation is deterministic, a retried shard reproduces
    #: exactly the bytes the failed attempt would have produced — supervision
    #: never changes output, only availability.
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


def retry_delay(config: CrawlConfig, key: object, attempt: int) -> float:
    """Exponential backoff before retry ``attempt`` (1-based).

    The jitter factor in ``[0.5, 1.0)`` is derived from
    ``(config.seed, key, attempt)`` instead of wall-clock randomness, so
    retry schedules — like everything else in a crawl — are reproducible.
    """
    if config.retry_backoff <= 0:
        return 0.0
    jitter = 0.5 + (stable_hash(config.seed, "retry", key, attempt) % 1024) / 2048.0
    return config.retry_backoff * (2 ** (attempt - 1)) * jitter


def log_fault_event(config: CrawlConfig, kind: str, **data) -> None:
    """Append one supervision event to ``config.fault_log`` (best effort).

    JSON lines, parent-process only; the campaign service tails this file
    into SSE ``fault`` events.  Log I/O failures are swallowed —
    observability must never take down a crawl that supervision just saved.
    """
    if not config.fault_log:
        return
    record = {"event": kind, "ts": round(time.time(), 3), **data}
    try:
        with open(config.fault_log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - best-effort log
        pass


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


class CrawlResult:
    """Outcome of crawling a list of sites once.

    The records are kept in parts, each a ``SiteDetection`` list or the
    :class:`~repro.crawler.colstore.ColumnBatch` a process-pool shard
    returns.  :attr:`detections` decodes batches on first read; merging,
    :attr:`n_detections`, :attr:`batches` and :attr:`hb_domains` do not.
    """

    def __init__(
        self,
        detections: list[SiteDetection] | None = None,
        timed_out_domains: list[str] | None = None,
        pages_visited: int = 0,
        sessions_started: int = 0,
        retries: int = 0,
        pool_rebuilds: int = 0,
        sink_retries: int = 0,
        quarantined_shards: tuple[ShardFailure, ...] = (),
        *,
        batches: Sequence["ColumnBatch"] = (),
    ) -> None:
        self._parts: tuple = ((detections,) if detections is not None else ()) + tuple(batches)
        self.timed_out_domains = timed_out_domains if timed_out_domains is not None else []
        self.pages_visited = pages_visited
        self.sessions_started = sessions_started
        #: Supervision bookkeeping: shard attempts retried, worker pools rebuilt
        #: after a dead worker, transient sink writes retried.  All zero on a
        #: fault-free run; never part of the byte-identity surface.
        self.retries = retries
        self.pool_rebuilds = pool_rebuilds
        self.sink_retries = sink_retries
        #: Shards that exhausted their retry budget; non-empty means the crawl
        #: completed *degraded* — its detections cover only the shards before
        #: the first quarantined index, and a resume re-crawls the rest.
        self.quarantined_shards = quarantined_shards

    @property
    def detections(self) -> list[SiteDetection]:
        """Every record, in order (batches are decoded the first time)."""
        parts = self._parts
        if len(parts) != 1 or not isinstance(parts[0], list):
            records = [
                record for part in parts
                for record in (part if isinstance(part, list) else part.records())
            ]
            self._parts = parts = (records,)
        return parts[0]

    @property
    def n_detections(self) -> int:
        return sum(len(part) for part in self._parts)

    @property
    def batches(self) -> tuple["ColumnBatch", ...] | None:
        """The records as column batches, or ``None`` if any part is a list."""
        if any(isinstance(part, list) for part in self._parts):
            return None
        return self._parts

    def encoded(self) -> "CrawlResult":
        """This result with its records encoded as one column batch."""
        from repro.crawler.colstore import ColumnBatch

        result = copy.copy(self)
        result._parts = (ColumnBatch.encode(self.detections),)
        return result

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined_shards)

    @property
    def hb_detections(self) -> list[SiteDetection]:
        return [detection for detection in self.detections if detection.hb_detected]

    @property
    def hb_domains(self) -> list[str]:
        batches = self.batches
        if batches is not None:
            return [domain for batch in batches for domain in batch.hb_domains()]
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
        return CrawlResult.merged((self, other))

    @classmethod
    def merged(cls, results: Iterable["CrawlResult"]) -> "CrawlResult":
        """Merge many results left to right into a fresh :class:`CrawlResult`."""
        merged = cls()
        parts: list = []
        for result in results:
            # Lists are copied so the merged result never aliases an input's.
            parts.extend(
                list(part) if isinstance(part, list) else part for part in result._parts if len(part)
            )
            merged.timed_out_domains.extend(result.timed_out_domains)
            merged.pages_visited += result.pages_visited
            merged.sessions_started += result.sessions_started
            merged.retries += result.retries
            merged.pool_rebuilds += result.pool_rebuilds
            merged.sink_retries += result.sink_retries
            merged.quarantined_shards += result.quarantined_shards
        merged._parts = tuple(parts)
        return merged


ProgressCallback = Callable[[int, int, SiteDetection], None]


class Crawler:
    """Shards a crawl, fans it out to a backend, and merges canonically.

    Parameters
    ----------
    environment / detector:
        The simulated demand side and the detection tool; each worker builds
        its own long-lived context from them (the caller's own objects on
        the serial backend, one pickled copy per worker process) instead of
        receiving copies per shard.
    config:
        Operational crawl parameters; ``config.workers`` and
        ``config.backend`` choose the default execution strategy, and
        ``shard_retries`` / ``shard_timeout`` / ``retry_backoff`` are the
        retry policy of both shard attempts and sink writes.
    backend:
        Explicit backend instance, overriding the config-derived one.
    fault_plan:
        Optional :class:`repro.testing.FaultPlan`; the crawler installs it on
        the backend (shard-level crash/hang/raise faults) and wraps the sink
        with it (transient write failures).  Supervision must absorb every
        injected fault without changing a byte of output.

    Pool backends keep their workers alive between :meth:`crawl` calls;
    call :meth:`close` (or use ``with Crawler(...) as crawler:``) to release
    them deterministically.
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
        from repro.crawler.engine import WorkerContext, backend_from_name

        self.environment = environment
        self.detector = detector
        self.config = config or CrawlConfig()
        self.backend = backend or backend_from_name(
            self.config.backend, workers=self.config.workers
        )
        self.fault_plan = fault_plan
        self._context = WorkerContext.build(environment, detector, self.config)

    def plan(self, publishers: Sequence[Publisher] | PublisherPopulation) -> "CrawlPlan":
        """The shard plan this crawler would use for ``publishers``."""
        from repro.crawler.engine import CrawlPlan

        return CrawlPlan.build(
            publishers,
            workers=self.config.workers,
            seed=self.config.seed,
            oversubscribe=self.config.shard_oversubscribe,
        )

    def close(self) -> None:
        """Release pooled workers (safe to call twice; reusable after)."""
        self.backend.shutdown()

    def __enter__(self) -> "Crawler":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            self.close()
        except Exception:
            # A pool-teardown failure while unwinding a crawl error must not
            # mask the original exception; surface it only on a clean exit.
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
        """Visit every publisher once and run detection on each page load.

        Detections reach ``progress`` and ``sink`` incrementally, always in
        canonical site order: page by page on inline backends (serial), and
        shard by shard — as soon as every earlier shard has completed — on
        pool backends.  Sinks with a ``flush()`` method are flushed at every
        shard boundary.

        ``checkpoint`` makes the crawl resumable: progress is recorded at
        shard boundaries (throttled by ``config.checkpoint_every_shards``),
        and if the checkpointer was resumed from a previous interrupted run
        the completed leading shards are skipped, their detections recovered
        from the sink file instead of re-crawled, and the merged result —
        and the sink bytes — are identical to an uninterrupted run.  A
        checkpointed crawl requires a sink (recovery replays its file), and
        recovered detections are not re-streamed to ``sink``/``progress``.
        """
        config = self.config
        plan = self.plan(publishers)
        if self.fault_plan is not None and sink is not None:
            sink = self.fault_plan.wrap_sink(sink)
        prior = CrawlResult()
        skip = 0
        if checkpoint is not None:
            if sink is None:
                raise ConfigurationError(
                    "a checkpointed crawl needs a sink: resume recovers "
                    "completed shards from the sink file"
                )
            prior, skip = checkpoint.begin_phase(plan, crawl_day, sink)
        emitted = prior.n_detections
        # A columnar sink takes a pool shard's batch whole; other sinks and
        # progress callbacks get its records one by one.
        batched = progress is None and getattr(sink, "format", None) == "columnar"
        degraded = False
        sink_retries = 0

        def retry_sink(operation: Callable[..., None], key: str, *args: object) -> None:
            # Transient sink failures get the same backoff policy as shard
            # retries.  A failed write or flush leaves the sink as it was,
            # so the retry writes exactly the same bytes.
            nonlocal sink_retries
            attempt = 0
            while True:
                try:
                    operation(*args)
                    return
                except StorageError as exc:
                    if attempt >= config.shard_retries:
                        raise
                    attempt += 1
                    sink_retries += 1
                    log_fault_event(
                        config, "sink_retry", attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    time.sleep(retry_delay(config, key, attempt))

        def emit(detection: SiteDetection) -> None:
            nonlocal emitted
            if degraded:
                # An inline backend already hit a quarantined shard: every
                # later shard is past the gap and its detections can never
                # be part of this run's canonical prefix.
                return
            emitted += 1
            if sink is not None:
                retry_sink(sink.write, "sink-write", detection)
            if progress is not None:
                progress(emitted, plan.n_sites, detection)

        remaining = plan.shards[skip:]
        if not remaining:
            # The whole phase was recovered from the checkpoint: don't spin
            # up pool workers (and pickle the environment into them) for a
            # no-op replay.
            return prior

        backend = self.backend
        inline = backend.streams_inline
        backend.prepare(self._context)
        backend.set_fault_plan(self.fault_plan)
        retries_before, rebuilds_before = backend.retries, backend.pool_rebuilds
        # The canonical order (shard concatenation) guarantees element
        # identity between the published list and every shard slice.
        backend.publish_sites([p for shard in plan.shards for p in shard.publishers])
        sink_flush = getattr(sink, "flush", None)
        # Phase-cumulative counters for checkpointing (resumed prefix included).
        n_detections = prior.n_detections
        pages_visited = prior.pages_visited
        sessions_started = prior.sessions_started
        timed_out = list(prior.timed_out_domains)
        checkpoint_every = config.checkpoint_every_shards
        boundaries = 0
        n_shards = len(plan.shards)
        # `execute` yields in completion order; shards are emitted (and
        # ultimately merged) in shard order, holding back any that finish
        # early. Every shard is yielded exactly once, so `ordered` is
        # complete when the loop ends.
        ordered: list[CrawlResult] = []
        early: dict[int, CrawlResult] = {}
        failures: dict[int, ShardFailure] = {}
        for shard_index, shard_result in backend.execute(
            remaining, crawl_day, emit if inline else None
        ):
            if isinstance(shard_result, ShardFailure):
                # Quarantined: the in-order walk below stops at this index,
                # so nothing at or past the first failure is emitted or
                # checkpointed. The backend keeps draining, discovering
                # every poison shard in one degraded pass.
                failures[shard_index] = shard_result
                if inline:
                    degraded = True
                continue
            early[shard_index] = shard_result
            at_boundary = False
            while skip + len(ordered) in early:
                ready = early.pop(skip + len(ordered))
                batches = None if inline or not batched else ready.batches
                if batches is not None:
                    for batch in batches:
                        retry_sink(sink.write_batch, "sink-write", batch)  # type: ignore[union-attr]
                elif not inline:
                    for detection in ready.detections:
                        emit(detection)
                ordered.append(ready)
                n_detections += ready.n_detections
                pages_visited += ready.pages_visited
                sessions_started += ready.sessions_started
                timed_out.extend(ready.timed_out_domains)
                at_boundary = True
                # Flush once per in-order shard, not once per ready batch:
                # parallel backends hand back shards in completion order, and
                # a per-batch flush would make the columnar store's chunk
                # boundaries depend on arrival timing.  Per-shard flushing
                # keeps sink bytes a pure function of (shard contents,
                # flush_every) for every backend and worker count.
                if sink_flush is not None:
                    retry_sink(sink_flush, "sink-flush")
            if at_boundary and checkpoint is not None:
                boundaries += 1
                done = skip + len(ordered) == n_shards
                checkpoint.record_progress(
                    crawl_day,
                    completed_shards=skip + len(ordered),
                    n_detections=n_detections,
                    pages_visited=pages_visited,
                    sessions_started=sessions_started,
                    timed_out_domains=tuple(timed_out),
                    sink_offset=sink.offset,  # type: ignore[union-attr]
                    persist=done or boundaries % checkpoint_every == 0,
                )
        result = prior.merge(CrawlResult.merged(ordered))
        result.retries += backend.retries - retries_before
        result.pool_rebuilds += backend.pool_rebuilds - rebuilds_before
        result.sink_retries += sink_retries
        if failures:
            quarantined = tuple(failures[index] for index in sorted(failures))
            result.quarantined_shards = result.quarantined_shards + quarantined
            log_fault_event(
                config,
                "degraded",
                crawl_day=crawl_day,
                quarantined=[failure.shard_index for failure in quarantined],
            )
            if checkpoint is not None:
                # Persist the quarantine list (and the latest in-memory
                # progress, which may have been throttled) so a resume knows
                # exactly what is left to re-crawl.
                checkpoint.record_quarantine(crawl_day, quarantined)
        return result

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
        publishers = [population.by_domain(domain) for domain in domains]
        return self.crawl(
            publishers,
            crawl_day=crawl_day,
            progress=progress,
            sink=sink,
            checkpoint=checkpoint,
        )
