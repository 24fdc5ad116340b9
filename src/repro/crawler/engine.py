"""Crawl plans, worker contexts and the execution backends.

The paper's workload is embarrassingly parallel across sites: one discovery
pass over the 35k-site top list, then daily re-crawls of the ~5k HB-enabled
sites.  This module splits a publisher list into deterministic shards
(:class:`CrawlPlan`) and runs them through an :class:`ExecutionBackend`
(serial or process pool); :class:`repro.crawler.crawler.Crawler` drives a
backend and merges the per-shard :class:`~repro.crawler.crawler.CrawlResult`
objects back in canonical site order.

Worker-scoped environment reuse and shared-memory handoff
---------------------------------------------------------
Workers do **not** receive the environment and detector per shard.  Each
backend builds a :class:`WorkerContext` once per worker — at pool start via
the executor ``initializer`` hook — and shard tasks then ship only tiny
descriptors.  On the process backend the environment/detector/config payload
is serialised exactly once, into a ``multiprocessing.shared_memory`` block
(:class:`SharedPayload`) every worker attaches to; each crawl's site list is
published the same way, so warm re-crawls ship **zero** publisher bytes per
task — a shard task is a handful of integers naming its slice of the shared
list.  Blocks are refcounted and unlinked by ``shutdown()`` /
:meth:`Crawler.close`.  Pools persist across :meth:`Crawler.crawl` calls, so
a 34-day longitudinal campaign pays the worker setup cost once, not once per
day.

Supervision
-----------
Each backend's ``execute`` is one supervised loop whose policy is the
context's :class:`~repro.crawler.crawler.CrawlConfig`: a failed attempt is
retried up to ``shard_retries`` times after a deterministic jittered backoff
(:func:`~repro.crawler.crawler.retry_delay`), and a shard that exhausts its
budget is yielded as a :class:`ShardFailure` (quarantined) instead of
aborting the crawl.  Events go to ``config.fault_log``.

Determinism guarantee
---------------------
Every page load derives its RNG stream from ``(seed, domain, visit_index)``
(see :meth:`repro.browser.engine.BrowserEngine.load`, which the columnar
simulator replicates stream for stream), never from crawl
order, worker identity or shared session state.  Shards are contiguous
chunks of the input list and each shard additionally carries a seed derived
from ``(seed, "shard", index)`` for shard-local bookkeeping, so the plan
itself is a pure function of ``(sites, workers, seed)``.  Merging shard
results in shard-index order therefore reproduces the serial detection
sequence exactly: a crawl with ``workers=1`` and ``workers=8`` produces
byte-identical serialised detections, and reusing workers across shards or
crawls cannot change the bytes because the detector is reset at every shard
boundary and carries no cross-page state.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Protocol, Sequence

from repro.crawler.crawler import (
    BACKEND_NAMES,
    CrawlConfig,
    CrawlResult,
    ShardFailure,
    log_fault_event,
    retry_delay,
)
from repro.crawler.session import CrawlSession
from repro.detector.detector import HBDetector
from repro.detector.records import SiteDetection
from repro.ecosystem.publishers import Publisher, PublisherPopulation
from repro.errors import (
    CampaignCancelled,
    CheckpointError,
    ConfigurationError,
    ShardTimeout,
)
from repro.hb.environment import AuctionEnvironment
from repro.utils.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecosystem.profiles import SiteProfileTable

__all__ = [
    "CrawlShard",
    "CrawlPlan",
    "WorkerContext",
    "SharedPayload",
    "ShardFailure",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "DetectionSinkLike",
    "backend_from_name",
    "BACKEND_NAMES",
]


# ---------------------------------------------------------------------------
# Sharding


@dataclass(frozen=True)
class CrawlShard:
    """One contiguous slice of the canonical site list, owned by one worker."""

    index: int
    #: Position of the shard's first site in the canonical (input) order.
    start: int
    publishers: tuple[Publisher, ...]
    #: Seed derived from ``(plan seed, "shard", index)``; reserved for
    #: shard-local decisions.  Page-level RNG is keyed by
    #: ``(seed, domain, visit_index)`` and deliberately ignores this, which is
    #: what keeps results independent of the worker count.
    shard_seed: int

    def __len__(self) -> int:
        return len(self.publishers)


@dataclass(frozen=True)
class CrawlPlan:
    """A deterministic partition of a publisher list into crawl shards."""

    seed: int
    n_sites: int
    shards: tuple[CrawlShard, ...]

    @classmethod
    def build(
        cls,
        publishers: Sequence[Publisher] | PublisherPopulation,
        *,
        workers: int = 1,
        seed: int = 2019,
        oversubscribe: int = 1,
    ) -> "CrawlPlan":
        """Split ``publishers`` into balanced shards.

        The split is contiguous (shard *i* holds an unbroken run of the input
        order) and a pure function of ``(publishers, workers, seed,
        oversubscribe)``: the first ``len(publishers) % n`` shards receive
        one extra site.  A parallel plan (``workers > 1``) produces up to
        ``workers * oversubscribe`` shards, so pool workers keep pulling work
        while an expensive high-rank shard is still running; a sequential
        plan is always a single shard.  Merging in shard order reproduces the
        canonical site order for any shard count, so detections are
        byte-identical regardless of ``oversubscribe``.
        """
        if workers < 1:
            raise ConfigurationError("a crawl plan needs at least one worker")
        if oversubscribe < 1:
            raise ConfigurationError("a crawl plan needs oversubscribe >= 1")
        sites = list(publishers)
        slots = workers * oversubscribe if workers > 1 else 1
        n_shards = max(1, min(slots, len(sites)))
        base, extra = divmod(len(sites), n_shards)
        shards = []
        start = 0
        for index in range(n_shards):
            size = base + (1 if index < extra else 0)
            shards.append(
                CrawlShard(
                    index=index,
                    start=start,
                    publishers=tuple(sites[start : start + size]),
                    shard_seed=stable_hash(seed, "shard", index),
                )
            )
            start += size
        return cls(seed=seed, n_sites=len(sites), shards=tuple(shards))

    @property
    def site_order(self) -> tuple[str, ...]:
        """Domains in canonical order (concatenation of the shards)."""
        return tuple(p.domain for shard in self.shards for p in shard.publishers)


# ---------------------------------------------------------------------------
# The per-worker context and the per-shard worker


@dataclass
class WorkerContext:
    """Crawl state one worker owns for its whole lifetime.

    Built once per worker (not once per shard): the serial backend wraps the
    caller's own objects, and the process backend ships the context to each
    worker process exactly once through a shared-memory block.

    ``profiles`` is the worker's :class:`SiteProfileTable`: one compiled
    record per site, keyed to this context's environment, seed and
    detector's known-partner list, and the columnar simulator's only
    per-site input.  It is ``None`` when ``config.fast_path`` is off and
    shards run through the reference browser simulator.
    """

    environment: AuctionEnvironment
    detector: HBDetector
    config: CrawlConfig
    profiles: "SiteProfileTable | None" = None

    @classmethod
    def build(
        cls, environment: AuctionEnvironment, detector: HBDetector, config: CrawlConfig
    ) -> "WorkerContext":
        """Assemble a context, with a profile table for the columnar simulator."""
        profiles = None
        if config.fast_path:
            from repro.ecosystem.profiles import SiteProfileTable

            profiles = SiteProfileTable(
                environment, detector.known_partners, seed=config.seed
            )
        return cls(environment=environment, detector=detector, config=config, profiles=profiles)


def _crawl_shard(
    context: WorkerContext,
    crawl_day: int,
    on_detection: Callable[[SiteDetection], None] | None,
    shard: CrawlShard,
) -> CrawlResult:
    """Crawl one shard using the worker's long-lived context.

    With ``config.fast_path`` the shard goes to the columnar simulator;
    otherwise each page loads through the reference browser simulator below.
    The detector is reset at shard start, so reusing one worker for many
    shards (or many crawl days) is observationally identical to giving every
    shard a fresh detector.  Sessions are created lazily: after a timeout or
    a scheduled restart the replacement is only spawned if another site
    remains, so the final page of a shard never bumps ``sessions_started``
    for a session that loads nothing.

    ``on_detection`` fires after every page; backends that run shards inline
    in the calling thread (``streams_inline``) use it for page-granular
    streaming, pool backends pass ``None`` and stream per completed shard.
    """
    environment, detector, config = context.environment, context.detector, context.config
    if config.fast_path:
        from repro.ecosystem.columnar import simulate_shard_columnar

        return simulate_shard_columnar(context, crawl_day, on_detection, shard)
    detector.reset()
    result = CrawlResult()
    session: CrawlSession | None = None
    for publisher in shard.publishers:
        if session is None:
            session = CrawlSession(
                environment=environment,
                seed=config.seed,
                page_load_timeout_ms=config.page_load_timeout_ms,
                extra_dwell_ms=config.extra_dwell_ms,
            )
            result.sessions_started += 1
        page = session.load(publisher, visit_index=crawl_day)
        result.pages_visited += 1
        if page.timed_out:
            # The paper kills the instance after 60 s and moves on; the
            # partially loaded page still yields whatever was observed.
            result.timed_out_domains.append(publisher.domain)
            session.kill()
            session = None
        detection = detector.inspect_page(page, crawl_day=crawl_day)
        result.detections.append(detection)
        if on_detection is not None:
            on_detection(detection)
        if session is not None and session.pages_loaded >= config.restart_every_pages:
            session.kill()
            session = None
    if session is not None:
        session.kill()
    return result


# ---------------------------------------------------------------------------
# Shared-memory payload handoff (process backend)


class SharedPayload:
    """One pickled object published in a ``multiprocessing.shared_memory`` block.

    The parent process serialises the payload exactly once; worker processes
    attach to the block by name, deserialise, and detach immediately.  The
    creator keeps the only long-lived handle: :meth:`release` decrements the
    refcount taken by :meth:`retain` and closes + unlinks the block when it
    reaches zero (``Crawler.close`` releases through the backend).
    """

    __slots__ = ("name", "size", "_shm", "_refs", "_finalizer", "__weakref__")

    def __init__(self, payload: object) -> None:
        import weakref
        from multiprocessing import shared_memory

        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
        self._shm.buf[: len(data)] = data
        self.name = self._shm.name
        self.size = len(data)
        self._refs = 1
        # Safety net: unlink at GC / interpreter exit even if the owner never
        # reaches release() (e.g. a crashed crawl that skipped close()).
        self._finalizer = weakref.finalize(self, _destroy_shared_block, self._shm)

    def retain(self) -> "SharedPayload":
        if self._shm is None:
            raise ConfigurationError("cannot retain a released shared payload")
        self._refs += 1
        return self

    def release(self) -> None:
        if self._shm is None:
            return
        self._refs -= 1
        if self._refs > 0:
            return
        shm, self._shm = self._shm, None
        self._finalizer.detach()
        _destroy_shared_block(shm)

    @property
    def live(self) -> bool:
        return self._shm is not None


def _destroy_shared_block(shm) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _read_shared_payload(name: str, size: int) -> object:
    """Attach to a shared block, deserialise its payload, detach (worker side).

    Attaching normally *registers* the segment with the resource tracker
    (CPython < 3.13 offers no ``track=False``), and the tracker — shared with
    the parent — would then unlink a block the parent still owns when any
    worker exits.  The attach is wrapped with registration suppressed; the
    parent remains the sole owner.
    """
    from multiprocessing import resource_tracker, shared_memory

    register, resource_tracker.register = resource_tracker.register, lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register
    try:
        return pickle.loads(bytes(shm.buf[:size]))
    finally:
        shm.close()


#: Per-process worker context, populated by the process pool initializer.
#: Lives at module scope so shard tasks reach it without any per-task payload.
_PROCESS_CONTEXT: WorkerContext | None = None

#: Per-process cache of site lists received through shared memory, keyed by
#: block name.  Bounded: a worker keeps the few most recent lists (a
#: longitudinal campaign re-crawls the same list every day).
_PROCESS_SITE_CACHE: dict[str, list[Publisher]] = {}
_PROCESS_SITE_CACHE_LIMIT = 4


def _init_process_worker(payload_name: str, payload_size: int) -> None:
    """Process pool initializer: read the worker context from shared memory.

    The environment/detector/config payload is serialised once by the parent
    (into the block every worker attaches to) instead of once per worker
    through the initializer arguments; only the block's name and size travel
    per worker.

    A worker also resets SIGTERM to its default action, so a plain ``kill``
    ends it (a forked worker inherits the CLI's SIGTERM-to-KeyboardInterrupt
    handler), and exits once its parent is gone.
    """
    global _PROCESS_CONTEXT
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _exit_with_parent()
    environment, detector, config = _read_shared_payload(payload_name, payload_size)
    _PROCESS_CONTEXT = WorkerContext.build(environment, detector, config)
    _PROCESS_SITE_CACHE.clear()


#: How often a pool worker checks that its parent is still alive, in seconds.
_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """End this worker process once its parent has died.

    A SIGKILLed parent never shuts its pool down: the workers would block on
    the call queue forever with ppid 1, and, because they hold the resource
    tracker's pipe open, the tracker would never unlink the parent's shared
    blocks.  A daemon thread watches for the reparenting instead.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _process_context() -> WorkerContext:
    context = _PROCESS_CONTEXT
    if context is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("process worker used before its context was initialised")
    return context


def _run_shard_in_process(
    shard: CrawlShard, crawl_day: int, fault: Callable[[], None] | None = None
) -> CrawlResult:
    """Entry point for process-pool shard tasks (only the descriptor ships).

    Like every pool task, it returns its records encoded as one column
    batch, so the result crosses back as a few buffers.
    """
    if fault is not None:
        fault()
    return _crawl_shard(_process_context(), crawl_day, None, shard).encoded()


def _run_shard_from_shared_sites(
    sites_name: str,
    sites_size: int,
    index: int,
    start: int,
    length: int,
    shard_seed: int,
    crawl_day: int,
    fault: Callable[[], None] | None = None,
) -> CrawlResult:
    """Process-pool shard task whose publishers live in a shared site list.

    The task ships a handful of integers and the block name; the worker
    attaches to the published site list once, caches it, and slices its own
    contiguous shard out of it — no per-shard publisher pickling at all.
    """
    if fault is not None:
        fault()
    sites = _PROCESS_SITE_CACHE.get(sites_name)
    if sites is None:
        sites = list(_read_shared_payload(sites_name, sites_size))
        while len(_PROCESS_SITE_CACHE) >= _PROCESS_SITE_CACHE_LIMIT:
            _PROCESS_SITE_CACHE.pop(next(iter(_PROCESS_SITE_CACHE)))
        _PROCESS_SITE_CACHE[sites_name] = sites
    shard = CrawlShard(
        index=index,
        start=start,
        publishers=tuple(sites[start : start + length]),
        shard_seed=shard_seed,
    )
    return _crawl_shard(_process_context(), crawl_day, None, shard).encoded()


# ---------------------------------------------------------------------------
# Supervision


class _ReplayEmitter:
    """Wraps an ``on_detection`` target so shard retries never double-emit.

    Inline backends stream page by page, so when a shard attempt fails
    mid-stream some of its detections have already reached the sink.  A
    retried attempt re-simulates the shard deterministically — the same
    detections in the same order — so the emitter swallows the first
    ``delivered`` of them and streaming resumes exactly where it stopped,
    keeping the sink bytes identical to a fault-free run.
    """

    __slots__ = ("_target", "delivered", "_seen")

    def __init__(self, target: Callable[[SiteDetection], None]) -> None:
        self._target = target
        self.delivered = 0
        self._seen = 0

    def begin_attempt(self) -> None:
        """Start (re)playing the current shard from its first detection."""
        self._seen = 0

    def __call__(self, detection: SiteDetection) -> None:
        self._seen += 1
        if self._seen <= self.delivered:
            return
        self._target(detection)
        self.delivered = self._seen


class _SupervisedBackend:
    """Retry/quarantine bookkeeping shared by the built-in backends.

    The retry policy is the prepared context's config: ``shard_retries``
    retries, each after :func:`retry_delay`, then quarantine.
    """

    def __init__(self) -> None:
        self._context: WorkerContext | None = None
        self._fault_plan = None
        #: Lifetime counters; the crawler snapshots deltas per crawl.
        self.retries = 0
        self.pool_rebuilds = 0

    def set_fault_plan(self, plan) -> None:
        """Install a fault-injection plan (``None`` clears it)."""
        self._fault_plan = plan

    def _next_fault(self, shard: CrawlShard, attempt: int):
        if self._fault_plan is None:
            return None
        return self._fault_plan.next_action(shard.index, attempt)

    def _failure_verdict(
        self, shard: CrawlShard, attempt: int, exc: BaseException
    ) -> "float | ShardFailure":
        """Classify one failed attempt: the backoff in seconds before its
        retry, the :class:`ShardFailure` that quarantines it, or re-raise
        ``exc`` when it is not retryable."""
        # Configuration and checkpoint errors reproduce identically on every
        # attempt, and a cancelled campaign must stop *now*; everything else
        # (injected faults, broken pools, transient I/O) is assumed transient.
        if isinstance(exc, (ConfigurationError, CheckpointError, CampaignCancelled)):
            raise exc
        config = self._context.config
        error = f"{type(exc).__name__}: {exc}"
        if attempt < config.shard_retries:
            self.retries += 1
            delay = retry_delay(config, shard.index, attempt + 1)
            log_fault_event(
                config,
                "retry",
                shard=shard.index,
                attempt=attempt + 1,
                delay=round(delay, 3),
                error=error,
            )
            return delay
        log_fault_event(
            config, "quarantine", shard=shard.index, attempts=attempt + 1, error=error
        )
        return ShardFailure(
            shard_index=shard.index,
            error=error,
            attempts=attempt + 1,
            domains=tuple(p.domain for p in shard.publishers),
        )


# ---------------------------------------------------------------------------
# Execution backends


class ExecutionBackend(Protocol):
    """Strategy for running shard tasks; yields results in completion order."""

    name: str
    #: Whether shards run inline in the calling thread, in shard order — in
    #: which case the crawler streams detections page by page through the
    #: worker's ``on_detection`` hook instead of per completed shard.
    streams_inline: bool
    #: Lifetime supervision counters: shard attempts retried, and worker
    #: pools rebuilt after a dead worker.
    retries: int
    pool_rebuilds: int

    def prepare(self, context: WorkerContext) -> None:
        """Install the crawl state workers will reuse across shards/crawls."""
        ...

    def set_fault_plan(self, plan) -> None:
        """Install a fault-injection plan (``None`` clears it)."""
        ...

    def publish_sites(self, sites: Sequence[Publisher]) -> None:
        """Ship the crawl's canonical site list to the workers out of band.

        Called once per crawl before :meth:`execute`; the process backend
        publishes the list in shared memory, inline backends ignore it.
        """
        ...

    def execute(
        self,
        shards: Sequence[CrawlShard],
        crawl_day: int,
        on_detection: Callable[[SiteDetection], None] | None,
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        """Run every shard, yielding ``(shard_index, result)``.

        A shard that exhausted its retry budget is quarantined: a
        :class:`ShardFailure` is yielded in place of its result.
        """
        ...

    def shutdown(self) -> None:
        """Release any pooled workers (idempotent)."""
        ...


class SerialBackend(_SupervisedBackend):
    """Run shards one after another in the calling thread (the default).

    The single worker is the caller itself, so the context wraps the
    crawler's own environment/detector without any copy — exactly the
    paper's sequential crawl.

    Supervision notes: ``shard_timeout`` is not enforceable here (there is no
    second thread to preempt the caller), and an injected ``crash`` fault
    degrades to an exception — killing the only process would defeat the
    point.  Retries replay a shard through a :class:`_ReplayEmitter`, so the
    detections an earlier attempt already streamed are skipped, not repeated.
    """

    name = "serial"
    streams_inline = True

    def prepare(self, context: WorkerContext) -> None:
        self._context = context

    def publish_sites(self, sites: Sequence[Publisher]) -> None:
        pass  # shards already run over the caller's own publishers

    def execute(
        self,
        shards: Sequence[CrawlShard],
        crawl_day: int,
        on_detection: Callable[[SiteDetection], None] | None,
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        if self._context is None:
            raise ConfigurationError("backend used before prepare()")
        for shard in shards:
            emitter = _ReplayEmitter(on_detection) if on_detection is not None else None
            attempt = 0
            while True:
                if emitter is not None:
                    emitter.begin_attempt()
                try:
                    fault = self._next_fault(shard, attempt)
                    if fault is not None:
                        fault()
                    result = _crawl_shard(self._context, crawl_day, emitter, shard)
                except Exception as exc:
                    verdict = self._failure_verdict(shard, attempt, exc)
                    if not isinstance(verdict, ShardFailure):
                        attempt += 1
                        time.sleep(verdict)
                        continue
                    result = verdict
                yield shard.index, result
                break

    def shutdown(self) -> None:
        self._context = None


class ProcessPoolBackend(_SupervisedBackend):
    """Fan shards out to persistent worker processes (true CPU parallelism).

    Worker processes start pickle-free: the environment/detector/config
    payload is serialised exactly once — into a shared-memory block every
    worker attaches to — and each crawl's site list is published the same
    way, so shard tasks ship only a handful of integers instead of their
    publishers.  Blocks are refcounted and unlinked on :meth:`shutdown`
    (reached through ``Crawler.close``).  Worker processes are fully
    isolated from the caller by construction.

    The executor is created lazily on first use and then *persists* across
    ``execute()`` calls, so per-worker setup (context build, environment
    unpickling) happens once per worker for the backend's whole lifetime
    instead of once per crawl.  ``shutdown()`` releases the pool.

    ``execute`` is a supervised loop: failed attempts retry with
    deterministic backoff, a :class:`BrokenExecutor` (a worker died) rebuilds
    the pool in place and resubmits everything that was in flight, attempts
    that exceed ``config.shard_timeout`` are abandoned and retried, and a
    shard that exhausts its budget is yielded as a :class:`ShardFailure`
    instead of aborting the crawl.
    """

    name = "process"
    streams_inline = False

    #: How many distinct published site lists to keep alive (a longitudinal
    #: campaign alternates between at most a couple — discovery + re-crawl).
    SITE_BLOCK_LIMIT = 4

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("a pool backend needs at least one worker")
        super().__init__()
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None
        self._pool_size = 0
        self._payload: SharedPayload | None = None
        # Published site lists: (sites, block), most recently used last.
        self._site_blocks: list[tuple[list[Publisher], SharedPayload]] = []
        self._current_sites: tuple[list[Publisher], SharedPayload] | None = None
        #: Lifetime task counters: shard tasks that referenced a shared site
        #: list vs tasks that had to ship their publishers (no published
        #: list, or a list whose elements did not match the shard's).  The
        #: benchmark reports these so a silent fall-off of the zero-copy
        #: path is visible.
        self.shared_site_tasks = 0
        self.fallback_tasks = 0

    def prepare(self, context: WorkerContext) -> None:
        if self._context is not None and self._executor is not None:
            if self._context is not context and (
                self._context.environment is not context.environment
                or self._context.detector is not context.detector
                or self._context.config != context.config
            ):
                # A live pool was initialised with different crawl state
                # (workers read seed/timeouts from the context they were
                # built with); a silent swap would keep crawling with the
                # old one.
                raise ConfigurationError(
                    "cannot reuse a running pool backend with a different "
                    "environment/detector/config; call shutdown() first"
                )
            return
        self._context = context

    def publish_sites(self, sites: Sequence[Publisher]) -> None:
        """Publish the crawl's canonical site list in shared memory.

        Re-publishing the same list (element-identical, the warm-crawl case)
        reuses the existing block, so a 34-day campaign ships its population
        across the process boundary once, not once per day.
        """
        sites = list(sites)
        for position, (known, block) in enumerate(self._site_blocks):
            if len(known) == len(sites) and all(a is b for a, b in zip(known, sites)):
                self._site_blocks.append(self._site_blocks.pop(position))
                self._current_sites = (known, block)
                return
        block = SharedPayload(sites)
        self._site_blocks.append((sites, block))
        self._current_sites = (sites, block)
        while len(self._site_blocks) > self.SITE_BLOCK_LIMIT:
            _, stale = self._site_blocks.pop(0)
            stale.release()

    def _make_executor(self, context: WorkerContext, workers: int) -> ProcessPoolExecutor:
        if self._payload is None or not self._payload.live:
            self._payload = SharedPayload(
                (context.environment, context.detector, context.config)
            )
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_process_worker,
            initargs=(self._payload.name, self._payload.size),
        )

    def _submit(self, shard: CrawlShard, crawl_day: int, fault: Callable[[], None] | None):
        executor = self._executor
        if self._current_sites is not None:
            sites, block = self._current_sites
            start, length = shard.start, len(shard.publishers)
            if start + length <= len(sites) and all(
                a is b for a, b in zip(sites[start : start + length], shard.publishers)
            ):
                self.shared_site_tasks += 1
                return executor.submit(
                    _run_shard_from_shared_sites,
                    block.name,
                    block.size,
                    shard.index,
                    start,
                    length,
                    shard.shard_seed,
                    crawl_day,
                    fault,
                )
        self.fallback_tasks += 1
        return executor.submit(_run_shard_in_process, shard, crawl_day, fault)

    def execute(
        self,
        shards: Sequence[CrawlShard],
        crawl_day: int,
        on_detection: Callable[[SiteDetection], None] | None,
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        if self._context is None:
            raise ConfigurationError("backend used before prepare()")
        if not shards:
            return
        desired = min(self.max_workers or len(shards), len(shards))
        if self._executor is not None and desired > self._pool_size:
            # The live pool was sized by a smaller earlier crawl (e.g. a
            # warm-up); grow it rather than capping parallelism forever.
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            self._pool_size = desired
            self._executor = self._make_executor(self._context, desired)
        timeout = self._context.config.shard_timeout
        in_flight: dict = {}  # future -> (shard, attempt, deadline)
        waiting: list = []  # (ready_at, shard, attempt) scheduled resubmissions

        def submit(shard: CrawlShard, attempt: int) -> None:
            future = self._submit(shard, crawl_day, self._next_fault(shard, attempt))
            deadline = time.monotonic() + timeout if timeout else None
            in_flight[future] = (shard, attempt, deadline)

        def dispose(shard: CrawlShard, attempt: int, exc: BaseException):
            """Schedule a retry (returns None) or hand back a ShardFailure."""
            verdict = self._failure_verdict(shard, attempt, exc)
            if isinstance(verdict, ShardFailure):
                return verdict
            # Backoff without blocking the loop: the resubmission waits in
            # `waiting` while other shards keep completing.
            waiting.append((time.monotonic() + verdict, shard, attempt + 1))
            return None

        for shard in shards:
            submit(shard, 0)
        while in_flight or waiting:
            now = time.monotonic()
            due = [entry for entry in waiting if entry[0] <= now]
            if due:
                waiting[:] = [entry for entry in waiting if entry[0] > now]
                for _, shard, attempt in due:
                    submit(shard, attempt)
            if not in_flight:
                # Everything outstanding is backing off; sleep to the
                # earliest resubmission.
                time.sleep(max(0.0, min(entry[0] for entry in waiting) - now))
                continue
            # Bound the wait so attempt deadlines and due resubmissions are
            # noticed promptly; with neither in play, block until a result.
            horizon = [d for (_, _, d) in in_flight.values() if d is not None]
            horizon.extend(entry[0] for entry in waiting)
            poll = max(0.0, min(horizon) - now) + 0.005 if horizon else None
            done, _ = wait(set(in_flight), timeout=poll, return_when=FIRST_COMPLETED)
            for future in done:
                entry = in_flight.pop(future, None)
                if entry is None:
                    # A late result from an abandoned (timed-out) attempt or
                    # a pool rebuild; the shard was already re-dispatched.
                    continue
                shard, attempt, _ = entry
                try:
                    result = future.result()
                except BrokenExecutor as exc:
                    # A worker died (SIGKILL, OOM): the pool is unusable and
                    # every in-flight future fails with it.  Rebuild the pool
                    # in place — the shared payload and published site blocks
                    # are still live and re-attach as-is — and charge one
                    # attempt to every shard that was in flight: the killer
                    # cannot be attributed, but innocents succeed on retry
                    # while a poison shard exhausts its budget on repeats.
                    casualties = [(shard, attempt)]
                    casualties.extend((s, a) for (s, a, _) in in_flight.values())
                    in_flight.clear()
                    self.pool_rebuilds += 1
                    log_fault_event(
                        self._context.config,
                        "pool_rebuild",
                        error=f"{type(exc).__name__}: {exc}",
                        resubmitted=len(casualties),
                    )
                    self._executor.shutdown(wait=False)
                    self._executor = self._make_executor(self._context, self._pool_size)
                    for s, a in casualties:
                        failure = dispose(s, a, exc)
                        if failure is not None:
                            yield s.index, failure
                    break  # the rest of `done` died with the same pool
                except Exception as exc:
                    failure = dispose(shard, attempt, exc)
                    if failure is not None:
                        yield shard.index, failure
                else:
                    yield shard.index, result
            if timeout:
                now = time.monotonic()
                for future, (shard, attempt, deadline) in list(in_flight.items()):
                    if deadline is None or now < deadline:
                        continue
                    # Abandon the attempt: a running future cannot be
                    # cancelled, so a genuinely hung worker keeps its slot
                    # until it wakes (its eventual result is discarded); a
                    # still-queued future is cancelled outright.  The
                    # deadline covers queue wait, so on a saturated pool a
                    # timeout may fire before the attempt ever ran — the
                    # retry simply queues again.
                    del in_flight[future]
                    future.cancel()
                    exc = ShardTimeout(
                        f"shard {shard.index} attempt {attempt + 1} exceeded "
                        f"{timeout:g}s"
                    )
                    failure = dispose(shard, attempt, exc)
                    if failure is not None:
                        yield shard.index, failure

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pool_size = 0
        self._context = None
        if self._payload is not None:
            self._payload.release()
            self._payload = None
        for _, block in self._site_blocks:
            block.release()
        self._site_blocks = []
        self._current_sites = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def backend_from_name(name: str, *, workers: int | None = None) -> ExecutionBackend:
    """Build a backend from its configuration name."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(max_workers=workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


class DetectionSinkLike(Protocol):
    """Anything detections can be streamed to (see ``CrawlStorage.open_sink``).

    Sinks may additionally expose ``flush()``; the crawler then flushes at
    every shard boundary (and buffered sinks flush themselves on close).  A
    sink whose ``format`` is ``"columnar"`` also takes a pool shard's column
    batch whole, through ``write_batch(batch)``.
    """

    def write(self, detection: SiteDetection) -> None: ...
