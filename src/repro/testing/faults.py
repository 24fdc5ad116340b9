"""Fault injection for crawl supervision and resumable-crawl tests.

Two generations of tooling live here:

* :class:`FaultyBackend` (the original crash harness) wraps a real execution
  backend and dies after handing the crawler a configured number of shard
  results.  The crash is raised from the backend's ``execute`` generator,
  i.e. inside the crawler's merge loop and *above* the supervision layer:
  everything the crawler already emitted and flushed stays on disk, everything
  in flight is lost — the same observable state as a SIGKILL between two
  shard boundaries.  Resume tests build on it.

* :class:`FaultPlan` is the composable subsystem: crash / hang / slow /
  raise / sink-IO-error faults keyed by shard index, lifetime submission
  counter, or probability (seeded RNG), delivered *below* the supervision
  layer.  Backends ask the plan for a :class:`FaultAction` at submit time
  and ship the picklable action into the worker, where it fires before the
  shard simulates; :class:`FaultInjectingSink` flakes detection writes,
  whether a record or a pool shard's whole column batch.
  Supervision must absorb every one of these without changing a byte of
  output.

Fault spec grammar (``parse_fault_plan``)::

    SPEC    := [ "seed=" INT "," ] FAULT { "," FAULT }
    FAULT   := KIND "@" KEY "=" NUMBER [ "x" TIMES ] [ "~" DELAY ]
    KIND    := "crash" | "hang" | "slow" | "raise" | "sink"
    KEY     := "shard" | "count" | "p"

``shard=K`` fires when shard ``K`` is submitted, ``count=K`` fires from the
K-th lifetime submission onward, ``p=F`` fires each submission with
probability ``F`` (seeded, reproducible).  ``xTIMES`` caps total firings
(default 1); ``~DELAY`` sets the sleep for hang/slow faults in seconds.
Example: ``seed=7,crash@p=0.2x4,hang@shard=3~5.0,sink@count=10x2``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
import signal
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, StorageError

__all__ = [
    "Fault",
    "FaultAction",
    "FaultInjectingSink",
    "FaultPlan",
    "FaultyBackend",
    "InjectedFault",
    "SimulatedCrash",
    "interrupted_then_resumed",
    "parse_fault_plan",
    "uninterrupted_baseline",
]

FAULT_KINDS = ("crash", "hang", "slow", "raise", "sink")

_DEFAULT_DELAYS = {"hang": 30.0, "slow": 0.1}


class SimulatedCrash(RuntimeError):
    """The injected failure.

    Deliberately *not* a :class:`repro.errors.ReproError`: a real crash
    (OOM kill, power loss) is not a library error, and tests must see it
    surface unmasked through every cleanup layer.
    """


class InjectedFault(RuntimeError):
    """A transient in-worker failure injected by a :class:`FaultPlan`.

    Like :class:`SimulatedCrash`, deliberately not a ``ReproError``: it
    models arbitrary worker-side breakage that supervision must classify
    as retryable without knowing its type.
    """


@dataclass(frozen=True)
class FaultAction:
    """A picklable fault, decided in the parent, executed in the worker.

    The plan itself (lifetime counters, seeded RNG) never leaves the parent
    process; only the resolved action ships with the shard task.
    """

    kind: str
    shard: int
    delay: float = 0.0

    def __call__(self) -> None:
        if self.kind in ("hang", "slow"):
            time.sleep(self.delay)
            return
        if self.kind == "crash":
            # In a forked/spawned pool worker, die the way an OOM kill
            # would: no exception, no cleanup, the pool just breaks.  In
            # the serial backend a hard kill would take the whole run
            # down, so the crash degrades to an uncatchable-by-the-shard
            # exception instead.
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            raise SimulatedCrash(f"injected crash in shard {self.shard}")
        if self.kind == "raise":
            raise InjectedFault(f"injected failure in shard {self.shard}")
        raise ConfigurationError(f"unknown fault kind {self.kind!r}")


@dataclass
class Fault:
    """One fault rule: what to inject and when it triggers.

    Exactly one of ``shard`` / ``count`` / ``p`` must be set.  ``times``
    caps lifetime firings; ``fired`` tracks them.
    """

    kind: str
    shard: int | None = None
    count: int | None = None
    p: float | None = None
    times: int = 1
    delay: float | None = None
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        keys = sum(value is not None for value in (self.shard, self.count, self.p))
        if keys != 1:
            raise ConfigurationError(
                "fault needs exactly one trigger key: shard=, count=, or p="
            )
        if self.kind == "sink" and self.shard is not None:
            raise ConfigurationError("sink faults cannot key on shard=")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ConfigurationError(f"fault probability must be in (0, 1], got {self.p}")
        if self.times < 1:
            raise ConfigurationError(f"fault times must be >= 1, got x{self.times}")

    @property
    def exhausted(self) -> bool:
        return self.fired >= self.times

    def spec(self) -> str:
        """Round-trip back to the spec grammar (for logs and reports)."""
        if self.shard is not None:
            trigger = f"shard={self.shard}"
        elif self.count is not None:
            trigger = f"count={self.count}"
        else:
            trigger = f"p={self.p:g}"
        text = f"{self.kind}@{trigger}"
        if self.times != 1:
            text += f"x{self.times}"
        if self.delay is not None:
            text += f"~{self.delay:g}"
        return text


class FaultPlan:
    """A composable set of fault rules with deterministic trigger state.

    The plan is consulted once per shard submission (``next_action``) and
    once per sink write (``sink_exception``); probabilistic rules draw from
    one seeded RNG so a given spec misbehaves reproducibly.  All state lives
    in the parent process — only :class:`FaultAction` instances cross into
    workers.
    """

    def __init__(self, faults, *, seed: int = 0) -> None:
        self.faults = list(faults)
        self.seed = seed
        self._rng = random.Random(seed)
        self.submissions = 0
        self.sink_writes = 0

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults=[{self.describe()}])"

    def describe(self) -> str:
        return ",".join(fault.spec() for fault in self.faults)

    @property
    def total_fired(self) -> int:
        return sum(fault.fired for fault in self.faults)

    def _triggers(self, fault: Fault, serial: int, shard_index: int | None) -> bool:
        if fault.exhausted:
            return False
        if fault.shard is not None:
            return shard_index == fault.shard
        if fault.count is not None:
            return serial >= fault.count
        return self._rng.random() < fault.p

    def next_action(self, shard_index: int, attempt: int = 0) -> FaultAction | None:
        """Decide the fault (if any) for one shard submission.

        Every call advances the lifetime submission counter, including
        retries, so ``count=`` rules see resubmissions too.  The first
        matching non-sink rule wins.
        """
        serial = self.submissions
        self.submissions += 1
        for fault in self.faults:
            if fault.kind == "sink":
                continue
            if self._triggers(fault, serial, shard_index):
                fault.fired += 1
                delay = fault.delay
                if delay is None:
                    delay = _DEFAULT_DELAYS.get(fault.kind, 0.0)
                return FaultAction(kind=fault.kind, shard=shard_index, delay=delay)
        return None

    def sink_exception(self, records: int = 1) -> StorageError | None:
        """Decide whether the next sink write, of ``records`` records, should fail.

        Writes are counted in records, so ``count=K`` fires on the write
        that holds record K whether records arrive one by one or as a
        shard's batch; a ``p=`` rule draws once per write.
        """
        serial = self.sink_writes
        self.sink_writes += records
        for fault in self.faults:
            if fault.kind != "sink":
                continue
            if self._triggers(fault, serial + records - 1, shard_index=None):
                fault.fired += 1
                return StorageError(
                    f"injected sink write failure ({fault.spec()}, write #{serial})"
                )
        return None

    @property
    def has_sink_faults(self) -> bool:
        return any(fault.kind == "sink" for fault in self.faults)

    def wrap_sink(self, sink):
        """Wrap ``sink`` if this plan injects sink faults; else pass through."""
        if sink is None or not self.has_sink_faults:
            return sink
        return FaultInjectingSink(sink, self)


class FaultInjectingSink:
    """Wraps a detection sink and flakes writes (and batch writes) on the plan's orders.

    The injected :class:`~repro.errors.StorageError` is raised *before*
    delegating, so a failed write leaves the inner sink untouched and a
    retry of the same record is safe.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self.injected = 0

    def write(self, record) -> None:
        exc = self._plan.sink_exception()
        if exc is not None:
            self.injected += 1
            raise exc
        self._inner.write(record)

    def write_batch(self, batch) -> None:
        exc = self._plan.sink_exception(len(batch))
        if exc is not None:
            self.injected += 1
            raise exc
        self._inner.write_batch(batch)

    def flush(self) -> None:
        self._inner.flush()

    def __getattr__(self, name):
        return getattr(self._inner, name)


_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)"
_FAULT_TOKEN = re.compile(
    rf"(?P<kind>[a-z]+)@(?P<key>shard|count|p)=(?P<value>{_NUMBER})"
    rf"(?:x(?P<times>\d+))?(?:~(?P<delay>{_NUMBER}))?"
)


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse the ``--inject-faults`` grammar into a :class:`FaultPlan`.

    See the module docstring for the grammar.  Raises
    :class:`~repro.errors.ConfigurationError` on malformed specs.
    """
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ConfigurationError("empty fault spec")
    seed = 0
    if tokens[0].startswith("seed="):
        try:
            seed = int(tokens[0][len("seed="):])
        except ValueError:
            raise ConfigurationError(f"bad fault-plan seed: {tokens[0]!r}") from None
        tokens = tokens[1:]
    if not tokens:
        raise ConfigurationError("fault spec names a seed but no faults")
    faults = []
    for token in tokens:
        match = _FAULT_TOKEN.fullmatch(token)
        if match is None:
            raise ConfigurationError(
                f"malformed fault {token!r}; expected kind@key=value[xN][~delay]"
            )
        key = match.group("key")
        value = match.group("value")
        kwargs = {
            "kind": match.group("kind"),
            "times": int(match.group("times")) if match.group("times") else 1,
            "delay": float(match.group("delay")) if match.group("delay") else None,
        }
        if key == "p":
            kwargs["p"] = float(value)
        else:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"fault {token!r}: {key}= takes an integer"
                ) from None
        faults.append(Fault(**kwargs))
    return FaultPlan(faults, seed=seed)


class FaultyBackend:
    """Wraps a real backend and crashes after ``fail_after`` shard results.

    ``fail_after=k`` hands the crawler exactly ``k`` shard results — counted
    across the backend's whole lifetime, so a multi-phase campaign can die
    mid-re-crawl — and then raises :class:`SimulatedCrash`.  ``k=0`` dies
    before the first shard lands, ``k=n_shards`` dies after a one-phase crawl
    finished but before ``crawl()`` could return, and a ``fail_after`` beyond
    the campaign's total shard count never fires.

    The crash fires in the crawler's merge loop, above shard supervision, so
    it is *not* retried — it models the whole crawl process dying.
    """

    def __init__(self, inner, fail_after: int) -> None:
        self.inner = inner
        self.fail_after = fail_after
        self.produced = 0
        self.crashes = 0

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def streams_inline(self) -> bool:
        return self.inner.streams_inline

    @property
    def retries(self) -> int:
        return self.inner.retries

    @property
    def pool_rebuilds(self) -> int:
        return self.inner.pool_rebuilds

    def prepare(self, context) -> None:
        self.inner.prepare(context)

    def set_fault_plan(self, plan) -> None:
        self.inner.set_fault_plan(plan)

    def publish_sites(self, sites) -> None:
        self.inner.publish_sites(sites)

    def shutdown(self) -> None:
        self.inner.shutdown()

    def execute(self, shards, crawl_day, on_detection):
        results = self.inner.execute(shards, crawl_day, on_detection)
        while True:
            if self.produced == self.fail_after:
                self.crashes += 1
                raise SimulatedCrash(
                    f"injected crash after {self.produced} shard results"
                )
            try:
                item = next(results)
            except StopIteration:
                return
            yield item
            self.produced += 1


def interrupted_then_resumed(
    environment,
    detector,
    config,
    sites,
    *,
    tmp_path,
    fail_after: int,
    crawl_day: int = 0,
    flush_every: int = 3,
    resume_config=None,
):
    """Crash a checkpointed crawl after ``fail_after`` shards, then resume it.

    The crawl streams into the working store of ``interrupted.jsonl``.
    Returns ``(result, storage)``: the resumed (complete) crawl result and
    the storage of the JSONL file exported after the resume.  When
    ``fail_after`` exceeds the shard count the first run simply completes
    and the "resume" is a no-op replay — which must also be byte-identical.
    """
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.crawler.colstore import campaign_store
    from repro.crawler.crawler import Crawler
    from repro.crawler.engine import backend_from_name
    from repro.crawler.storage import CrawlStorage

    fingerprint = {
        "seed": config.seed,
        "sites": [publisher.domain for publisher in sites],
    }
    storage = campaign_store(tmp_path / "interrupted.jsonl", "jsonl")
    checkpoint_path = tmp_path / "checkpoint.json"

    faulty = FaultyBackend(
        backend_from_name(config.backend, workers=config.workers), fail_after
    )
    recorder = CrawlCheckpointer.fresh(checkpoint_path, fingerprint)
    crawler = Crawler(environment, detector, config, backend=faulty)
    crashed = False
    try:
        with crawler, storage.open_sink(flush_every=flush_every) as sink:
            crawler.crawl(sites, crawl_day=crawl_day, sink=sink, checkpoint=recorder)
    except SimulatedCrash:
        crashed = True
    n_shards = len(crawler.plan(sites).shards)
    assert crashed == (fail_after <= n_shards)

    resumed = CrawlCheckpointer.resume(checkpoint_path, fingerprint, storage)
    with Crawler(environment, detector, resume_config or config) as crawler:
        with storage.open_sink(append=True, flush_every=flush_every) as sink:
            result = crawler.crawl(
                sites, crawl_day=crawl_day, sink=sink, checkpoint=resumed
            )
    return result, CrawlStorage(storage.export_to)


def uninterrupted_baseline(
    environment, detector, config, sites, *, tmp_path, crawl_day: int = 0,
    flush_every: int = 3,
):
    """One-shot crawl into a direct JSONL sink: the oracle a resume must match."""
    from repro.crawler.crawler import Crawler
    from repro.crawler.storage import CrawlStorage

    storage = CrawlStorage(tmp_path / "baseline.jsonl")
    with Crawler(environment, detector, config) as crawler:
        with storage.open_sink(flush_every=flush_every) as sink:
            result = crawler.crawl(sites, crawl_day=crawl_day, sink=sink)
    return result, storage
