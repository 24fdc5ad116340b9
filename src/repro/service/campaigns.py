"""Campaign lifecycle management.

The campaign manager is the service's write side: it accepts
:class:`~repro.experiments.config.ExperimentConfig` submissions, runs each
campaign on a background thread through the existing
:class:`~repro.experiments.runner.ExperimentRunner` / checkpoint machinery,
and tracks the state machine

    queued -> running -> done
                      -> failed
    queued/running ----> cancelled        (resumable)
    cancelled/failed --> queued           (resume())

Every campaign gets its own working directory under the manager's root with
the ``.hbc`` working store its sink streams into (``detections.hbc``, or
``detections.jsonl.hbc`` exporting ``detections.jsonl``), the shard-boundary
checkpoint (``crawl.ckpt``) and a ``campaign.json`` record of the submitted
configuration.  Cancellation is cooperative and crash-equivalent: a flag is
raised and the campaign's sink throws :class:`~repro.errors.CampaignCancelled`
at the next detection write, unwinding the crawl through the same path a
SIGKILL would — the last shard-boundary checkpoint survives, so
:meth:`CampaignManager.resume` continues the campaign byte-identically (the
PR-4 resume guarantee).  :meth:`CampaignManager.shutdown` cancels everything
in flight the same way, which is what makes stopping the server graceful.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.crawler.colstore import campaign_store
from repro.errors import (
    CampaignCancelled,
    CampaignStateError,
    ConfigurationError,
    ReproError,
    ServiceError,
    UnknownCampaignError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.service.store import DetectionStore

__all__ = [
    "CAMPAIGN_STATES",
    "TERMINAL_STATES",
    "Campaign",
    "CampaignManager",
    "campaign_config_from_dict",
    "campaign_config_to_dict",
]

#: Every state a campaign can be in.
CAMPAIGN_STATES = ("queued", "running", "done", "failed", "cancelled")
#: States a campaign never leaves on its own (``resume()`` can re-queue
#: ``failed`` and ``cancelled``).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Submission keys accepted as shorthand for the config field they set
#: (mirroring the CLI flag names, so a curl body reads like a run command).
_CONFIG_ALIASES = {
    "sites": "total_sites",
    "days": "recrawl_days",
    "backend": "crawl_backend",
    "flush_every": "sink_flush_every",
    "oversubscribe": "shard_oversubscribe",
}

#: Config fields the server owns; a submission naming them is rejected.
#: (Each campaign's supervision event log always lands in its own workdir.)
_SERVER_MANAGED = ("checkpoint_path", "resume", "fault_log")


def campaign_config_from_dict(data: Any) -> ExperimentConfig:
    """Parse a JSON submission body into an :class:`ExperimentConfig`.

    Accepts the dataclass field names plus the CLI-style aliases (``sites``,
    ``days``, ``backend``, ``flush_every``, ``oversubscribe``).  Unknown
    keys, server-managed keys and invalid values all raise
    :class:`ServiceError` / :class:`ConfigurationError`, which the API layer
    turns into a 400 with a JSON error body.
    """
    if not isinstance(data, Mapping):
        raise ServiceError("a campaign submission must be a JSON object of config fields")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        name = _CONFIG_ALIASES.get(key, key)
        if name in _SERVER_MANAGED:
            raise ServiceError(
                f"config field {key!r} is managed by the service (each campaign "
                f"gets its own checkpoint; use POST /campaigns/<id>/resume)"
            )
        if name not in known:
            raise ServiceError(f"unknown campaign config field: {key!r}")
        if name in kwargs:
            raise ServiceError(f"campaign config field {name!r} given twice")
        kwargs[name] = value
    if "historical_years" in kwargs:
        years = kwargs["historical_years"]
        if not isinstance(years, (list, tuple)):
            raise ServiceError("historical_years must be a list of integers")
        try:
            kwargs["historical_years"] = tuple(int(y) for y in years)
        except (TypeError, ValueError):
            raise ServiceError("historical_years must be a list of integers") from None
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        # Wrong JSON types surface as TypeError/ValueError inside the
        # dataclass validation; ConfigurationError (a ReproError) passes
        # through untouched.
        raise ServiceError(f"invalid campaign config: {exc}") from exc


def campaign_config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """The JSON form of a config (tuples listified, server-managed dropped)."""
    out = dataclasses.asdict(config)
    out["historical_years"] = list(out["historical_years"])
    for name in _SERVER_MANAGED:
        out.pop(name, None)
    return out


class _Cancellable:
    """Wraps a campaign's storage so its sinks abort once it is cancelled.

    Built around the campaign's working store, so it serves either store
    format.  :meth:`ExperimentRunner.run` opens the sink itself
    from the storage it is handed, so :meth:`open_sink` wraps the opened sink
    the same way, and the sink's :meth:`write` and :meth:`write_batch` raise
    :class:`CampaignCancelled` once the event is set.  The crawler writes every detection through the sink,
    so this cancels any backend — serial or process — at page/shard
    granularity: the raise unwinds through the crawler's normal error path,
    after the last completed shard boundary was checkpointed and flushed.
    Everything else is delegated to the wrapped storage or sink.
    """

    def __init__(self, inner, cancel_event: threading.Event) -> None:
        self._inner = inner
        self._cancel_event = cancel_event

    def open_sink(self, **kwargs) -> "_Cancellable":
        return _Cancellable(self._inner.open_sink(**kwargs), self._cancel_event)

    def write(self, detection) -> None:
        self._check()
        self._inner.write(detection)

    def write_batch(self, batch) -> None:
        self._check()
        self._inner.write_batch(batch)

    def _check(self) -> None:
        if self._cancel_event.is_set():
            raise CampaignCancelled(f"campaign sink {self._inner.path} was cancelled")

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __enter__(self) -> "_Cancellable":
        self._inner.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._inner.__exit__(*exc_info)


def _supervision_counts(longitudinal) -> dict[str, int]:
    """Aggregate a run's supervision counters across all its phases."""
    results = [longitudinal.discovery, *longitudinal.daily_results]
    return {
        "retries": sum(r.retries for r in results),
        "pool_rebuilds": sum(r.pool_rebuilds for r in results),
        "sink_retries": sum(r.sink_retries for r in results),
        "quarantined": sum(len(r.quarantined_shards) for r in results),
    }


@dataclass
class Campaign:
    """One submitted measurement campaign and its run-side state."""

    id: str
    config: ExperimentConfig
    workdir: Path
    state: str = "queued"
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: How many times the campaign has been (re-)queued; 1 for a fresh run.
    runs: int = 0
    #: Supervision counters from the last finished run (retries,
    #: pool_rebuilds, sink_retries, quarantined); empty until a run ends.
    supervision: dict[str, int] = field(default_factory=dict)
    store: DetectionStore = field(init=False, repr=False)
    _cancel: threading.Event = field(default_factory=threading.Event, init=False, repr=False)
    _thread: threading.Thread | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.store = DetectionStore(self.working_store().path, label=self.id)

    @property
    def sink_path(self) -> Path:
        """The file the campaign hands out (its raw sink artifact)."""
        name = "detections.hbc" if self.config.store_format == "columnar" else "detections.jsonl"
        return self.workdir / name

    def working_store(self):
        """The ``.hbc`` store the campaign's sink streams into; cancellable."""
        return _Cancellable(campaign_store(self.sink_path, self.config.store_format), self._cancel)

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "crawl.ckpt"

    @property
    def alert_log_path(self) -> Path:
        """The recrawl daemon's append-only regression alert log."""
        return self.workdir / "alerts.jsonl"

    @property
    def fault_log_path(self) -> Path:
        """The crawl engine's append-only supervision event log."""
        return self.workdir / "faults.jsonl"

    @property
    def alert_count(self) -> int:
        # Only newline-terminated lines count: the daemon may be mid-append,
        # and a torn final line is not yet an alert.
        try:
            with self.alert_log_path.open("rb") as handle:
                return sum(1 for line in handle if line.endswith(b"\n") and line.strip())
        except OSError:
            return 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, *, refresh: bool = True) -> dict[str, Any]:
        """The campaign's JSON representation (refreshes the store by default)."""
        if refresh:
            self.store.refresh()
        return {
            "id": self.id,
            "state": self.state,
            "error": self.error,
            "runs": self.runs,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "config": campaign_config_to_dict(self.config),
            "resumable": self.checkpoint_path.exists(),
            "alerts": self.alert_count,
            "supervision": {
                "retries": self.supervision.get("retries", 0),
                "pool_rebuilds": self.supervision.get("pool_rebuilds", 0),
                "sink_retries": self.supervision.get("sink_retries", 0),
                "quarantined": self.supervision.get("quarantined", 0),
            },
            "detections": {
                "indexed": self.store.count,
                "sink_bytes": self.store.storage.size(),
            },
            "links": {
                "self": f"/campaigns/{self.id}",
                "detections": f"/campaigns/{self.id}/detections",
                "events": f"/campaigns/{self.id}/events",
                "artifacts": f"/campaigns/{self.id}/artifacts/{{name}}",
            },
        }


class CampaignManager:
    """Runs submitted campaigns on background threads, bounded in parallel.

    ``max_parallel`` campaigns crawl at once; the rest wait in ``queued``
    and are admitted strictly in the order they were queued (submitted,
    resumed or ticked).  The manager is the only writer of campaign state;
    all transitions happen under its lock.
    """

    def __init__(self, root: str | Path, *, max_parallel: int = 1) -> None:
        if max_parallel < 1:
            raise ConfigurationError("the campaign manager needs max_parallel >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_parallel = max_parallel
        self._lock = threading.Lock()
        #: Signalled whenever the queue head, a free slot or a cancel changes.
        self._admission = threading.Condition(self._lock)
        self._queue: deque[Campaign] = deque()
        self._running = 0
        self._campaigns: dict[str, Campaign] = {}
        self._order: list[str] = []
        self._seq = itertools.count(1)
        self._shutting_down = False

    # -- lookups ---------------------------------------------------------------
    def get(self, campaign_id: str) -> Campaign:
        with self._lock:
            try:
                return self._campaigns[campaign_id]
            except KeyError:
                raise UnknownCampaignError(campaign_id) from None

    def list(self) -> list[Campaign]:
        with self._lock:
            return [self._campaigns[cid] for cid in self._order]

    # -- lifecycle ---------------------------------------------------------------
    def submit(self, config: ExperimentConfig) -> Campaign:
        """Accept a campaign, allocate its working directory, queue its run."""
        with self._lock:
            if self._shutting_down:
                raise ServiceError("the service is shutting down; not accepting campaigns")
            campaign_id = f"c{next(self._seq):04d}-{uuid.uuid4().hex[:6]}"
            workdir = self.root / campaign_id
            workdir.mkdir(parents=True, exist_ok=False)
            campaign = Campaign(id=campaign_id, config=config, workdir=workdir)
            self._campaigns[campaign_id] = campaign
            self._order.append(campaign_id)
        (workdir / "campaign.json").write_text(
            json.dumps(
                {
                    "id": campaign_id,
                    "created_at": campaign.created_at,
                    "config": campaign_config_to_dict(config),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        self._start(campaign, lambda: self._crawl(campaign, resume=False))
        return campaign

    def cancel(self, campaign_id: str) -> Campaign:
        """Cancel a queued or running campaign (resumable via :meth:`resume`)."""
        campaign = self.get(campaign_id)
        with self._lock:
            if campaign.terminal:
                raise CampaignStateError(
                    f"campaign {campaign_id} is already {campaign.state}; nothing to cancel"
                )
            campaign._cancel.set()
            self._admission.notify_all()
        return campaign

    def resume(self, campaign_id: str) -> Campaign:
        """Re-queue a cancelled or failed campaign from its checkpoint.

        The resumed run recovers the sink's half-flushed tail and continues
        from the last shard boundary; its final bytes are identical to a
        never-interrupted run.  A campaign cancelled before its first
        checkpoint write simply starts fresh.
        """
        campaign = self.get(campaign_id)
        with self._lock:
            if self._shutting_down:
                raise ServiceError("the service is shutting down; not accepting campaigns")
            if campaign.state not in ("cancelled", "failed"):
                raise CampaignStateError(
                    f"campaign {campaign_id} is {campaign.state}; only cancelled or "
                    f"failed campaigns can be resumed"
                )
            campaign.state = "queued"
            campaign.error = None
            campaign.finished_at = None
            campaign._cancel = threading.Event()
        resume = campaign.checkpoint_path.exists()
        self._start(campaign, lambda: self._crawl(campaign, resume=resume))
        return campaign

    def tick(
        self,
        campaign_id: str,
        *,
        metrics: Sequence[str] = ("table1",),
        thresholds: Sequence[str] = (),
        retention_days: int | None = None,
    ) -> tuple[Campaign, int]:
        """Extend a finished campaign by one crawl day (a daemon tick).

        Re-queues a ``done`` campaign and runs one
        :meth:`repro.daemon.RecrawlDaemon.tick` over its working directory on
        a background thread: the day horizon grows by one (the checkpoint
        fingerprint treats ``recrawl_days`` as extensible), the new day's
        detections append to the same sink byte-identically, the watched
        ``metrics`` are snapshotted, and any firing ``thresholds`` append to
        ``alerts.jsonl`` — which the campaign's ``/events`` SSE stream tails
        as ``alert`` events.

        The grown horizon is recorded on the campaign *before* the crawl
        starts, so a tick cancelled mid-day resumes (``resume()``) under the
        extended horizon and completes the day; its metric snapshot and
        alerts then catch up on the next tick.  Returns the campaign and the
        crawl day this tick targets.
        """
        from repro.daemon import RecrawlDaemon, parse_rules

        campaign = self.get(campaign_id)
        rules = parse_rules(thresholds)
        with self._lock:
            if self._shutting_down:
                raise ServiceError("the service is shutting down; not accepting ticks")
            if campaign.state != "done":
                raise CampaignStateError(
                    f"campaign {campaign_id} is {campaign.state}; only finished "
                    f"(done) campaigns can tick — resume interrupted ones first"
                )
            daemon = RecrawlDaemon(
                campaign.workdir,
                campaign.config,
                metrics=tuple(metrics),
                rules=rules,
                # The sink factory reads campaign._cancel at call time, so the
                # fresh cancel event below is the one the tick observes.
                storage_factory=lambda path, fmt: campaign.working_store(),
            )
            target = daemon.next_target()
            if target is None:  # pragma: no cover - target_days is never set here
                raise CampaignStateError(f"campaign {campaign_id} has nothing to tick")
            day = target[0]
            campaign.config = replace(campaign.config, recrawl_days=day)
            campaign.state = "queued"
            campaign.error = None
            campaign.finished_at = None
            campaign._cancel = threading.Event()

        def work() -> tuple[str, None, None]:
            try:
                daemon.tick()
            finally:
                # A service tick is one-shot: release the pool the tick leaves.
                daemon.close()
            return "done", None, None

        self._start(campaign, work)
        return campaign, day

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Stop accepting campaigns, cancel everything in flight, and wait.

        Running crawls observe the cancel flag at their next detection write
        and unwind having checkpointed their last shard boundary, so a
        stopped server leaves every interrupted campaign resumable.
        """
        with self._lock:
            self._shutting_down = True
            active = [self._campaigns[cid] for cid in self._order]
            for campaign in active:
                if not campaign.terminal:
                    campaign._cancel.set()
            self._admission.notify_all()
        deadline = time.monotonic() + timeout
        for campaign in active:
            thread = campaign._thread
            if thread is not None and thread.is_alive():
                thread.join(max(0.0, deadline - time.monotonic()))

    # -- the run thread ----------------------------------------------------------
    def _start(
        self,
        campaign: Campaign,
        work: Callable[[], tuple[str, str | None, Mapping[str, int] | None]],
    ) -> None:
        """Queue ``campaign`` now and run ``work`` on its thread once admitted.

        ``work`` returns the finished ``(state, error, supervision)``.
        """
        with self._lock:
            self._queue.append(campaign)
        thread = threading.Thread(
            target=self._run,
            args=(campaign, work),
            name=f"campaign-{campaign.id}",
            daemon=True,
        )
        campaign._thread = thread
        thread.start()

    def _admit(self, campaign: Campaign) -> bool:
        """Wait until ``campaign`` heads the queue and a slot is free.

        Returns False (the campaign finished as ``cancelled``) when it is
        cancelled while queued: a cancelled queued campaign never starts.
        """
        with self._admission:
            while not campaign._cancel.is_set() and (
                self._queue[0] is not campaign or self._running >= self.max_parallel
            ):
                self._admission.wait()
            self._queue.remove(campaign)
            self._admission.notify_all()
            if campaign._cancel.is_set():
                self._finish(campaign, "cancelled", locked=True)
                return False
            self._running += 1
            campaign.state = "running"
            campaign.started_at = time.time()
            campaign.runs += 1
            return True

    def _run(self, campaign: Campaign, work) -> None:
        if not self._admit(campaign):
            return
        try:
            state, error, supervision = work()
        except CampaignCancelled:
            self._finish(campaign, "cancelled")
        except ReproError as exc:
            self._finish(campaign, "failed", error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a campaign must never kill the server
            self._finish(campaign, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(campaign, state, error=error, supervision=supervision)
        finally:
            with self._admission:
                self._running -= 1
                self._admission.notify_all()

    def _crawl(self, campaign: Campaign, *, resume: bool) -> tuple[str, str | None, dict[str, int]]:
        """Run the campaign's crawl to its end; the finished state to record."""
        config = replace(
            campaign.config,
            checkpoint_path=str(campaign.checkpoint_path),
            resume=resume,
            fault_log=str(campaign.fault_log_path),
        )
        longitudinal = ExperimentRunner(config).run(
            use_cache=False, storage=campaign.working_store()
        ).longitudinal
        supervision = _supervision_counts(longitudinal)
        if longitudinal.degraded:
            # Degraded completion: shards exhausted their retries and were
            # quarantined.  The quarantine lives in the checkpoint, so
            # `resume()` re-crawls exactly the missing shards — surface it as
            # a resumable failure.
            return "failed", (
                f"{supervision['quarantined']} shard(s) quarantined "
                f"after exhausting retries; resume to re-crawl them"
            ), supervision
        return "done", None, supervision

    def _finish(
        self,
        campaign: Campaign,
        state: str,
        *,
        error: str | None = None,
        supervision: Mapping[str, int] | None = None,
        locked: bool = False,
    ) -> None:
        if locked:
            self._finish_locked(campaign, state, error, supervision)
            return
        with self._lock:
            self._finish_locked(campaign, state, error, supervision)

    def _finish_locked(
        self,
        campaign: Campaign,
        state: str,
        error: str | None,
        supervision: Mapping[str, int] | None,
    ) -> None:
        campaign.state = state
        campaign.error = error
        campaign.finished_at = time.time()
        if supervision is not None:
            campaign.supervision = dict(supervision)
        self._persist_record(campaign)

    def _persist_record(self, campaign: Campaign) -> None:
        """Best-effort sync of the campaign's outcome to ``campaign.json``.

        A restarted server (or an operator with ``cat``) can tell a failed
        campaign from a finished one without the in-memory manager: the
        record carries the final state, error and supervision counters of
        the latest run.
        """
        path = campaign.workdir / "campaign.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {
                "id": campaign.id,
                "created_at": campaign.created_at,
                "config": campaign_config_to_dict(campaign.config),
            }
        record.update(
            {
                "state": campaign.state,
                "error": campaign.error,
                "runs": campaign.runs,
                "finished_at": campaign.finished_at,
                "supervision": dict(campaign.supervision),
            }
        )
        try:
            path.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError:  # pragma: no cover - disk-full etc.; state stays in memory
            pass

    # -- conveniences ------------------------------------------------------------
    def wait(self, campaign_id: str, *, timeout: float = 60.0, interval: float = 0.05) -> Campaign:
        """Block until a campaign reaches a terminal state (tests/benchmarks)."""
        campaign = self.get(campaign_id)
        deadline = time.monotonic() + timeout
        while not campaign.terminal:
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"campaign {campaign_id} still {campaign.state} after {timeout:.0f}s"
                )
            time.sleep(interval)
        return campaign

    def states(self) -> dict[str, str]:
        with self._lock:
            return {cid: self._campaigns[cid].state for cid in self._order}

    def __iter__(self) -> Iterable[Campaign]:
        return iter(self.list())
