"""Continuous-recrawl daemon: grow a campaign one crawl day per tick.

The paper's measurement is longitudinal — a discovery pass, then a daily
re-crawl of the HB sites for weeks.  :class:`RecrawlDaemon` turns the
one-shot runner into that continuously-running rig: each :meth:`~RecrawlDaemon.tick`
appends exactly one crawl-day partition to a long-lived campaign through the
existing checkpoint/sink machinery (resume makes completed days a no-op
replan, so a tick only ever crawls the net-new day), recomputes the
registered metrics over the finished day, diffs them against the previous
day's snapshot, and emits structured regression alerts.

Everything the daemon owns lives under one directory, laid out, written
and read by :mod:`repro.workdir`: the working store (``detections.hbc``, or
``detections.jsonl.hbc`` exporting ``detections.jsonl``; never pruned),
``crawl.ckpt``, ``daemon.json`` (the daemon's recorded knobs), per-day
metric snapshots ``metrics/day-00002.json`` and partitions
``partitions/day-00002.hbc``, and the ``alerts.jsonl`` and ``faults.jsonl``
logs.

Byte-identity is inherited, not re-proven: the sink a daemon grows over N
ticks is byte-identical to a one-shot ``run`` with ``recrawl_days=N``,
because every tick crawls exactly the phases that run would, under the same
checkpoint with an extended horizon (see ``EXTENSIBLE_FINGERPRINT_KEYS`` in
:mod:`repro.crawler.checkpoint`).  A kill at any instant — mid-day
included — is recovered by the next tick exactly like any interrupted crawl.

Ticks are *cold* or *warm*.  A cold tick is the one-shot runner's pipeline
(:meth:`~repro.experiments.runner.ExperimentRunner.open_campaign`, whose
:meth:`~repro.crawler.checkpoint.CrawlCheckpointer.resume` recovers the
sink, then ``crawl_campaign``), and it leaves its pieces *resident*: the
population (with the environment and detector inside one
:class:`~repro.crawler.crawler.Crawler`, whose process pool and per-worker
site tables stay warm), the live checkpointer and the discovery pass's HB
sites.  A warm tick first checks with ``stat`` that the working store and
``crawl.ckpt`` are exactly as this daemon's last tick left them, then grows
the checkpointer's horizon, reopens the working store in append mode where
the last warm tick's sink left it (its dictionaries and offset: no listing,
no re-interning) and crawls the new day alone.  On the process backend the
day arrives as the workers' column batches: the sink packs them, the
day's partition is packed from them onto its own dictionaries, and a
columnar campaign's snapshot is computed over the partition's columns, so
the parent builds no ``SiteDetection``.  The detection count comes from
the checkpoint phases.  No history is read back (except by a JSONL
campaign's export, which rewrites the whole file), so a warm tick costs
the same on day 3 as on day 30.  The first tick, a
restarted daemon, any ``stat`` mismatch (another writer moved the
campaign), and the tick after any failed, degraded or raising tick take the
cold path, which stays the only resume implementation; a failing tick also
shuts the pool down.  :meth:`RecrawlDaemon.close` (or ``with
RecrawlDaemon(...)``) releases the resident pool.

Alert rules are little threshold expressions, ``metric.field:kind=value``
(see :func:`parse_rules`), evaluated over the *flattened* metric data — every
numeric leaf of a :class:`~repro.analysis.registry.MetricResult`'s ``data``
mapping keyed by its dotted path, e.g. ``table1.summary.websites_with_hb``.
``drop`` compares a day against the previous day; ``min``/``max`` are
absolute floors/ceilings.  Days 0 (discovery, full population) and 1 (first
HB-only re-crawl) are structurally different populations, so rules fire from
day 2 onward, where consecutive days are comparable.  Alerts are appended to
``alerts.jsonl`` exactly once per (day, rule): a restarted daemon re-derives
snapshots it lost but never duplicates an alert already logged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import compute_metric, get_metric
from repro.crawler.checkpoint import CrawlCheckpoint, CrawlCheckpointer, PhaseProgress
from repro.crawler.colstore import (
    SAVE_CHUNK_RECORDS,
    ColumnarDataset,
    ColumnarDetectionSink,
    ColumnarStorage,
    campaign_store,
    storage_for,
)
from repro.crawler.crawler import Crawler, CrawlResult
from repro.ecosystem.publishers import PublisherPopulation
from repro.errors import AnalysisError, ConfigurationError, StorageError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.workdir import CampaignDir, append_jsonl, read_json, tail_jsonl, write_json

__all__ = [
    "ALERT_KINDS",
    "FAILED_TICK_BACKOFF_BASE",
    "FAILED_TICK_BACKOFF_CAP",
    "AlertRule",
    "RecrawlDaemon",
    "TickReport",
    "evaluate_rules",
    "flatten_metric_data",
    "parse_rule",
    "parse_rules",
]

#: Supported threshold kinds: ``drop`` (relative drop vs the previous day
#: exceeds the value), ``min`` (current value below the floor), ``max``
#: (current value above the ceiling).
ALERT_KINDS = ("drop", "min", "max")

#: The first crawl day rules are evaluated on.  Day 0 is the discovery pass
#: over the whole population and day 1 the first HB-only re-crawl — different
#: populations, so a day-over-day diff only becomes meaningful at day 2.
FIRST_COMPARABLE_DAY = 2

#: Sequences longer than this are skipped when flattening metric data —
#: ECDF curves and rank lists are plot data, not alertable scalars, and
#: flattening them would bloat every snapshot.
_MAX_FLATTEN_SEQUENCE = 128


# ---------------------------------------------------------------------------
# Alert rules


@dataclass(frozen=True)
class AlertRule:
    """One metric-regression threshold.

    ``metric`` is a registered metric name, ``field`` a dotted path into its
    flattened data (see :func:`flatten_metric_data`), ``kind`` one of
    :data:`ALERT_KINDS` and ``value`` the threshold.
    """

    metric: str
    field: str
    kind: str
    value: float

    @property
    def spec(self) -> str:
        return f"{self.metric}.{self.field}:{self.kind}={self.value:g}"


def parse_rule(spec: str) -> AlertRule:
    """Parse one ``metric.field:kind=value`` threshold expression."""
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ConfigurationError(
            f"malformed threshold {spec!r}: expected metric.field:kind=value "
            f"(e.g. table1.summary.websites_with_hb:drop=0.25)"
        )
    kind, sep, raw_value = tail.partition("=")
    kind = kind.strip()
    if not sep or kind not in ALERT_KINDS:
        raise ConfigurationError(
            f"malformed threshold {spec!r}: kind must be one of "
            f"{', '.join(ALERT_KINDS)} followed by =value"
        )
    metric, sep, field_path = head.partition(".")
    if not sep or not metric or not field_path:
        raise ConfigurationError(
            f"malformed threshold {spec!r}: the target must be "
            f"metric.field (a dotted path into the metric's data)"
        )
    try:
        value = float(raw_value)
    except ValueError:
        raise ConfigurationError(
            f"malformed threshold {spec!r}: {raw_value!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise ConfigurationError(
            f"threshold {spec!r}: the value must be finite (a NaN or infinite "
            f"threshold can never fire)"
        )
    if kind == "drop" and not 0.0 < value <= 1.0:
        raise ConfigurationError(
            f"threshold {spec!r}: a drop threshold is a relative fraction "
            f"in (0, 1], got {value:g}"
        )
    return AlertRule(metric=metric, field=field_path.strip(), kind=kind, value=value)


def parse_rules(specs: Iterable[str]) -> tuple[AlertRule, ...]:
    """Parse a sequence of threshold expressions."""
    return tuple(parse_rule(spec) for spec in specs)


def flatten_metric_data(data: Mapping, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a metric's data mapping, keyed by dotted path.

    Nested mappings recurse; sequences recurse by index but are skipped
    beyond :data:`_MAX_FLATTEN_SEQUENCE` elements (ECDF curves are plot
    data, not alertable scalars).  Booleans flatten to 0/1; strings and
    other non-numeric leaves are dropped.
    """
    flat: dict[str, float] = {}
    for key, value in data.items():
        name = str(getattr(key, "value", key))
        path = f"{prefix}{name}"
        _flatten_value(value, path, flat)
    return flat


def _flatten_value(value: object, path: str, flat: dict[str, float]) -> None:
    if isinstance(value, Mapping):
        for key, inner in value.items():
            name = str(getattr(key, "value", key))
            _flatten_value(inner, f"{path}.{name}", flat)
    elif isinstance(value, (list, tuple)):
        if len(value) <= _MAX_FLATTEN_SEQUENCE:
            for index, inner in enumerate(value):
                _flatten_value(inner, f"{path}.{index}", flat)
    elif isinstance(value, bool):
        flat[path] = float(value)
    elif isinstance(value, (int, float)):
        flat[path] = float(value)
    elif hasattr(value, "item"):  # numpy scalar
        try:
            flat[path] = float(value.item())
        except (TypeError, ValueError):  # pragma: no cover - exotic dtypes
            pass


def evaluate_rules(
    rules: Sequence[AlertRule],
    previous: Mapping[str, Mapping[str, float]],
    current: Mapping[str, Mapping[str, float]],
    *,
    day: int,
) -> list[dict]:
    """Evaluate thresholds for ``day`` against the previous day's snapshot.

    ``previous`` and ``current`` map metric name → flattened data.  A rule
    whose field is absent from the snapshots is skipped (the metric may
    legitimately omit a key on an empty day); everything that fires becomes
    a structured alert record.
    """
    alerts: list[dict] = []
    for rule in rules:
        cur = current.get(rule.metric, {}).get(rule.field)
        prev = previous.get(rule.metric, {}).get(rule.field)
        if cur is None:
            continue
        fired = False
        detail: dict = {}
        if rule.kind == "drop":
            if prev is None or prev <= 0:
                continue
            rel_drop = (prev - cur) / prev
            fired = rel_drop > rule.value
            detail = {"relative_drop": rel_drop}
        elif rule.kind == "min":
            fired = cur < rule.value
        elif rule.kind == "max":
            fired = cur > rule.value
        if not fired:
            continue
        alerts.append(
            {
                "day": day,
                "baseline_day": day - 1,
                "metric": rule.metric,
                "field": rule.field,
                "kind": rule.kind,
                "threshold": rule.value,
                "previous": prev,
                "current": cur,
                "rule": rule.spec,
                **detail,
                "message": (
                    f"day {day}: {rule.metric}.{rule.field}={cur:g} violates "
                    f"{rule.kind}={rule.value:g} (day {day - 1}: "
                    f"{'-' if prev is None else format(prev, 'g')})"
                ),
            }
        )
    return alerts


# ---------------------------------------------------------------------------
# The daemon


#: Base/cap for the exponential backoff between failed ticks: the first
#: retry waits at least the base (even with ``interval=0``), each further
#: consecutive failure doubles the wait up to the cap.
FAILED_TICK_BACKOFF_BASE = 1.0
FAILED_TICK_BACKOFF_CAP = 300.0


@dataclass(frozen=True)
class TickReport:
    """What one daemon tick did."""

    #: ``"bootstrapped"`` (discovery pass ran), ``"advanced"`` (a crawl day
    #: was appended or completed), ``"complete"`` (the target horizon is
    #: already recorded; nothing ran) or ``"failed"`` (the tick errored or
    #: completed degraded; see :attr:`error` — the campaign stays
    #: checkpointed and the next tick resumes it).
    status: str
    #: The crawl day this tick produced (``None`` when complete or failed
    #: before a day was targeted).
    day: int | None
    #: The campaign's recorded day horizon after the tick.
    horizon: int
    #: Total detections in the sink after the tick.
    detections: int
    #: Alerts appended to the log by this tick.
    alerts: list[dict] = field(default_factory=list)
    #: Days whose metric snapshots this tick wrote (restart catch-up included).
    snapshot_days: list[int] = field(default_factory=list)
    #: What went wrong, for ``"failed"`` ticks.
    error: str | None = None


@dataclass
class _Resident:
    """What a finished tick keeps for the next, warm, one."""

    population: PublisherPopulation
    #: Holds the environment and detector, and the live worker pool.
    crawler: Crawler
    checkpointer: CrawlCheckpointer
    #: The discovery pass's HB sites: every re-crawl day visits these.
    hb_domains: list[str] = field(default_factory=list)
    #: ``stat`` of the sink and the checkpoint as this daemon left them.
    stamp: tuple | None = None
    #: The last warm tick's sink: the next one continues where it closed.
    sink: ColumnarDetectionSink | None = None


def _last_state(phases: Sequence[PhaseProgress]) -> tuple[int, bool] | None:
    if not phases:
        return None
    return phases[-1].crawl_day, phases[-1].done


class RecrawlDaemon:
    """Grows one long-lived campaign a crawl day at a time.

    ``config`` describes the campaign (population size, seed, store format,
    parallelism); its ``recrawl_days``/``checkpoint_path``/``resume`` fields
    are managed by the daemon itself and overridden per tick.  ``metrics``
    names the registered metrics snapshotted after each day (dataset-only
    metrics — the daemon analyses the day's detections offline), ``rules``
    the regression thresholds over them, ``target_days`` the horizon at
    which :meth:`run` stops (``None`` = keep growing until stopped), and
    ``retention_days`` how many trailing days keep their per-day partition
    and snapshot files (the canonical sink and alert log are never pruned).

    ``storage_factory(sink_path, store_format)`` builds the working store
    (the campaign service wires its cancellable wrappers through here); the
    default is plain :func:`~repro.crawler.colstore.campaign_store`.

    A tick leaves its crawler's worker pool running for the next one (see
    the module docstring); :meth:`close`, or leaving a ``with`` block,
    releases it.
    """

    def __init__(
        self,
        workdir: str | Path,
        config: ExperimentConfig,
        *,
        metrics: Sequence[str] = ("table1",),
        rules: Sequence[AlertRule] = (),
        target_days: int | None = None,
        retention_days: int | None = None,
        storage_factory: Callable[[Path, str], ColumnarStorage] | None = None,
    ) -> None:
        if target_days is not None and target_days < 0:
            raise ConfigurationError("target_days cannot be negative")
        if retention_days is not None and retention_days < 1:
            raise ConfigurationError("retention_days must be at least 1")
        if not metrics:
            raise ConfigurationError("the daemon needs at least one metric to watch")
        for name in metrics:
            metric = get_metric(name)  # raises UnknownMetricError
            extra = set(metric.requires) - {"dataset"}
            if extra:
                raise ConfigurationError(
                    f"metric {name!r} needs {sorted(extra)} beyond the dataset; "
                    f"the daemon recomputes metrics offline over the day's "
                    f"detections, so only dataset-only metrics can be watched"
                )
        watched = set(metrics)
        for rule in rules:
            if rule.metric not in watched:
                raise ConfigurationError(
                    f"threshold {rule.spec!r} targets metric {rule.metric!r} "
                    f"which is not watched; add it to the daemon's metrics"
                )
        self.files = files = CampaignDir(workdir, config.store_format)
        self.workdir = files.root
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = replace(config, checkpoint_path=None, resume=False)
        self.metrics = tuple(metrics)
        self.rules = tuple(rules)
        self.target_days = target_days
        self.retention_days = retention_days
        self._storage_factory = storage_factory or campaign_store
        #: The file the campaign hands out, and the store it streams into.
        self.sink_path = files.sink
        self.working_path = campaign_store(self.sink_path, config.store_format).path
        self.checkpoint_path = files.checkpoint
        self.metrics_dir = files.metrics
        self.partitions_dir = files.partitions
        self.alert_log = files.alerts
        self.fault_log_path = files.faults
        if self.working_path.exists() and not self.checkpoint_path.exists():
            raise ConfigurationError(
                f"{self.workdir} holds a detection sink but no checkpoint; "
                f"refusing to overwrite it — point the daemon at a fresh "
                f"directory or restore the campaign's crawl.ckpt"
            )
        self._resident: _Resident | None = None
        self._write_manifest()

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release the resident crawler and its pool (idempotent).

        The daemon stays usable: its next tick takes the cold path.
        """
        resident, self._resident = self._resident, None
        if resident is not None:
            resident.crawler.close()

    def __enter__(self) -> "RecrawlDaemon":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- state views -------------------------------------------------------------
    def _recorded_phases(self) -> tuple[PhaseProgress, ...]:
        if not self.checkpoint_path.exists():
            return ()
        return CrawlCheckpoint.load(self.checkpoint_path).phases

    def recorded_state(self) -> tuple[int, bool] | None:
        """``(last recorded crawl day, finished?)`` or ``None`` pre-bootstrap."""
        return _last_state(self._recorded_phases())

    def next_target(self) -> tuple[int, bool] | None:
        """``(target recrawl_days, resume?)`` for the next tick.

        ``None`` means the campaign already reached ``target_days`` and the
        next tick is a no-op.  An unfinished last day is re-targeted (the
        tick completes it); otherwise the horizon grows by one.
        """
        return self._target_after(self.recorded_state())

    def _target_after(self, state: tuple[int, bool] | None) -> tuple[int, bool] | None:
        if state is None:
            return 0, False
        last_day, finished = state
        if not finished:
            return last_day, True
        if self.target_days is not None and last_day >= self.target_days:
            return None
        return last_day + 1, True

    # -- the tick ---------------------------------------------------------------
    def tick(self) -> TickReport:
        """Advance the campaign by (at most) one crawl day.

        Bootstraps the discovery pass on the first call, completes an
        interrupted day if the previous tick was killed mid-crawl, appends
        the next day otherwise, then writes metric snapshots and per-day
        partitions for every recorded day that is missing one, evaluates
        the alert rules, and applies the retention policy.  The day is
        crawled warm when this daemon's resident state still matches the
        workdir, and cold otherwise (see the module docstring).
        """
        resident = self._resident
        if resident is not None and (
            resident.stamp is None or resident.stamp != self._stamp()
        ):
            # The workdir moved since this daemon's last tick (another
            # writer, or a failed write): only a resume can trust it now.
            self.close()
            resident = None
        try:
            if resident is not None:
                phases = resident.checkpointer.checkpoint().phases
            else:
                phases = self._recorded_phases()
            state = _last_state(phases)
            target = self._target_after(state)
            if target is None:  # only a recorded campaign can be complete
                return TickReport(
                    status="complete",
                    day=None,
                    horizon=state[0],  # type: ignore[index]
                    detections=sum(phase.n_detections for phase in phases),
                )
            days, resume = target
            if resident is not None:
                report = self._warm_tick(resident, days)
            else:
                report = self._cold_tick(days, resume)
        except BaseException:
            self.close()
            raise
        if report.status == "failed":
            self.close()
        else:
            self._resident.stamp = self._stamp()  # type: ignore[union-attr]
        return report

    def _cold_tick(self, days: int, resume: bool) -> TickReport:
        """The one-shot runner's pipeline, resumed at ``days``; stays resident."""
        config = replace(
            self.config,
            recrawl_days=days,
            checkpoint_path=str(self.checkpoint_path),
            resume=resume,
            fault_log=self.config.fault_log or str(self.fault_log_path),
        )
        storage = self._storage_factory(self.sink_path, config.store_format)
        runner = ExperimentRunner(config)
        population, crawler, checkpointer = runner.open_campaign(storage)
        self._resident = resident = _Resident(population, crawler, checkpointer)
        longitudinal = runner.crawl_campaign(
            crawler, population, storage=storage, checkpointer=checkpointer
        )
        resident.hb_domains = longitudinal.discovery.hb_domains
        results = [longitudinal.discovery, *longitudinal.daily_results]
        return self._finish_tick(days, 0, results, checkpointer)

    def _warm_tick(self, resident: _Resident, day: int) -> TickReport:
        """Crawl the one new ``day`` on the resident crawler and checkpointer."""
        storage = self._storage_factory(self.sink_path, self.config.store_format)
        resident.checkpointer.extend_horizon(day)
        sink = storage.open_sink(append=True, flush_every=self.config.sink_flush_every)
        if resident.sink is not None:
            sink.continue_from(resident.sink)
        resident.sink = sink
        with sink:
            result = resident.crawler.crawl_domains(
                resident.population,
                resident.hb_domains,
                crawl_day=day,
                sink=sink,
                checkpoint=resident.checkpointer,
            )
        return self._finish_tick(day, day, [result], resident.checkpointer)

    def _finish_tick(
        self,
        days: int,
        first_day: int,
        results: Sequence[CrawlResult],
        checkpointer: CrawlCheckpointer,
    ) -> TickReport:
        """Record the crawled days (``results[i]`` is ``first_day + i``) and report."""
        per_day = [(first_day + i, r) for i, r in enumerate(results)]
        error = None
        if any(r.degraded for r in results):
            # The last phase quarantined shards, so its detections are a
            # prefix: skip its snapshot/partition (the day is not done) and
            # report a failed tick.  The quarantine lives in the checkpoint,
            # so the next tick resumes exactly the missing shards.
            quarantined = sum(len(r.quarantined_shards) for r in results)
            error = (
                f"day {days} completed degraded: {quarantined} shard(s) "
                f"quarantined after exhausting retries"
            )
            per_day = per_day[:-1]
        alerts, snapshot_days = self._record_days(per_day)
        if error is None:
            self._prune(last_day=days)
        return TickReport(
            status="failed" if error else "bootstrapped" if days == 0 else "advanced",
            day=days,
            horizon=days,
            detections=sum(p.n_detections for p in checkpointer.checkpoint().phases),
            alerts=alerts,
            snapshot_days=snapshot_days,
            error=error,
        )

    def run(
        self,
        *,
        max_ticks: int | None = None,
        interval: float = 0.0,
        stop_event=None,
        on_tick: Callable[[TickReport], None] | None = None,
    ) -> list[TickReport]:
        """Tick until the target horizon, ``max_ticks``, or ``stop_event``.

        ``interval`` seconds pass between ticks (interruptibly, when a
        ``stop_event`` is given).  ``on_tick`` sees every report as it
        lands — the CLI prints them live through this.

        A tick that raises (or completes degraded) does not kill the loop:
        it becomes a ``"failed"`` :class:`TickReport` and the loop backs off
        exponentially — ``min(cap, max(interval, base) * 2**(failures-1))``
        seconds after the *failures*-th consecutive failure — before
        retrying the same day from its checkpoint.  One successful tick
        resets the backoff.  ``KeyboardInterrupt`` still propagates (Ctrl-C
        / SIGTERM stop the daemon, they are not faults).
        """
        reports: list[TickReport] = []
        consecutive_failures = 0
        while max_ticks is None or len(reports) < max_ticks:
            try:
                report = self.tick()
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - the daemon outlives one bad tick
                state, detections = None, 0
                try:
                    phases = self._recorded_phases()
                    state = _last_state(phases)
                    detections = sum(p.n_detections for p in phases)
                except Exception:  # noqa: BLE001 - e.g. a corrupt checkpoint
                    pass
                report = TickReport(
                    status="failed",
                    day=None,
                    horizon=state[0] if state else 0,
                    detections=detections,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if report.status == "failed":
                consecutive_failures += 1
            else:
                consecutive_failures = 0
            reports.append(report)
            if on_tick is not None:
                on_tick(report)
            if report.status == "complete":
                break
            if (
                report.status != "failed"
                and self.target_days is not None
                and report.day is not None
                and report.day >= self.target_days
            ):
                break
            delay = interval
            if consecutive_failures:
                delay = min(
                    FAILED_TICK_BACKOFF_CAP,
                    max(interval, FAILED_TICK_BACKOFF_BASE)
                    * 2 ** (consecutive_failures - 1),
                )
            if stop_event is not None:
                if stop_event.wait(delay):
                    break
            elif delay > 0:
                time.sleep(delay)
        return reports

    # -- snapshots, partitions, alerts ------------------------------------------
    def _record_days(
        self, per_day: Sequence[tuple[int, CrawlResult]]
    ) -> tuple[list[dict], list[int]]:
        """Partition + snapshot every ``(day, result)`` missing them; alert on new days.

        A degraded phase's detections are a truncated prefix, so callers
        leave that day out: writing its snapshot (the day's "recorded"
        marker) would stop the resumed, completed day from ever being
        snapshotted.
        """
        alerted = {r["day"] for r in self.read_alerts() if isinstance(r.get("day"), int)}
        emitted: list[dict] = []
        snapshot_days: list[int] = []
        previous: dict | None = None
        for day, result in per_day:
            snapshot = self._load_snapshot(day)
            if snapshot is None:
                self._write_partition(day, result)
                snapshot = self._snapshot_day(day, result)
                snapshot_days.append(day)
                if day >= FIRST_COMPARABLE_DAY and day not in alerted:
                    baseline = (
                        previous
                        if previous is not None and previous["day"] == day - 1
                        else self._load_snapshot(day - 1)
                    )
                    if baseline is not None:
                        alerts = evaluate_rules(
                            self.rules,
                            baseline["metrics"],
                            snapshot["metrics"],
                            day=day,
                        )
                        if alerts:
                            stamp = time.time()
                            for alert in alerts:
                                alert.setdefault("ts", stamp)
                            append_jsonl(self.alert_log, alerts)
                            emitted.extend(alerts)
                # The snapshot is the day's "recorded" marker, so it is
                # written last (after the partition and any alerts) and
                # atomically: a kill between any two steps re-derives the
                # day on the next tick.
                write_json(self.files.snapshot(day), snapshot)
            previous = snapshot
        return emitted, snapshot_days

    def _snapshot_day(self, day: int, result: CrawlResult) -> dict:
        """The day's metrics; a columnar campaign reads them off its partition's columns."""
        label = f"day-{day:05d}"
        if self.config.store_format == "columnar":
            dataset = ColumnarDataset.open(self.files.partition(day), label=label)
        else:
            dataset = CrawlDataset.from_detections(result.detections, label=label)
        context = AnalysisContext.offline(dataset)
        flat: dict[str, dict[str, float]] = {}
        for name in self.metrics:
            try:
                result = compute_metric(name, context)
            except AnalysisError:
                # An empty day (e.g. a population with no HB sites) has no
                # metrics; record the day with no fields rather than dying.
                flat[name] = {}
            else:
                flat[name] = flatten_metric_data(result.data)
        return {"day": day, "detections": len(dataset), "metrics": flat}

    def _load_snapshot(self, day: int) -> dict | None:
        """The day's recorded snapshot; ``None`` re-derives a missing or unreadable
        one, or one that does not record this day's metrics."""
        try:
            snapshot = read_json(self.files.snapshot(day))
        except StorageError:
            return None
        if snapshot.get("day") != day or not isinstance(snapshot.get("metrics"), dict):
            return None
        return snapshot

    def _write_partition(self, day: int, result: CrawlResult) -> None:
        """``save`` the day's records; a columnar day of pool batches is packed
        from them onto the partition's own dictionaries, with ``save``'s chunks."""
        path = self.files.partition(day)
        path.parent.mkdir(parents=True, exist_ok=True)
        storage = storage_for(path, format=self.config.store_format)
        batches = result.batches
        if self.config.store_format != "columnar" or batches is None:
            storage.save(result.detections)
            return
        with storage.open_sink(flush_every=SAVE_CHUNK_RECORDS) as sink:
            for batch in batches:
                sink.write_batch(batch)

    def read_alerts(self) -> list[dict]:
        """Every alert recorded so far, in emission order (see :func:`repro.workdir.tail_jsonl`)."""
        return tail_jsonl(self.alert_log)[0]

    # -- retention ---------------------------------------------------------------
    def _prune(self, *, last_day: int) -> None:
        """Drop per-day partition + snapshot files outside the retention window.

        Keeps the trailing ``retention_days`` days and always at least the
        last two (the next tick's regression diff needs the previous day's
        snapshot).  The canonical sink, checkpoint and alert log are never
        touched — they are what resume and byte-identity are built on.
        """
        if self.retention_days is None:
            return
        floor = min(last_day - self.retention_days, last_day - 2)
        for day in range(0, floor + 1):
            self.files.partition(day).unlink(missing_ok=True)
            self.files.snapshot(day).unlink(missing_ok=True)

    # -- bookkeeping -------------------------------------------------------------
    def _stamp(self) -> tuple | None:
        """``stat`` identity of the working store and the checkpoint (``None`` if one is gone)."""
        stamp = []
        for path in (self.working_path, self.checkpoint_path):
            try:
                st = path.stat()
            except OSError:
                return None
            stamp.append((st.st_ino, st.st_size, st.st_mtime_ns))
        return tuple(stamp)

    def _write_manifest(self) -> None:
        manifest = {
            "config": {
                "total_sites": self.config.total_sites,
                "seed": self.config.seed,
                "store_format": self.config.store_format,
                "workers": self.config.workers,
                "crawl_backend": self.config.crawl_backend,
            },
            "metrics": list(self.metrics),
            "rules": [rule.spec for rule in self.rules],
            "target_days": self.target_days,
            "retention_days": self.retention_days,
        }
        write_json(self.files.manifest, manifest)
