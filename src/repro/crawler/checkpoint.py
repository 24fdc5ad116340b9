"""Crash-safe checkpointing of sharded crawls.

The paper's measurement is a multi-week campaign; at production scale any
real crawl will be interrupted — a machine reboot, an OOM kill, a preempted
node.  This module makes a crawl resumable without giving up the engine's
byte-identity guarantee: a resumed crawl produces exactly the bytes an
uninterrupted run would have, for any backend, worker count or sink flush
interval.

How it works
------------
The engine already emits detections in canonical shard order and flushes the
sink at every shard boundary, so at each boundary the sink file is a prefix
of the final canonical record stream.  The sink is always a campaign's
``.hbc`` working store (:func:`repro.crawler.colstore.campaign_store`).  A :class:`CrawlCheckpoint` snapshots
exactly that state — the campaign fingerprint, the per-phase shard plan hash,
the completed-shard set, per-phase crawl counters, and the sink byte offset —
and is written *atomically* (:func:`repro.workdir.write_json`) so a crash
can never leave a half-written checkpoint.

On resume, :meth:`CrawlCheckpointer.resume` refuses to continue unless the
checkpoint's fingerprint matches the current configuration (same seed,
population, timeouts, campaign shape), truncates the sink's half-flushed tail
back to the recorded chunk boundary via
:meth:`~repro.crawler.colstore.ColumnarStorage.recover_to`, and re-decodes
the kept prefix.  The engine then re-plans deterministically, verifies the
recorded plan hash and the recovered detections against the plan, skips the
completed shards, and merges old and new detections in canonical order.

What the fingerprint covers
---------------------------
Only knobs that change the produced bytes: the seed, the population, the
page-load timeout/dwell/restart parameters and the campaign shape.  The
worker count, execution backend and sink flush interval are deliberately
*excluded* — detections are byte-identical across all of them — so a crawl
interrupted on a laptop can resume on a 64-core box.  The one exception is
the phase that was mid-flight when the crawl died: its shard boundaries must
line up with the recorded completed-shard set, so resuming *that phase* with
a different worker count raises :class:`CheckpointError` (finished phases
and phases not yet started are free to re-plan).

The day horizon (``recrawl_days``) is *extensible* rather than frozen: a
finished campaign may resume with a larger horizon, appending net-new crawl
days to the same sink, because each day is its own phase and completed phases
are immutable.  Shrinking the horizon below a day the checkpoint already
records is refused — that would orphan recorded phases — and every other
fingerprint field still must match exactly (see
:data:`EXTENSIBLE_FINGERPRINT_KEYS`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.crawler.crawler import CrawlResult
from repro.detector.records import SiteDetection
from repro.errors import CheckpointError, ConfigurationError, StorageError
from repro.workdir import read_json, write_json

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.crawler.colstore import ColumnarStorage
    from repro.crawler.engine import CrawlPlan, DetectionSinkLike

__all__ = [
    "CHECKPOINT_VERSION",
    "EXTENSIBLE_FINGERPRINT_KEYS",
    "PhaseProgress",
    "CrawlCheckpoint",
    "CrawlCheckpointer",
    "plan_fingerprint",
    "population_fingerprint",
    "canonical_fingerprint",
]

#: Bump whenever the on-disk checkpoint format changes incompatibly; loading
#: a checkpoint written by a different version refuses rather than guessing.
#: Version 2: ``sink_offset`` counts ``.hbc`` bytes (version 1: JSONL bytes).
CHECKPOINT_VERSION = 2

#: Fingerprint fields that may legitimately differ between the recorded
#: campaign and a resuming run.  ``recrawl_days`` is the campaign's day
#: horizon: growing it appends net-new phases after the recorded ones and
#: never rewrites a completed phase, so a finished campaign can keep being
#: extended day by day (the recrawl daemon's whole mode of operation).
#: Shrinking below a recorded day is still refused in
#: :meth:`CrawlCheckpointer.resume`.
EXTENSIBLE_FINGERPRINT_KEYS = ("recrawl_days",)


def _digest(parts: Iterable[str]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def population_fingerprint(domains: Iterable[str]) -> str:
    """Stable identity of a crawl population: its ordered domain list."""
    return _digest(domains)


def plan_fingerprint(plan: "CrawlPlan") -> str:
    """Stable identity of a shard plan: seed plus every shard's site run."""
    parts = [str(plan.seed), str(plan.n_sites)]
    for shard in plan.shards:
        parts.append(f"shard:{shard.index}@{shard.start}")
        parts.extend(publisher.domain for publisher in shard.publishers)
    return _digest(parts)


def canonical_fingerprint(fingerprint: Mapping[str, object]) -> str:
    """The canonical JSON form fingerprints are stored and compared in."""
    return json.dumps(fingerprint, sort_keys=True)


def _fingerprint_diff(
    recorded: Mapping[str, object], current: Mapping[str, object]
) -> str:
    """Human-readable summary of which fingerprint fields disagree."""
    keys = sorted(set(recorded) | set(current))
    diffs = [
        f"{key}: checkpoint={recorded.get(key)!r} run={current.get(key)!r}"
        for key in keys
        if recorded.get(key) != current.get(key)
    ]
    return "; ".join(diffs) or "(structurally different fingerprints)"


# ---------------------------------------------------------------------------
# The on-disk state


@dataclass(frozen=True)
class PhaseProgress:
    """Recorded progress of one crawl phase (one ``crawl_day``).

    The engine emits shards strictly in shard order, so the completed-shard
    set is always the prefix ``{0, …, k-1}``; it is stored explicitly in the
    file and validated back into a prefix on load.
    """

    crawl_day: int
    plan_hash: str
    n_shards: int
    completed_shards: tuple[int, ...]
    #: Detections emitted (and flushed) for this phase so far.
    n_detections: int
    pages_visited: int
    sessions_started: int
    timed_out_domains: tuple[str, ...]
    #: Shards quarantined by the supervision layer (as
    #: :meth:`~repro.crawler.crawler.ShardFailure.to_dict` mappings).
    #: Non-empty marks the phase *degraded*: the crawl gave up on these
    #: shards, and a resume re-crawls everything from the completed prefix
    #: on — clearing this field in the process.  Absent in pre-supervision
    #: checkpoints, which load as an empty tuple.
    quarantined: tuple[Mapping, ...] = ()

    @property
    def done(self) -> bool:
        return len(self.completed_shards) >= self.n_shards

    def to_dict(self) -> dict:
        return {
            "crawl_day": self.crawl_day,
            "plan_hash": self.plan_hash,
            "n_shards": self.n_shards,
            "completed_shards": list(self.completed_shards),
            "n_detections": self.n_detections,
            "pages_visited": self.pages_visited,
            "sessions_started": self.sessions_started,
            "timed_out_domains": list(self.timed_out_domains),
            "quarantined": [dict(entry) for entry in self.quarantined],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PhaseProgress":
        try:
            phase = cls(
                crawl_day=int(data["crawl_day"]),
                plan_hash=str(data["plan_hash"]),
                n_shards=int(data["n_shards"]),
                completed_shards=tuple(int(i) for i in data["completed_shards"]),
                n_detections=int(data["n_detections"]),
                pages_visited=int(data["pages_visited"]),
                sessions_started=int(data["sessions_started"]),
                timed_out_domains=tuple(str(d) for d in data["timed_out_domains"]),
                quarantined=tuple(dict(entry) for entry in data.get("quarantined", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint phase record: {exc}") from exc
        if phase.completed_shards != tuple(range(len(phase.completed_shards))):
            raise CheckpointError(
                f"checkpoint phase {phase.crawl_day} records non-prefix completed "
                f"shards {phase.completed_shards}: the engine only checkpoints "
                f"contiguous prefixes, so the file is corrupt"
            )
        if len(phase.completed_shards) > phase.n_shards or phase.n_detections < 0:
            raise CheckpointError(
                f"checkpoint phase {phase.crawl_day} is internally inconsistent"
            )
        return phase


@dataclass(frozen=True)
class CrawlCheckpoint:
    """Everything needed to resume an interrupted crawl campaign.

    Written atomically at shard boundaries; see the module docstring for the
    resume protocol and :class:`CrawlCheckpointer` for the object that drives
    it during a crawl.
    """

    fingerprint: Mapping[str, object]
    #: Byte offset of the last shard-boundary flush of the ``.hbc`` working
    #: store; everything after it is discardable tail.
    sink_offset: int
    phases: tuple[PhaseProgress, ...]
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "fingerprint": dict(self.fingerprint),
            "sink_offset": self.sink_offset,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CrawlCheckpoint":
        try:
            version = int(data["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} is not supported "
                f"(this build writes version {CHECKPOINT_VERSION})"
            )
        try:
            fingerprint = dict(data["fingerprint"])
            sink_offset = int(data["sink_offset"])
            phases = tuple(PhaseProgress.from_dict(p) for p in data["phases"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc
        if sink_offset < 0:
            raise CheckpointError("checkpoint sink offset cannot be negative")
        days = [phase.crawl_day for phase in phases]
        if len(set(days)) != len(days):
            raise CheckpointError(f"checkpoint repeats crawl days: {days}")
        for phase in phases[:-1]:
            if not phase.done:
                raise CheckpointError(
                    f"checkpoint phase {phase.crawl_day} is unfinished but not "
                    f"the last phase: the file is corrupt"
                )
        return cls(fingerprint=fingerprint, sink_offset=sink_offset, phases=phases)

    def save(self, path: str | Path) -> None:
        """Write the checkpoint atomically (:func:`repro.workdir.write_json`).

        A crash at any instant leaves either the previous checkpoint or this
        one on disk, never a torn file.
        """
        try:
            write_json(path, self.to_dict())
        except OSError as exc:
            raise CheckpointError(f"could not write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "CrawlCheckpoint":
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"no checkpoint to resume at {path}")
        try:
            return cls.from_dict(read_json(path))
        except StorageError as exc:
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc


# ---------------------------------------------------------------------------
# The live recorder


class CrawlCheckpointer:
    """Owns one checkpoint file for the lifetime of one crawl campaign.

    Built either :meth:`fresh` (start a new campaign, overwriting any stale
    checkpoint on the first boundary) or :meth:`resume` (validate an existing
    checkpoint against the current configuration and recover the sink).  The
    crawler calls :meth:`begin_phase` once per :meth:`Crawler.crawl` and
    :meth:`record_progress` at shard boundaries; callers outside the crawler
    never need those two.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: Mapping[str, object],
        *,
        _checkpoint: CrawlCheckpoint | None = None,
        _prior_detections: list[SiteDetection] | None = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = dict(fingerprint)
        self._phases: list[PhaseProgress] = (
            list(_checkpoint.phases) if _checkpoint is not None else []
        )
        self._sink_offset = _checkpoint.sink_offset if _checkpoint is not None else 0
        self._prior = list(_prior_detections or [])
        self.resumed = _checkpoint is not None

    @classmethod
    def fresh(
        cls, path: str | Path, fingerprint: Mapping[str, object]
    ) -> "CrawlCheckpointer":
        """Start checkpointing a brand-new campaign (sink starts at byte 0)."""
        return cls(path, fingerprint)

    @classmethod
    def resume(
        cls,
        path: str | Path,
        fingerprint: Mapping[str, object],
        storage: "ColumnarStorage",
    ) -> "CrawlCheckpointer":
        """Load a checkpoint, validate it, and recover the sink file.

        Refuses (raising :class:`CheckpointError`) when the fingerprint does
        not match the current run — resuming under a different seed, population
        or configuration would silently corrupt the dataset.  The day horizon
        (``recrawl_days``, see :data:`EXTENSIBLE_FINGERPRINT_KEYS`) is the one
        extensible field: it may grow, appending new crawl days to a finished
        campaign, but shrinking below a day the checkpoint already records is
        refused.  The sink's half-flushed tail is truncated to the recorded
        offset and the kept prefix re-parsed; its record count must match what
        the checkpoint's phases add up to, so a replaced or damaged sink fails
        loudly instead of double-counting.
        """
        checkpoint = CrawlCheckpoint.load(path)
        recorded = {
            key: value
            for key, value in checkpoint.fingerprint.items()
            if key not in EXTENSIBLE_FINGERPRINT_KEYS
        }
        current = {
            key: value
            for key, value in fingerprint.items()
            if key not in EXTENSIBLE_FINGERPRINT_KEYS
        }
        if canonical_fingerprint(recorded) != canonical_fingerprint(current):
            raise CheckpointError(
                "checkpoint fingerprint does not match this run; refusing to "
                "resume — " + _fingerprint_diff(recorded, current)
            )
        horizon = fingerprint.get("recrawl_days")
        if horizon is not None and checkpoint.phases:
            last_day = max(phase.crawl_day for phase in checkpoint.phases)
            if int(horizon) < last_day:
                raise CheckpointError(
                    f"checkpoint already records crawl day {last_day} but this "
                    f"run's horizon is recrawl_days={horizon}; completed days "
                    f"are immutable — resume with recrawl_days >= {last_day} "
                    f"to extend the campaign instead of shrinking it"
                )
        prior = storage.recover_to(checkpoint.sink_offset)
        expected = sum(phase.n_detections for phase in checkpoint.phases)
        if len(prior) != expected:
            raise CheckpointError(
                f"sink {storage.path} holds {len(prior)} detections below the "
                f"checkpoint offset but the checkpoint records {expected}: the "
                f"file does not belong to this checkpoint"
            )
        return cls(path, fingerprint, _checkpoint=checkpoint, _prior_detections=prior)

    # -- state views -------------------------------------------------------------
    @property
    def sink_offset(self) -> int:
        """The last recorded shard-boundary byte offset of the sink."""
        return self._sink_offset

    def checkpoint(self) -> CrawlCheckpoint:
        """A snapshot of the current recorded state."""
        return CrawlCheckpoint(
            fingerprint=self.fingerprint,
            sink_offset=self._sink_offset,
            phases=tuple(self._phases),
        )

    def save(self) -> None:
        """Persist the current state atomically to the checkpoint path."""
        self.checkpoint().save(self.path)

    def extend_horizon(self, recrawl_days: int) -> None:
        """Grow the campaign's day horizon in place (written on the next save).

        The in-memory twin of resuming under a larger ``recrawl_days`` (see
        :data:`EXTENSIBLE_FINGERPRINT_KEYS`), for a caller that keeps this
        checkpointer alive between crawl days; shrinking is refused alike.
        """
        last_day = max((phase.crawl_day for phase in self._phases), default=0)
        if recrawl_days < last_day:
            raise CheckpointError(
                f"checkpoint already records crawl day {last_day}; the horizon "
                f"cannot shrink to recrawl_days={recrawl_days}"
            )
        self.fingerprint["recrawl_days"] = recrawl_days

    # -- engine-facing protocol ------------------------------------------------
    def begin_phase(
        self, plan: "CrawlPlan", crawl_day: int, sink: "DetectionSinkLike"
    ) -> tuple[CrawlResult, int]:
        """Open (or re-open) the phase for ``crawl_day`` under ``plan``.

        Returns ``(prior, skip)``: the :class:`CrawlResult` already produced
        for this phase before the interruption (reconstructed from the
        recovered sink records plus the recorded counters) and the number of
        leading shards to skip.  For a phase the checkpoint never saw, that is
        an empty result and zero.  For a finished phase the whole plan is
        skipped, which is what makes re-running a completed campaign a no-op.

        The recovered records are verified against the deterministic re-plan:
        their domains must equal the canonical site order of the shards they
        claim to cover, and a mid-flight phase must re-plan to the recorded
        plan hash (same worker count) so the completed prefix still falls on
        shard boundaries.
        """
        if getattr(sink, "format", None) != "columnar":
            raise ConfigurationError(
                "checkpointing needs an offset-tracking .hbc sink "
                "(ColumnarStorage.open_sink()); JSONL is only exported whole"
            )
        offset = sink.offset
        if offset != self._sink_offset:
            raise CheckpointError(
                f"sink is positioned at byte {offset} but the checkpoint "
                f"records {self._sink_offset}; resume must reuse the recovered "
                f"sink (append mode) and a fresh campaign must start at byte 0"
            )
        phase = next((p for p in self._phases if p.crawl_day == crawl_day), None)
        if phase is None:
            self._phases.append(
                PhaseProgress(
                    crawl_day=crawl_day,
                    plan_hash=plan_fingerprint(plan),
                    n_shards=len(plan.shards),
                    completed_shards=(),
                    n_detections=0,
                    pages_visited=0,
                    sessions_started=0,
                    timed_out_domains=(),
                )
            )
            self.save()
            return CrawlResult(), 0

        start = 0
        for earlier in self._phases:
            if earlier is phase:
                break
            start += earlier.n_detections
        detections = self._prior[start : start + phase.n_detections]
        if len(detections) != phase.n_detections:  # pragma: no cover - resume() checks
            raise CheckpointError(
                f"checkpoint phase {crawl_day} records {phase.n_detections} "
                f"detections but only {len(detections)} were recovered"
            )
        if phase.done:
            skip = len(plan.shards)
            expected_domains = plan.site_order
        else:
            if phase is not self._phases[-1]:
                raise CheckpointError(
                    f"phase {crawl_day} is mid-flight but not the last recorded "
                    f"phase: the checkpoint is corrupt"
                )
            if plan_fingerprint(plan) != phase.plan_hash:
                raise CheckpointError(
                    f"phase {crawl_day} was interrupted under a different shard "
                    f"plan; resume it with the original worker count, shard "
                    f"oversubscription factor and site list (finished phases "
                    f"may re-plan freely)"
                )
            if phase.quarantined:
                # Re-opening a degraded phase: the quarantined shards are
                # about to be re-crawled (everything past the completed
                # prefix is), so the quarantine record is cleared — it will
                # be re-recorded only if they fail again.
                phase = replace(phase, quarantined=())
                self._phases[-1] = phase
            skip = len(phase.completed_shards)
            expected_domains = tuple(
                publisher.domain
                for shard in plan.shards[:skip]
                for publisher in shard.publishers
            )
        if tuple(d.domain for d in detections) != expected_domains:
            raise CheckpointError(
                f"recovered sink records for phase {crawl_day} do not match the "
                f"deterministic re-plan: the sink or checkpoint was tampered "
                f"with or belongs to a different campaign"
            )
        if phase is self._phases[-1]:
            # Every recorded phase has been re-opened; later phases are new,
            # so the recovered records need not outlive this call.
            self._prior = []
        prior = CrawlResult(
            detections=list(detections),
            timed_out_domains=list(phase.timed_out_domains),
            pages_visited=phase.pages_visited,
            sessions_started=phase.sessions_started,
        )
        return prior, skip

    def record_progress(
        self,
        crawl_day: int,
        *,
        completed_shards: int,
        n_detections: int,
        pages_visited: int,
        sessions_started: int,
        timed_out_domains: tuple[str, ...],
        sink_offset: int,
        persist: bool = True,
    ) -> None:
        """Record that shards ``0..completed_shards-1`` are emitted + flushed.

        Counters are phase-cumulative (resumed prefix included).  With
        ``persist=False`` only the in-memory state advances — the engine uses
        this to throttle checkpoint writes to every
        ``CrawlConfig.checkpoint_every_shards``-th boundary; a later persist
        (or the next phase's :meth:`begin_phase`) writes the cumulative state.
        """
        if not self._phases or self._phases[-1].crawl_day != crawl_day:
            raise CheckpointError(
                f"record_progress for day {crawl_day} without a matching "
                f"begin_phase; phases are recorded strictly in crawl order"
            )
        self._phases[-1] = replace(
            self._phases[-1],
            completed_shards=tuple(range(completed_shards)),
            n_detections=n_detections,
            pages_visited=pages_visited,
            sessions_started=sessions_started,
            timed_out_domains=tuple(timed_out_domains),
        )
        self._sink_offset = sink_offset
        if persist:
            self.save()

    def record_quarantine(self, crawl_day: int, failures: Iterable) -> None:
        """Persist the phase's quarantined shards (degraded completion).

        ``failures`` are :class:`~repro.crawler.crawler.ShardFailure`
        instances (or dicts in that shape).  Also persists any progress that
        :meth:`record_progress` recorded in-memory-only under checkpoint
        throttling, so a resume sees the true completed prefix.
        """
        if not self._phases or self._phases[-1].crawl_day != crawl_day:
            raise CheckpointError(
                f"record_quarantine for day {crawl_day} without a matching "
                f"begin_phase; phases are recorded strictly in crawl order"
            )
        entries = tuple(
            entry if isinstance(entry, Mapping) else entry.to_dict()
            for entry in failures
        )
        self._phases[-1] = replace(self._phases[-1], quarantined=entries)
        self.save()
