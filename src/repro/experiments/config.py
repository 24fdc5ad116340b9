"""Experiment configuration.

One :class:`ExperimentConfig` describes a complete measurement campaign: the
size of the simulated Web, the random seed, how many daily re-crawls to run,
the detector's partner-list coverage, and the historical study's parameters.
The paper-scale configuration (35k sites, 34 re-crawl days) is available as
:meth:`ExperimentConfig.paper_scale`; benchmarks and tests default to much
smaller populations with identical proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crawler.crawler import CrawlConfig
from repro.crawler.storage import STORE_FORMATS, DetectionSink
from repro.ecosystem.publishers import PopulationConfig
from repro.errors import ConfigurationError

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one reproduction run."""

    #: Number of websites in the simulated Web (the paper crawls 35,000).
    total_sites: int = 3_000
    #: Base random seed for the whole pipeline.
    seed: int = 2019
    #: Number of daily re-crawls of the HB-enabled sites (the paper runs 34).
    recrawl_days: int = 2
    #: Fraction of the partner universe present on the detector's curated list.
    detector_coverage: float = 1.0
    #: Number of partners in the ecosystem (the paper observes 84).
    total_partners: int = 84
    #: Historical study: number of sites per yearly top list and years covered.
    historical_sites: int = 1_000
    historical_years: tuple[int, ...] = (2014, 2015, 2016, 2017, 2018, 2019)
    #: Vanilla (clean-slate) crawler profile, as in the paper.
    vanilla_profile: bool = True
    #: Parallel crawl workers (shards); ``1`` is the paper's sequential crawl.
    workers: int = 1
    #: Crawl execution backend: ``"serial"`` or ``"process"``.
    #: Detections are byte-identical across backends and worker counts.
    crawl_backend: str = "serial"
    #: How many detections a streaming ``--save`` sink buffers between file
    #: writes (``1`` = write-and-flush per record).  The exported JSONL and
    #: the decoded detections are identical for any value; the ``.hbc``
    #: working store's bytes are not, because its chunks follow the flushes.
    sink_flush_every: int = DetectionSink.DEFAULT_FLUSH_EVERY
    #: Write a resumable crawl checkpoint to this path as the campaign
    #: progresses (requires persistent storage — ``run --save``).  ``None``
    #: disables checkpointing.
    checkpoint_path: str | None = None
    #: Resume the campaign recorded at :attr:`checkpoint_path` instead of
    #: starting fresh.  Refuses (fingerprint mismatch) if the configuration,
    #: seed or population differ from the interrupted run.
    resume: bool = False
    #: Persist the checkpoint every N completed shard boundaries.
    checkpoint_every_shards: int = 1
    #: Simulate with the columnar simulator over compiled site records.
    #: ``False`` selects the reference browser simulator, which re-derives
    #: every per-page input; detections are byte-identical.
    fast_path: bool = True
    #: Shards per worker for parallel crawls.  The exported JSONL and the
    #: decoded detections are identical for any value; the ``.hbc`` working
    #: store's chunks follow shard boundaries, so its bytes are not.  A
    #: mid-flight phase resumes only under its original value.
    shard_oversubscribe: int = 4
    #: Format of the file a campaign hands out: ``"jsonl"`` (the reference
    #: format, exported whole from the ``.hbc`` working store every campaign
    #: streams into) or ``"columnar"`` (the working store itself; see
    #: :func:`repro.crawler.colstore.campaign_store`).
    store_format: str = "jsonl"
    #: Supervision: retry budget per shard before it is quarantined.  Purely
    #: operational — retried shards reproduce identical bytes (simulation is
    #: deterministic), so none of the supervision knobs enter the campaign
    #: fingerprint or the artifact-cache key.
    shard_retries: int = 2
    #: Per-attempt wall-clock budget in seconds for pool backends (``None``
    #: disables; not enforceable on the serial backend).
    shard_timeout: float | None = None
    #: Base backoff in seconds between retry attempts (exponential with
    #: deterministic jitter); also governs transient sink-write retries.
    retry_backoff: float = 0.1
    #: Optional fault-injection plan (see
    #: :func:`repro.testing.parse_fault_plan`), e.g.
    #: ``"seed=7,crash@p=0.2x4,sink@p=0.1x5"``.  Intended for chaos testing:
    #: the run exercises the supervision machinery but — because retried
    #: shards are deterministic — still produces byte-identical detections.
    fault_spec: str | None = None
    #: Optional path of a JSON-lines supervision event log (retries, pool
    #: rebuilds, quarantines); threaded through to
    #: :attr:`CrawlConfig.fault_log`.
    fault_log: str | None = None

    def __post_init__(self) -> None:
        if self.total_sites < 10:
            raise ConfigurationError("an experiment needs at least 10 sites")
        if self.recrawl_days < 0:
            raise ConfigurationError("recrawl_days cannot be negative")
        if not 0.0 < self.detector_coverage <= 1.0:
            raise ConfigurationError("detector_coverage must be in (0, 1]")
        if self.total_partners < 10:
            raise ConfigurationError("the ecosystem needs at least 10 partners")
        if self.historical_sites < 10:
            raise ConfigurationError("the historical study needs at least 10 sites")
        if not self.historical_years:
            raise ConfigurationError("the historical study needs at least one year")
        if self.sink_flush_every < 1:
            raise ConfigurationError("sink_flush_every must be >= 1")
        if self.resume and self.checkpoint_path is None:
            raise ConfigurationError("resume requires a checkpoint_path")
        if self.store_format not in STORE_FORMATS:
            raise ConfigurationError(
                f"store_format must be one of {', '.join(STORE_FORMATS)}; got {self.store_format!r}"
            )
        # workers / crawl_backend / checkpoint_every_shards /
        # shard_retries / shard_timeout / retry_backoff validation lives in
        # CrawlConfig; building the crawl config surfaces any error at
        # construction time.
        self.crawl_config()
        if self.fault_spec is not None:
            from repro.testing import parse_fault_plan

            parse_fault_plan(self.fault_spec)

    # -- presets ------------------------------------------------------------------
    @classmethod
    def paper_scale(cls, *, seed: int = 2019) -> "ExperimentConfig":
        """The full-size configuration matching the paper's campaign."""
        return cls(total_sites=35_000, seed=seed, recrawl_days=34, historical_sites=1_000)

    @classmethod
    def bench_scale(cls, *, seed: int = 2019) -> "ExperimentConfig":
        """The default configuration used by the benchmark harness."""
        return cls(total_sites=3_000, seed=seed, recrawl_days=2, historical_sites=400)

    @classmethod
    def test_scale(cls, *, seed: int = 7) -> "ExperimentConfig":
        """A tiny configuration for unit and integration tests."""
        return cls(total_sites=400, seed=seed, recrawl_days=1, historical_sites=120,
                   historical_years=(2016, 2019))

    # -- derived configuration -------------------------------------------------------
    def population_config(self) -> PopulationConfig:
        """The publisher-population configuration this experiment implies."""
        return PopulationConfig(seed=self.seed).scaled(self.total_sites)

    def crawl_config(self) -> CrawlConfig:
        """The crawler configuration this experiment implies."""
        return CrawlConfig(
            seed=self.seed,
            workers=self.workers,
            backend=self.crawl_backend,
            checkpoint_every_shards=self.checkpoint_every_shards,
            fast_path=self.fast_path,
            shard_oversubscribe=self.shard_oversubscribe,
            shard_retries=self.shard_retries,
            shard_timeout=self.shard_timeout,
            retry_backoff=self.retry_backoff,
            fault_log=self.fault_log,
        )
