"""Supervised execution: shard retries, timeouts, quarantine, fault injection.

The acceptance criterion under test: a crawl running under any injected fault
the supervision layer can absorb (transient raises, hangs, dead process
workers, flaky sink writes) completes unattended and produces *byte-identical*
sink files versus a fault-free run — supervision changes availability, never
output.  Shards that exhaust their retry budget are quarantined, recorded in
the checkpoint, reported on the result, and re-crawled by a resume whose final
bytes are again identical to a never-faulted run.
"""

import dataclasses
import json
import pickle
from dataclasses import replace

import pytest

import repro.daemon as daemon_mod

from repro.crawler.checkpoint import CrawlCheckpoint, CrawlCheckpointer, PhaseProgress
from repro.crawler.colstore import storage_for
from repro.crawler.crawler import CrawlConfig, CrawlResult, ShardFailure
from repro.crawler.engine import CrawlEngine, SupervisionPolicy
from repro.errors import ConfigurationError, StorageError
from repro.experiments.config import ExperimentConfig
from repro.testing import (
    Fault,
    FaultAction,
    FaultInjectingSink,
    FaultPlan,
    InjectedFault,
    SimulatedCrash,
    parse_fault_plan,
)


@pytest.fixture(scope="module")
def sites(small_population):
    return list(small_population)[:24]


def engine_run(
    environment,
    detector,
    config,
    sites,
    tmp_path,
    name,
    *,
    plan=None,
    store_format="jsonl",
    flush_every=3,
    checkpointed=False,
):
    """One engine-level crawl; returns ``(result, storage, checkpoint_path)``."""
    suffix = "hbc" if store_format == "columnar" else "jsonl"
    storage = storage_for(tmp_path / f"{name}.{suffix}", format=store_format)
    checkpoint = None
    checkpoint_path = tmp_path / f"{name}.ckpt"
    if checkpointed:
        fingerprint = {"seed": config.seed, "sites": [p.domain for p in sites]}
        checkpoint = CrawlCheckpointer.fresh(checkpoint_path, fingerprint)
    with CrawlEngine(environment, detector, config, fault_plan=plan) as engine:
        with storage.open_sink(flush_every=flush_every) as sink:
            result = engine.crawl(sites, crawl_day=0, sink=sink, checkpoint=checkpoint)
    return result, storage, checkpoint_path


# ---------------------------------------------------------------------------
# The fault-spec grammar


class TestFaultSpecParsing:
    def test_full_spec_round_trips(self):
        spec = "crash@p=0.2x4,hang@shard=3~5,raise@count=10x2,sink@p=0.1x5"
        plan = parse_fault_plan("seed=7," + spec)
        assert plan.seed == 7
        assert plan.describe() == spec

    def test_defaults(self):
        plan = parse_fault_plan("raise@shard=2")
        (fault,) = plan.faults
        assert fault.times == 1
        assert fault.delay is None
        assert plan.seed == 0

    def test_hang_gets_a_default_delay(self):
        plan = parse_fault_plan("hang@shard=0")
        action = plan.next_action(0)
        assert action.kind == "hang"
        assert action.delay > 0

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "seed=7",                  # seed but no faults
            "seed=x,raise@shard=0",    # bad seed
            "explode@shard=0",         # unknown kind
            "raise@shard=1.5",         # shard takes an integer
            "raise@p=0",               # p out of (0, 1]
            "raise@p=1.5",
            "raise@shard=0x0",         # times must be >= 1
            "sink@shard=0",            # sink faults cannot key on shard
            "raise@when=now",          # unknown key
            "raise shard=0",           # malformed token
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(spec)

    def test_fault_needs_exactly_one_trigger(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Fault(kind="raise", shard=1, count=2)
        with pytest.raises(ConfigurationError, match="exactly one"):
            Fault(kind="raise")

    def test_experiment_config_validates_fault_spec(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(total_sites=400, fault_spec="bogus@nope=1")
        config = ExperimentConfig(total_sites=400, fault_spec="raise@shard=0")
        assert config.fault_spec == "raise@shard=0"


class TestFaultPlan:
    def test_shard_trigger_fires_once_then_exhausts(self):
        plan = parse_fault_plan("raise@shard=2")
        assert plan.next_action(0) is None
        action = plan.next_action(2)
        assert action.kind == "raise" and action.shard == 2
        assert plan.next_action(2) is None  # exhausted

    def test_count_trigger_fires_from_serial_onward(self):
        plan = parse_fault_plan("raise@count=2x2")
        assert plan.next_action(9) is None   # submission 0
        assert plan.next_action(9) is None   # submission 1
        assert plan.next_action(9) is not None  # submission 2
        assert plan.next_action(9) is not None  # x2 cap
        assert plan.next_action(9) is None

    def test_probabilistic_trigger_is_seed_deterministic(self):
        draws = [
            [parse_fault_plan(f"seed={seed},raise@p=0.5x100").next_action(0) is not None
             for _ in range(20)]
            for seed in (7, 7, 8)
        ]
        # Same-seed is too weak a check as written (each call mutates its
        # own plan); rebuild instead and compare full sequences.
        def sequence(seed):
            plan = parse_fault_plan(f"seed={seed},raise@p=0.5x100")
            return [plan.next_action(0) is not None for _ in range(20)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)
        assert draws  # sanity: the comprehension above ran

    def test_sink_writes_use_their_own_counter(self):
        plan = parse_fault_plan("sink@count=1x1,raise@count=0x1")
        assert plan.next_action(0) is not None  # submission 0 fires the raise
        assert plan.sink_exception() is None    # write 0 < count=1
        exc = plan.sink_exception()             # write 1 fires
        assert isinstance(exc, StorageError)
        assert plan.sink_exception() is None    # exhausted

    def test_actions_are_picklable(self):
        action = parse_fault_plan("hang@shard=3~0.5").next_action(3)
        clone = pickle.loads(pickle.dumps(action))
        assert clone == action

    def test_crash_degrades_to_exception_outside_pool_workers(self):
        action = FaultAction(kind="crash", shard=1)
        with pytest.raises(SimulatedCrash):
            action()  # the test process has no multiprocessing parent

    def test_raise_action(self):
        with pytest.raises(InjectedFault):
            FaultAction(kind="raise", shard=0)()

    def test_wrap_sink_passthrough_without_sink_faults(self):
        plan = parse_fault_plan("raise@shard=0")
        sentinel = object()
        assert plan.wrap_sink(sentinel) is sentinel
        assert plan.wrap_sink(None) is None

    def test_injecting_sink_raises_before_delegating(self):
        writes = []

        class Inner:
            offset = 0

            def write(self, record):
                writes.append(record)

            def flush(self):
                pass

        plan = parse_fault_plan("sink@count=0x1")
        sink = FaultInjectingSink(Inner(), plan)
        with pytest.raises(StorageError):
            sink.write("first")
        assert writes == []  # the inner sink never saw the failed write
        sink.write("first")
        assert writes == ["first"]


# ---------------------------------------------------------------------------
# Supervision policy mechanics


class TestSupervisionPolicy:
    def test_from_config(self):
        config = CrawlConfig(
            shard_retries=3, shard_timeout=5.0, retry_backoff=0.2, quarantine=False
        )
        policy = SupervisionPolicy.from_config(config)
        assert policy.retries == 3
        assert policy.timeout == 5.0
        assert policy.backoff == 0.2
        assert policy.quarantine is False
        assert policy.seed == config.seed

    def test_delay_is_deterministic_exponential_with_jitter(self):
        policy = SupervisionPolicy(retries=3, backoff=0.1, seed=5)
        first = policy.delay("shard-2", 1)
        assert first == policy.delay("shard-2", 1)
        assert 0.05 <= first < 0.1  # backoff * 2**0 * jitter in [0.5, 1.0)
        second = policy.delay("shard-2", 2)
        assert 0.1 <= second < 0.2  # doubled
        assert policy.delay("shard-3", 1) != first  # keyed jitter

    def test_zero_backoff_never_sleeps(self):
        policy = SupervisionPolicy(retries=3, backoff=0.0, seed=5)
        assert policy.delay("k", 1) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_retries": -1},
            {"shard_timeout": 0.0},
            {"shard_timeout": -1.0},
            {"retry_backoff": -0.1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            CrawlConfig(**kwargs)


class TestShardFailureRecord:
    def test_round_trips_through_dict(self):
        failure = ShardFailure(
            shard_index=3, error="boom", attempts=2, domains=("a.com", "b.com")
        )
        assert ShardFailure.from_dict(failure.to_dict()) == failure

    def test_merge_concatenates_quarantine_and_sums_counters(self):
        left = CrawlResult(retries=1, pool_rebuilds=1,
                           quarantined_shards=(ShardFailure(0, "x", 2),))
        right = CrawlResult(retries=2, sink_retries=3,
                            quarantined_shards=(ShardFailure(4, "y", 3),))
        merged = left.merge(right)
        assert merged.retries == 3
        assert merged.pool_rebuilds == 1
        assert merged.sink_retries == 3
        assert [f.shard_index for f in merged.quarantined_shards] == [0, 4]
        assert merged.degraded

    def test_fresh_result_is_not_degraded(self):
        assert not CrawlResult().degraded


# ---------------------------------------------------------------------------
# Retry supervision: faults absorbed, bytes identical


class TestRetrySupervision:
    def baseline(self, environment, detector, sites, tmp_path, store_format="jsonl"):
        config = CrawlConfig(seed=2019)
        return engine_run(
            environment, detector, config, sites, tmp_path, "baseline",
            store_format=store_format,
        )

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("process", 2)])
    def test_transient_raises_are_retried_byte_identically(
        self, environment, detector, sites, tmp_path, backend, workers
    ):
        base_result, base_storage, _ = self.baseline(environment, detector, sites, tmp_path)
        # shard_retries exceeds the plan's total firing cap (x4), so no
        # single shard can exhaust its budget even if every firing lands on it.
        config = CrawlConfig(
            seed=2019, backend=backend, workers=workers,
            shard_oversubscribe=2, shard_retries=4, retry_backoff=0.0,
        )
        plan = parse_fault_plan("seed=3,raise@p=0.4x4")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, f"faulty-{backend}",
            plan=plan,
        )
        assert plan.total_fired > 0
        assert result.retries == plan.total_fired
        assert not result.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()
        assert [d.domain for d in result.detections] == [
            d.domain for d in base_result.detections
        ]

    def test_hung_shard_times_out_and_retries(
        self, environment, detector, sites, tmp_path
    ):
        _, base_storage, _ = self.baseline(environment, detector, sites, tmp_path)
        config = CrawlConfig(
            seed=2019, backend="process", workers=2, shard_oversubscribe=2,
            shard_retries=2, shard_timeout=0.3, retry_backoff=0.0,
        )
        plan = parse_fault_plan("hang@shard=2~1.5")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, "hung", plan=plan
        )
        assert result.retries >= 1
        assert not result.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()

    def test_transient_sink_failures_are_retried(
        self, environment, detector, sites, tmp_path
    ):
        _, base_storage, _ = self.baseline(environment, detector, sites, tmp_path)
        config = CrawlConfig(
            seed=2019, backend="process", workers=2, shard_oversubscribe=2,
            shard_retries=2, retry_backoff=0.0,
        )
        plan = parse_fault_plan("seed=5,sink@p=0.2x6")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, "flaky-sink", plan=plan
        )
        assert result.sink_retries == 6
        assert not result.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()

    def test_serial_streaming_retry_replays_without_duplicates(
        self, environment, detector, sites, tmp_path
    ):
        """A mid-shard failure on the inline backend must not re-emit the
        detections the failed attempt already delivered (the skip-k replay)."""
        _, base_storage, _ = self.baseline(environment, detector, sites, tmp_path)
        config = CrawlConfig(seed=2019, shard_retries=2, retry_backoff=0.0)
        # Write 10 fails 4 times: the write-level retry budget (2) exhausts,
        # the shard attempt fails and is retried, the replay skips the 9
        # delivered detections, and the final firing is absorbed in-line.
        plan = parse_fault_plan("sink@count=10x4")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, "replay", plan=plan,
            flush_every=1,
        )
        assert result.retries == 1
        assert not result.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()

    def test_fault_log_records_retry_events(
        self, environment, detector, sites, tmp_path
    ):
        log = tmp_path / "faults.jsonl"
        config = CrawlConfig(
            seed=2019, shard_retries=2, retry_backoff=0.0, fault_log=str(log)
        )
        plan = parse_fault_plan("raise@count=0x2")
        result, _, _ = engine_run(
            environment, detector, config, sites, tmp_path, "logged", plan=plan
        )
        assert result.retries == 2
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["event"] for e in events] == ["retry", "retry"]
        assert all(e["shard"] == 0 for e in events)
        assert events[0]["attempt"] == 1 and events[1]["attempt"] == 2

    def test_columnar_store_is_also_byte_identical_under_faults(
        self, environment, detector, sites, tmp_path
    ):
        _, base_storage, _ = self.baseline(
            environment, detector, sites, tmp_path, store_format="columnar"
        )
        config = CrawlConfig(
            seed=2019, backend="process", workers=2, shard_oversubscribe=2,
            shard_retries=2, retry_backoff=0.0,
        )
        plan = parse_fault_plan("seed=11,raise@p=0.5x3,sink@p=0.2x3")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, "col-faulty",
            plan=plan, store_format="columnar",
        )
        assert result.retries + result.sink_retries > 0
        assert storage.path.read_bytes() == base_storage.path.read_bytes()


# ---------------------------------------------------------------------------
# Dead process workers (SIGKILL) and pool rebuilds


class TestProcessWorkerDeath:
    def test_sigkilled_worker_rebuilds_pool_byte_identically(
        self, environment, detector, sites, tmp_path
    ):
        _, base_storage, _ = TestRetrySupervision().baseline(
            environment, detector, sites, tmp_path
        )
        config = CrawlConfig(
            seed=2019, backend="process", workers=2, shard_oversubscribe=2,
            shard_retries=3, retry_backoff=0.0,
        )
        plan = parse_fault_plan("crash@shard=1")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, "sigkill", plan=plan
        )
        assert result.pool_rebuilds >= 1
        assert result.retries >= 1  # every in-flight casualty is charged one attempt
        assert not result.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()


# ---------------------------------------------------------------------------
# Quarantine, degraded completion, resume


class TestQuarantine:
    def test_exhausted_shard_is_quarantined_and_resume_completes(
        self, environment, detector, sites, tmp_path
    ):
        _, base_storage, _ = TestRetrySupervision().baseline(
            environment, detector, sites, tmp_path
        )
        config = CrawlConfig(seed=2019, shard_retries=1, retry_backoff=0.0)
        plan = parse_fault_plan("raise@shard=0x9")
        result, storage, checkpoint_path = engine_run(
            environment, detector, config, sites, tmp_path, "quarantined",
            plan=plan, checkpointed=True,
        )
        assert result.degraded
        (failure,) = result.quarantined_shards
        assert failure.shard_index == 0
        assert failure.attempts == 2  # 1 try + 1 retry
        assert "InjectedFault" in failure.error
        assert failure.domains  # triage info

        # The quarantine is persisted in the checkpoint.
        checkpoint = CrawlCheckpoint.load(checkpoint_path)
        recorded = checkpoint.phases[-1].quarantined
        assert [entry["shard"] for entry in recorded] == [0]
        assert not checkpoint.phases[-1].done

        # Resume without the fault plan: the quarantined shard is re-crawled
        # and the final bytes match a never-faulted run.
        fingerprint = {"seed": config.seed, "sites": [p.domain for p in sites]}
        resumed = CrawlCheckpointer.resume(checkpoint_path, fingerprint, storage)
        with CrawlEngine(environment, detector, config) as engine:
            with storage.open_sink(append=True, flush_every=3) as sink:
                final = engine.crawl(sites, crawl_day=0, sink=sink, checkpoint=resumed)
        assert not final.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()
        assert CrawlCheckpoint.load(checkpoint_path).phases[-1].quarantined == ()

    def test_quarantine_off_aborts_the_crawl(
        self, environment, detector, sites, tmp_path
    ):
        config = CrawlConfig(
            seed=2019, shard_retries=0, retry_backoff=0.0, quarantine=False
        )
        plan = parse_fault_plan("raise@shard=0")
        with pytest.raises(InjectedFault):
            engine_run(
                environment, detector, config, sites, tmp_path, "abort", plan=plan
            )

    def test_pool_backend_quarantine_keeps_completed_prefix(
        self, environment, detector, sites, tmp_path
    ):
        config = CrawlConfig(
            seed=2019, backend="process", workers=2, shard_oversubscribe=2,
            shard_retries=0, retry_backoff=0.0,
        )
        plan = parse_fault_plan("raise@shard=1x9")
        result, storage, _ = engine_run(
            environment, detector, config, sites, tmp_path, "pool-quarantine",
            plan=plan,
        )
        assert result.degraded
        assert [f.shard_index for f in result.quarantined_shards] == [1]
        # Detections cover exactly the shards before the gap (shard 0 only).
        base_result, _, _ = TestRetrySupervision().baseline(
            environment, detector, sites, tmp_path
        )
        prefix = [d.domain for d in result.detections]
        assert prefix == [d.domain for d in base_result.detections][: len(prefix)]
        assert 0 < len(prefix) < len(base_result.detections)

    def test_sink_retry_exhaustion_leaves_checkpoint_consistent(
        self, environment, detector, sites, tmp_path
    ):
        """A persistently failing parent-side sink aborts the crawl, but the
        checkpoint still records the completed-shard prefix, and a resume
        with a healthy sink finishes byte-identically."""
        _, base_storage, _ = TestRetrySupervision().baseline(
            environment, detector, sites, tmp_path
        )
        config = CrawlConfig(
            seed=2019, backend="process", workers=2, shard_oversubscribe=2,
            shard_retries=1, retry_backoff=0.0,
        )
        # Every write from the 7th onward fails, far beyond the write-level
        # retry budget: the crawl must abort with StorageError.
        plan = parse_fault_plan("sink@count=6x500")
        suffix_path = tmp_path / "exhausted.jsonl"
        storage = storage_for(suffix_path, format="jsonl")
        fingerprint = {"seed": config.seed, "sites": [p.domain for p in sites]}
        checkpoint_path = tmp_path / "exhausted.ckpt"
        recorder = CrawlCheckpointer.fresh(checkpoint_path, fingerprint)
        with pytest.raises(StorageError, match="injected sink write failure"):
            with CrawlEngine(environment, detector, config, fault_plan=plan) as engine:
                with storage.open_sink(flush_every=3) as sink:
                    engine.crawl(sites, crawl_day=0, sink=sink, checkpoint=recorder)

        checkpoint = CrawlCheckpoint.load(checkpoint_path)
        phase = checkpoint.phases[-1]
        assert not phase.done
        completed = phase.completed_shards
        assert completed == tuple(range(len(completed)))  # a contiguous prefix

        resumed = CrawlCheckpointer.resume(checkpoint_path, fingerprint, storage)
        with CrawlEngine(environment, detector, config) as engine:
            with storage.open_sink(append=True, flush_every=3) as sink:
                final = engine.crawl(sites, crawl_day=0, sink=sink, checkpoint=resumed)
        assert not final.degraded
        assert storage.path.read_bytes() == base_storage.path.read_bytes()

    def test_phase_progress_quarantine_is_backward_compatible(self):
        phase = PhaseProgress(
            crawl_day=0, plan_hash="abc", n_shards=2, completed_shards=(0,),
            n_detections=3, pages_visited=3, sessions_started=3,
            timed_out_domains=(),
        )
        data = phase.to_dict()
        assert data["quarantined"] == []
        del data["quarantined"]  # a checkpoint written before this field
        assert PhaseProgress.from_dict(data).quarantined == ()


# ---------------------------------------------------------------------------
# CLI surface


class TestCliFlags:
    def test_run_accepts_the_supervision_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run",
                "--shard-retries", "3",
                "--shard-timeout", "10",
                "--retry-backoff", "0.5",
                "--inject-faults", "seed=7,crash@p=0.2x4",
                "--fault-log", "faults.jsonl",
            ]
        )
        assert args.shard_retries == 3
        assert args.shard_timeout == 10.0
        assert args.retry_backoff == 0.5
        assert args.inject_faults == "seed=7,crash@p=0.2x4"
        assert args.fault_log == "faults.jsonl"

    def test_run_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run"])
        assert args.shard_retries == 2
        assert args.shard_timeout is None
        assert args.inject_faults is None

    def test_daemon_accepts_supervision_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["daemon", "--dir", "work", "--shard-retries", "1", "--shard-timeout", "30"]
        )
        assert args.shard_retries == 1
        assert args.shard_timeout == 30.0

    def test_rejected_values(self):
        from repro.cli import build_parser

        for argv in (
            ["run", "--shard-retries", "-1"],
            ["run", "--shard-timeout", "0"],
            ["run", "--retry-backoff", "-0.5"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# Daemon fault tolerance


def _daemon_config(**overrides):
    from repro.experiments.config import ExperimentConfig as _EC

    return _EC(total_sites=400, seed=7, historical_sites=120, **overrides)


class TestDaemonFaultTolerance:
    def test_degraded_tick_fails_without_recording_the_day(self, tmp_path):
        work = tmp_path / "work"
        degraded = daemon_mod.RecrawlDaemon(
            work,
            _daemon_config(shard_retries=0, fault_spec="raise@shard=0x9"),
            target_days=1,
        )
        report = degraded.tick()
        assert report.status == "failed"
        assert "quarantined" in report.error
        assert report.snapshot_days == []
        assert list(degraded.metrics_dir.glob("*.json")) == []
        assert degraded.recorded_state() == (0, False)  # started, never finished
        assert degraded.fault_log_path.exists()

        # A healthy daemon over the same workdir resumes the quarantined
        # shard from the checkpoint and records day 0 normally.
        healthy = daemon_mod.RecrawlDaemon(work, _daemon_config(), target_days=1)
        report = healthy.tick()
        assert report.status == "bootstrapped"
        assert report.day == 0
        assert report.snapshot_days == [0]
        assert (healthy.metrics_dir / "day-00000.json").exists()

    def test_run_survives_a_raising_tick_and_backs_off(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_mod, "FAILED_TICK_BACKOFF_BASE", 0.01)
        monkeypatch.setattr(daemon_mod, "FAILED_TICK_BACKOFF_CAP", 0.05)
        daemon = daemon_mod.RecrawlDaemon(
            tmp_path / "work", _daemon_config(), target_days=0
        )
        real_tick = daemon.tick
        calls = {"n": 0}

        def flaky_tick():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient tick explosion")
            return real_tick()

        monkeypatch.setattr(daemon, "tick", flaky_tick)
        reports = daemon.run(max_ticks=2)
        assert [r.status for r in reports] == ["failed", "bootstrapped"]
        assert "RuntimeError: transient tick explosion" in reports[0].error

    def test_read_alerts_tolerates_a_torn_final_line(self, tmp_path):
        daemon = daemon_mod.RecrawlDaemon(tmp_path / "work", _daemon_config())
        good = {"day": 1, "rule": "r", "value": 2.0}
        daemon.alert_log.write_bytes(
            json.dumps(good).encode() + b"\n" + b'{"day": 2, "ru\xff\xfe'
        )
        assert daemon.read_alerts() == [good]
        # A trailing complete-but-corrupt line is skipped, not fatal.
        daemon.alert_log.write_bytes(
            json.dumps(good).encode() + b"\n" + b"not json\n"
        )
        assert daemon.read_alerts() == [good]
        # No newline at all: nothing complete to report.
        daemon.alert_log.write_bytes(b'{"day": 1')
        assert daemon.read_alerts() == []


# ---------------------------------------------------------------------------
# Service: failed campaigns persist and resume over HTTP


class TestServiceFailedCampaigns:
    def test_quarantined_campaign_fails_resumably_over_http(self, tmp_path):
        from repro.service import ServiceClient, running_server

        with running_server(tmp_path / "service", max_parallel=2) as srv:
            client = ServiceClient(srv.base_url)
            submitted = client.submit(
                {
                    "sites": 400,
                    "days": 0,
                    "seed": 7,
                    "historical_sites": 120,
                    "shard_retries": 0,
                    "fault_spec": "raise@shard=0x9",
                }
            )
            failed = client.wait(submitted["id"], timeout=300)
            assert failed["state"] == "failed", failed
            assert "quarantined" in failed["error"]
            assert failed["resumable"] is True
            assert failed["supervision"]["quarantined"] >= 1

            campaign = srv.manager.get(submitted["id"])
            record = json.loads((campaign.workdir / "campaign.json").read_text())
            assert record["state"] == "failed"
            assert "quarantined" in record["error"]
            assert record["supervision"]["quarantined"] >= 1
            assert campaign.fault_log_path.exists()

            # POST resume re-queues a failed campaign; the spec re-fires, so
            # it fails again — proving the resume path accepts failed state.
            resumed = client.resume(submitted["id"])
            assert resumed["state"] in {"queued", "running"}
            assert client.wait(submitted["id"], timeout=300)["state"] == "failed"

            # Once the injected fault is gone the resume re-crawls only the
            # quarantined shard and the campaign completes.
            campaign.config = dataclasses.replace(campaign.config, fault_spec=None)
            client.resume(submitted["id"])
            done = client.wait(submitted["id"], timeout=300)
            assert done["state"] == "done", done
            assert done["error"] is None
            assert done["supervision"]["quarantined"] == 0
            record = json.loads((campaign.workdir / "campaign.json").read_text())
            assert record["state"] == "done"
            assert record["supervision"]["quarantined"] == 0
