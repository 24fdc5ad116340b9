"""Unit tests for the sharded crawl engine and its execution backends."""

import json

import pytest

from repro.crawler.crawler import CrawlConfig, Crawler, CrawlResult
from repro.crawler.engine import (
    BACKEND_NAMES,
    CrawlEngine,
    CrawlPlan,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_name,
)
from repro.crawler.scheduler import LongitudinalScheduler
from repro.crawler.storage import CrawlStorage, detection_to_dict
from repro.detector.detector import HBDetector
from repro.detector.records import SiteDetection
from repro.errors import ConfigurationError


#: The execution backend this codebase no longer ships.
REMOVED_BACKEND = "thread"


def serialise(detections):
    return json.dumps([detection_to_dict(d) for d in detections])


class TestCrawlPlan:
    def test_single_worker_is_one_shard(self, small_population):
        sites = list(small_population)[:10]
        plan = CrawlPlan.build(sites, workers=1, seed=3)
        assert len(plan.shards) == 1
        assert plan.shards[0].publishers == tuple(sites)
        assert plan.n_sites == 10

    def test_shards_are_contiguous_and_balanced(self, small_population):
        sites = list(small_population)[:11]
        plan = CrawlPlan.build(sites, workers=3, seed=3)
        assert [len(shard) for shard in plan.shards] == [4, 4, 3]
        assert [shard.start for shard in plan.shards] == [0, 4, 8]
        assert plan.site_order == tuple(p.domain for p in sites)

    def test_plan_is_deterministic(self, small_population):
        sites = list(small_population)[:20]
        assert CrawlPlan.build(sites, workers=4, seed=9) == CrawlPlan.build(
            sites, workers=4, seed=9
        )

    def test_shard_seeds_derive_from_seed_and_index(self, small_population):
        sites = list(small_population)[:20]
        plan = CrawlPlan.build(sites, workers=4, seed=9)
        seeds = [shard.shard_seed for shard in plan.shards]
        assert len(set(seeds)) == len(seeds)
        assert seeds != [s.shard_seed for s in CrawlPlan.build(sites, workers=4, seed=10).shards]

    def test_more_workers_than_sites(self, small_population):
        sites = list(small_population)[:3]
        plan = CrawlPlan.build(sites, workers=8, seed=3)
        assert len(plan.shards) == 3
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_empty_site_list(self):
        plan = CrawlPlan.build([], workers=4, seed=3)
        assert plan.n_sites == 0
        assert len(plan.shards) == 1
        assert plan.shards[0].publishers == ()

    def test_workers_must_be_positive(self, small_population):
        with pytest.raises(ConfigurationError):
            CrawlPlan.build(list(small_population)[:4], workers=0, seed=3)


class TestCrawlResultMerge:
    @staticmethod
    def result(*domains, timed_out=(), sessions=1):
        detections = [SiteDetection(domain=d, rank=1, hb_detected=False) for d in domains]
        return CrawlResult(
            detections=detections,
            timed_out_domains=list(timed_out),
            pages_visited=len(detections),
            sessions_started=sessions,
        )

    def test_merge_preserves_order_and_sums_counters(self):
        merged = self.result("a", "b", sessions=2).merge(self.result("c", timed_out=["c"]))
        assert [d.domain for d in merged.detections] == ["a", "b", "c"]
        assert merged.timed_out_domains == ["c"]
        assert merged.pages_visited == 3
        assert merged.sessions_started == 3

    def test_merge_does_not_mutate_inputs(self):
        left, right = self.result("a"), self.result("b")
        left.merge(right)
        assert [d.domain for d in left.detections] == ["a"]
        assert [d.domain for d in right.detections] == ["b"]

    def test_merged_equals_left_fold(self):
        parts = [self.result("a"), self.result("b", "c"), self.result("d")]
        merged = CrawlResult.merged(parts)
        folded = parts[0].merge(parts[1]).merge(parts[2])
        assert merged.detections == folded.detections
        assert [d.domain for d in merged.detections] == ["a", "b", "c", "d"]

    def test_merged_is_order_deterministic(self):
        parts = [self.result("a"), self.result("b")]
        assert [d.domain for d in CrawlResult.merged(parts).detections] == ["a", "b"]
        assert [d.domain for d in CrawlResult.merged(reversed(parts)).detections] == ["b", "a"]

    def test_merged_of_nothing_is_empty(self):
        merged = CrawlResult.merged([])
        assert merged.detections == []
        assert merged.pages_visited == 0


class TestBackendFactory:
    def test_names_round_trip(self):
        assert backend_from_name("serial").name == "serial"
        assert backend_from_name("process", workers=2).name == "process"
        assert BACKEND_NAMES == ("serial", "process")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            backend_from_name("gpu")

    def test_pool_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(max_workers=0)

    def test_removed_thread_backend_is_rejected(self):
        with pytest.raises(ConfigurationError, match="serial, process"):
            CrawlConfig(backend=REMOVED_BACKEND)
        with pytest.raises(ConfigurationError):
            backend_from_name(REMOVED_BACKEND, workers=2)

    def test_config_validates_knobs(self):
        with pytest.raises(ConfigurationError):
            CrawlConfig(workers=0)
        with pytest.raises(ConfigurationError):
            CrawlConfig(backend="gpu")


class TestBackendEquivalence:
    """The acceptance criterion: identical detections for any worker count."""

    @pytest.fixture(scope="class")
    def sites(self, small_population):
        return list(small_population)[:48]

    @pytest.fixture(scope="class")
    def serial_result(self, environment, detector, sites):
        engine = CrawlEngine(environment, detector, CrawlConfig(seed=5))
        return engine.crawl(sites)

    @pytest.mark.parametrize("fast_path", [True, False], ids=["columnar", "reference"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_byte_for_byte(
        self, environment, detector, sites, serial_result, workers, fast_path
    ):
        """Either simulator on the process pool reproduces the serial crawl."""
        with CrawlEngine(
            environment,
            detector,
            CrawlConfig(seed=5, workers=workers, backend="process", fast_path=fast_path),
        ) as engine:
            result = engine.crawl(sites)
        assert serialise(result.detections) == serialise(serial_result.detections)
        assert result.timed_out_domains == serial_result.timed_out_domains
        assert result.pages_visited == serial_result.pages_visited

    def test_explicit_backend_instance_overrides_config(self, environment, detector, sites, serial_result):
        with CrawlEngine(
            environment,
            detector,
            CrawlConfig(seed=5, workers=3),
            backend=ProcessPoolBackend(),
        ) as engine:
            assert engine.backend.name == "process"
            result = engine.crawl(sites)
        assert serialise(result.detections) == serialise(serial_result.detections)

    def test_timeouts_identical_across_backends(self, environment, detector, sites):
        config = CrawlConfig(seed=5, page_load_timeout_ms=10.0)
        serial = CrawlEngine(environment, detector, config).crawl(sites)
        with CrawlEngine(
            environment,
            detector,
            CrawlConfig(seed=5, page_load_timeout_ms=10.0, workers=4, backend="process"),
        ) as engine:
            parallel = engine.crawl(sites)
        assert serial.timed_out_domains == parallel.timed_out_domains == [p.domain for p in sites]
        assert serialise(serial.detections) == serialise(parallel.detections)


class TestStreamingAndProgress:
    def test_progress_is_called_in_canonical_order(self, environment, detector, small_population):
        sites = list(small_population)[:12]
        seen = []
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=4, backend="process")
        ) as engine:
            engine.crawl(sites, progress=lambda i, n, d: seen.append((i, n, d.domain)))
        assert [entry[0] for entry in seen] == list(range(1, 13))
        assert all(entry[1] == 12 for entry in seen)
        assert [entry[2] for entry in seen] == [p.domain for p in sites]

    def test_sink_receives_detections_in_canonical_order(
        self, environment, detector, small_population, tmp_path
    ):
        sites = list(small_population)[:12]
        storage = CrawlStorage(tmp_path / "stream.jsonl")
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=3, backend="process")
        ) as engine, storage.open_sink() as sink:
            result = engine.crawl(sites, sink=sink)
        assert sink.count == len(sites)
        assert storage.load() == result.detections

    def test_streamed_bytes_equal_buffered_bytes(
        self, environment, detector, small_population, tmp_path
    ):
        sites = list(small_population)[:12]
        streamed = CrawlStorage(tmp_path / "streamed.jsonl")
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=3, backend="process")
        ) as engine, streamed.open_sink() as sink:
            result = engine.crawl(sites, sink=sink)
        buffered = CrawlStorage(tmp_path / "buffered.jsonl")
        buffered.save(result.detections)
        assert streamed.path.read_bytes() == buffered.path.read_bytes()


class TestSessionAccounting:
    """The crawl never spawns a replacement session after the final site."""

    def test_one_session_per_page_exactly(self, environment, detector, small_population):
        crawler = Crawler(environment, detector, CrawlConfig(seed=5))
        result = crawler.crawl(list(small_population)[:10])
        assert result.pages_visited == 10
        assert result.sessions_started == 10

    def test_final_timeout_spawns_no_replacement(self, environment, detector, small_population):
        crawler = Crawler(
            environment, detector, CrawlConfig(seed=5, page_load_timeout_ms=10.0)
        )
        result = crawler.crawl(list(small_population)[:15])
        assert len(result.timed_out_domains) == 15
        assert result.sessions_started == 15

    def test_restart_every_pages_batches_sessions(self, environment, detector, small_population):
        crawler = Crawler(environment, detector, CrawlConfig(seed=5, restart_every_pages=3))
        result = crawler.crawl(list(small_population)[:10])
        if result.timed_out_domains:
            pytest.skip("timeouts would perturb the batch arithmetic")
        assert result.sessions_started == 4  # pages 1-3, 4-6, 7-9, 10

    def test_empty_crawl_starts_no_session(self, environment, detector):
        crawler = Crawler(environment, detector, CrawlConfig(seed=5))
        result = crawler.crawl([])
        assert result.sessions_started == 0
        assert result.pages_visited == 0


class TestWorkerReuse:
    """Workers build their environment/detector once, not once per shard."""

    class CountingDetector(HBDetector):
        def __init__(self, known):
            super().__init__(known)
            self.resets = 0

        def reset(self):
            self.resets += 1
            super().reset()

    @pytest.fixture()
    def counting_detector(self, detector):
        return self.CountingDetector(detector.known_partners)

    def test_serial_backend_resets_shared_detector_per_shard(
        self, environment, counting_detector, small_population
    ):
        engine = CrawlEngine(environment, counting_detector, CrawlConfig(seed=5))
        engine.crawl(list(small_population)[:6])
        assert counting_detector.resets == 1  # one shard on the serial path

    def test_pool_persists_across_crawls_and_close_releases_it(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:12]
        engine = CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=2, backend="process")
        )
        first = engine.crawl(sites)
        pool = engine.backend._executor
        assert pool is not None
        second = engine.crawl(sites, crawl_day=1)
        assert engine.backend._executor is pool  # reused, not rebuilt
        engine.close()
        assert engine.backend._executor is None
        # The engine is reusable after close(): a fresh pool spins up lazily.
        third = engine.crawl(sites)
        assert serialise(third.detections) == serialise(first.detections)
        assert second.pages_visited == len(sites)
        engine.close()

    def test_process_pool_reuse_stays_byte_identical_across_days(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:16]
        serial_engine = CrawlEngine(environment, detector, CrawlConfig(seed=5))
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=4, backend="process")
        ) as engine:
            for day in (0, 1, 2):  # same worker processes serve all three days
                expected = serial_engine.crawl(sites, crawl_day=day)
                result = engine.crawl(sites, crawl_day=day)
                assert serialise(result.detections) == serialise(expected.detections)

    def test_live_pool_refuses_a_different_detector(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:8]
        backend = ProcessPoolBackend(max_workers=2)
        with backend:
            CrawlEngine(
                environment, detector, CrawlConfig(seed=5, workers=2), backend=backend
            ).crawl(sites)
            other = CrawlEngine(
                environment,
                HBDetector(detector.known_partners),
                CrawlConfig(seed=5, workers=2),
                backend=backend,
            )
            with pytest.raises(ConfigurationError):
                other.crawl(sites)

    def test_live_pool_refuses_a_different_config(
        self, environment, detector, small_population
    ):
        """Workers bake the config into their context at pool start; a second
        engine with another seed must not silently crawl with the old one."""
        sites = list(small_population)[:8]
        backend = ProcessPoolBackend(max_workers=2)
        with backend:
            CrawlEngine(
                environment, detector, CrawlConfig(seed=5, workers=2), backend=backend
            ).crawl(sites)
            other = CrawlEngine(
                environment, detector, CrawlConfig(seed=9, workers=2), backend=backend
            )
            with pytest.raises(ConfigurationError):
                other.crawl(sites)

    def test_pool_grows_when_a_larger_crawl_arrives(
        self, environment, detector, small_population
    ):
        """A small warm-up crawl must not cap parallelism for later crawls."""
        sites = list(small_population)[:40]
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=4, backend="process")
        ) as engine:
            engine.crawl(sites[:2])  # 2 shards -> pool of 2
            assert engine.backend._pool_size == 2
            result = engine.crawl(sites)  # 16 shards -> pool rebuilt at 4
            assert engine.backend._pool_size == 4
        serial = CrawlEngine(environment, detector, CrawlConfig(seed=5)).crawl(sites)
        assert serialise(result.detections) == serialise(serial.detections)


class TestShardBoundaryFlush:
    class RecordingSink:
        def __init__(self):
            self.events = []

        def write(self, detection):
            self.events.append("write")

        def flush(self):
            self.events.append("flush")

    @pytest.mark.parametrize(
        "backend_name,workers", [("serial", 1), ("process", 2), ("process", 3)]
    )
    def test_sink_flushed_at_every_shard_boundary(
        self, environment, detector, small_population, backend_name, workers
    ):
        sites = list(small_population)[:12]
        sink = self.RecordingSink()
        with CrawlEngine(
            environment,
            detector,
            CrawlConfig(seed=5, workers=workers, backend=backend_name),
        ) as engine:
            n_shards = len(engine.plan(sites).shards)
            engine.crawl(sites, sink=sink)
        assert sink.events.count("write") == len(sites)
        flushes = sink.events.count("flush")
        assert 1 <= flushes <= n_shards
        assert sink.events[-1] == "flush"  # the final boundary flush

    def test_sinks_without_flush_are_supported(self, environment, detector, small_population):
        class BareSink:
            def __init__(self):
                self.count = 0

            def write(self, detection):
                self.count += 1

        sink = BareSink()
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=5, workers=2, backend="process")
        ) as engine:
            engine.crawl(list(small_population)[:6], sink=sink)
        assert sink.count == 6


class TestFacadeAndScheduler:
    def test_crawler_facade_delegates_to_engine(self, environment, detector, small_population):
        crawler = Crawler(environment, detector, CrawlConfig(seed=5))
        assert isinstance(crawler.engine, CrawlEngine)
        assert isinstance(crawler.engine.backend, SerialBackend)
        direct = crawler.engine.crawl(list(small_population)[:8])
        via_facade = crawler.crawl(list(small_population)[:8])
        assert serialise(direct.detections) == serialise(via_facade.detections)

    def test_scheduler_accepts_engine_and_streams(
        self, environment, detector, small_population, tmp_path
    ):
        storage = CrawlStorage(tmp_path / "longitudinal.jsonl")
        domains = small_population.domains[:30]
        with CrawlEngine(
            environment, detector, CrawlConfig(seed=9, workers=2, backend="process")
        ) as engine, storage.open_sink() as sink:
            scheduler = LongitudinalScheduler(engine, recrawl_days=1)
            longitudinal = scheduler.run(small_population, domains=domains, sink=sink)
        assert storage.load() == longitudinal.all_detections

    def test_parallel_scheduler_matches_serial(self, environment, detector, small_population):
        domains = small_population.domains[:30]
        serial = LongitudinalScheduler(
            Crawler(environment, detector, CrawlConfig(seed=9)), recrawl_days=1
        ).run(small_population, domains=domains)
        parallel = LongitudinalScheduler(
            CrawlEngine(environment, detector, CrawlConfig(seed=9, workers=4, backend="process")),
            recrawl_days=1,
        ).run(small_population, domains=domains)
        assert serialise(serial.all_detections) == serialise(parallel.all_detections)

    def test_serial_backend_streams_page_by_page(
        self, environment, detector, small_population, monkeypatch
    ):
        """With the default serial backend the sink is fed after every page
        load, not in one burst once the whole crawl has finished."""
        import repro.crawler.engine as engine_mod

        events = []

        class SpySession(engine_mod.CrawlSession):
            def load(self, publisher, *, visit_index=0):
                events.append(("load", publisher.domain))
                return super().load(publisher, visit_index=visit_index)

        monkeypatch.setattr(engine_mod, "CrawlSession", SpySession)

        class ListSink:
            def write(self, detection):
                events.append(("write", detection.domain))

        sites = list(small_population)[:4]
        # fast_path=False: the session spy observes the per-page reference
        # loop.  The columnar path never builds sessions; its page-granular
        # streaming is asserted separately below.
        engine = CrawlEngine(environment, detector, CrawlConfig(seed=5, fast_path=False))
        engine.crawl(sites, sink=ListSink())
        expected = []
        for publisher in sites:
            expected += [("load", publisher.domain), ("write", publisher.domain)]
        assert events == expected

    def test_serial_columnar_streams_page_by_page(
        self, environment, detector, small_population
    ):
        """The columnar shard simulator fires on_detection after every page,
        so a serial sink still sees one write per site, in site order."""
        writes = []

        class ListSink:
            def write(self, detection):
                writes.append(detection.domain)

        sites = list(small_population)[:4]
        engine = CrawlEngine(environment, detector, CrawlConfig(seed=5))
        engine.crawl(sites, sink=ListSink())
        assert writes == [publisher.domain for publisher in sites]
