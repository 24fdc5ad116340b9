"""Unit tests for experiment configuration and the end-to-end runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    ExperimentRunner,
    artifact_cache_size,
    clear_artifact_cache,
)


class TestExperimentConfig:
    def test_paper_scale_matches_campaign(self):
        config = ExperimentConfig.paper_scale()
        assert config.total_sites == 35_000
        assert config.recrawl_days == 34
        assert config.historical_sites == 1_000

    def test_presets_are_valid_and_ordered_by_size(self):
        assert ExperimentConfig.test_scale().total_sites < ExperimentConfig.bench_scale().total_sites
        assert ExperimentConfig.bench_scale().total_sites < ExperimentConfig.paper_scale().total_sites

    def test_population_config_inherits_scaling(self):
        config = ExperimentConfig(total_sites=3_500, seed=5)
        population_config = config.population_config()
        assert population_config.total_sites == 3_500
        assert population_config.seed == 5

    def test_with_helpers_return_new_configs(self):
        config = ExperimentConfig()
        assert config.with_sites(500).total_sites == 500
        assert config.with_seed(9).seed == 9
        assert config.total_sites != 500 or config.seed != 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(total_sites=5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(recrawl_days=-1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(detector_coverage=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(historical_years=())


class TestExperimentRunner:
    def test_artifacts_are_complete(self, experiment_artifacts):
        assert len(experiment_artifacts.population) == experiment_artifacts.config.total_sites
        assert len(experiment_artifacts.dataset) == experiment_artifacts.longitudinal.pages_visited
        summary = experiment_artifacts.summary
        assert summary["websites_crawled"] == experiment_artifacts.config.total_sites
        assert summary["websites_with_hb"] > 0
        assert summary["bids_detected"] > 0

    def test_cache_returns_same_artifacts(self):
        config = ExperimentConfig.test_scale()
        first = ExperimentRunner(config).run()
        second = ExperimentRunner(config).run()
        assert first is second

    def test_cache_can_be_bypassed_and_cleared(self):
        config = ExperimentConfig(total_sites=400, seed=123, recrawl_days=0, historical_sites=100)
        first = ExperimentRunner(config).run()
        uncached = ExperimentRunner(config).run(use_cache=False)
        assert first is not uncached
        assert first.summary == uncached.summary
        clear_artifact_cache()
        after_clear = ExperimentRunner(config).run()
        assert after_clear is not first

    def test_same_seed_reproduces_summary(self):
        config = ExperimentConfig(total_sites=400, seed=55, recrawl_days=0, historical_sites=100)
        a = ExperimentRunner(config).run(use_cache=False)
        b = ExperimentRunner(config).run(use_cache=False)
        assert a.summary == b.summary

    def test_different_seeds_differ(self):
        a = ExperimentRunner(ExperimentConfig(total_sites=400, seed=1, recrawl_days=0)).run(use_cache=False)
        b = ExperimentRunner(ExperimentConfig(total_sites=400, seed=2, recrawl_days=0)).run(use_cache=False)
        assert a.summary != b.summary

    def test_historical_run_covers_configured_years(self):
        config = ExperimentConfig.test_scale()
        historical = ExperimentRunner(config).run_historical()
        assert historical.years == tuple(sorted(config.historical_years))


class TestArtifactCacheBound:
    @pytest.fixture(autouse=True)
    def _isolate_cache(self):
        clear_artifact_cache()
        yield
        clear_artifact_cache()

    def test_cache_is_keyed_by_run_relevant_fields(self):
        base = ExperimentConfig(total_sites=400, seed=77, recrawl_days=0, historical_sites=100)
        first = ExperimentRunner(base).run()
        same = ExperimentRunner(ExperimentConfig(total_sites=400, seed=77, recrawl_days=0,
                                                 historical_sites=100)).run()
        assert first is same
        # The historical-study parameters are not consumed by run(): varying
        # them must hit the cache instead of re-simulating the crawl.
        historical_variant = ExperimentConfig(total_sites=400, seed=77, recrawl_days=0,
                                              historical_sites=200)
        assert ExperimentRunner(historical_variant).run() is first
        other = ExperimentRunner(base.with_seed(78)).run()
        assert other is not first
        assert artifact_cache_size() == 2

    def test_cache_never_exceeds_the_cap(self, monkeypatch):
        monkeypatch.setattr(runner_module, "ARTIFACT_CACHE_MAX_ENTRIES", 2)
        configs = [ExperimentConfig(total_sites=400, seed=200 + n, recrawl_days=0,
                                    historical_sites=100) for n in range(3)]
        for config in configs:
            ExperimentRunner(config).run()
            assert artifact_cache_size() <= 2

    def test_least_recently_used_run_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(runner_module, "ARTIFACT_CACHE_MAX_ENTRIES", 2)
        a, b, c = [ExperimentConfig(total_sites=400, seed=300 + n, recrawl_days=0,
                                    historical_sites=100) for n in range(3)]
        first_a = ExperimentRunner(a).run()
        ExperimentRunner(b).run()
        assert ExperimentRunner(a).run() is first_a  # refresh a: b is now LRU
        ExperimentRunner(c).run()                    # evicts b
        assert ExperimentRunner(a).run() is first_a
        assert artifact_cache_size() == 2


class TestParallelExperiments:
    def test_parallelism_knobs_validate(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(crawl_backend="gpu")

    def test_crawl_config_inherits_knobs(self):
        config = ExperimentConfig(seed=11, workers=6, crawl_backend="process")
        crawl_config = config.crawl_config()
        assert crawl_config.seed == 11
        assert crawl_config.workers == 6
        assert crawl_config.backend == "process"

    def test_with_parallelism_returns_new_config(self):
        config = ExperimentConfig().with_parallelism(4, "process")
        assert (config.workers, config.crawl_backend) == (4, "process")
        assert ExperimentConfig().workers == 1
        # The default backend is one that exists.
        assert ExperimentConfig().with_parallelism(3).crawl_backend == "process"

    def test_parallel_run_reproduces_serial_summary(self):
        serial = ExperimentConfig(total_sites=400, seed=321, recrawl_days=0,
                                  historical_sites=100)
        parallel = serial.with_parallelism(4)
        serial_artifacts = ExperimentRunner(serial).run(use_cache=False)
        parallel_artifacts = ExperimentRunner(parallel).run(use_cache=False)
        assert dict(serial_artifacts.summary) == dict(parallel_artifacts.summary)
        assert [d.domain for d in serial_artifacts.longitudinal.all_detections] == \
               [d.domain for d in parallel_artifacts.longitudinal.all_detections]

    def test_run_streams_to_storage(self, tmp_path):
        from repro.crawler.storage import CrawlStorage

        config = ExperimentConfig(total_sites=400, seed=321, recrawl_days=1,
                                  historical_sites=100, workers=2, crawl_backend="process")
        storage = CrawlStorage(tmp_path / "campaign.jsonl")
        artifacts = ExperimentRunner(config).run(storage=storage)
        assert storage.load() == artifacts.longitudinal.all_detections
