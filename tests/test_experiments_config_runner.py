"""Unit tests for experiment configuration and the end-to-end runner."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner


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

    def test_replace_returns_a_new_validated_config(self):
        config = ExperimentConfig()
        changed = replace(config, total_sites=500, seed=9)
        assert (changed.total_sites, changed.seed) == (500, 9)
        assert config.total_sites != 500 or config.seed != 9
        with pytest.raises(ConfigurationError):
            replace(config, total_sites=5)

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

    def test_same_seed_reproduces_summary(self):
        config = ExperimentConfig(total_sites=400, seed=55, recrawl_days=0, historical_sites=100)
        a = ExperimentRunner(config).run()
        b = ExperimentRunner(config).run()
        assert a.summary == b.summary

    def test_each_run_builds_its_own_artifacts(self):
        config = ExperimentConfig(total_sites=400, seed=123, recrawl_days=0, historical_sites=100)
        first = ExperimentRunner(config).run()
        second = ExperimentRunner(config).run()
        assert first is not second
        assert first.dataset is not second.dataset
        assert first.summary == second.summary

    def test_different_seeds_differ(self):
        a = ExperimentRunner(ExperimentConfig(total_sites=400, seed=1, recrawl_days=0)).run()
        b = ExperimentRunner(ExperimentConfig(total_sites=400, seed=2, recrawl_days=0)).run()
        assert a.summary != b.summary

    def test_historical_run_covers_configured_years(self):
        config = ExperimentConfig.test_scale()
        historical = ExperimentRunner(config).run_historical()
        assert historical.years == tuple(sorted(config.historical_years))


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

    def test_parallel_run_reproduces_serial_summary(self):
        serial = ExperimentConfig(total_sites=400, seed=321, recrawl_days=0,
                                  historical_sites=100)
        parallel = replace(serial, workers=4, crawl_backend="process")
        serial_artifacts = ExperimentRunner(serial).run()
        parallel_artifacts = ExperimentRunner(parallel).run()
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
