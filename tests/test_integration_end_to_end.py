"""Integration tests across the whole pipeline (ecosystem → crawl → analysis)."""

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import compute_metric
from repro.crawler.storage import CrawlStorage
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.models import HBFacet


class TestEndToEnd:
    def test_dataset_counts_are_internally_consistent(self, experiment_artifacts):
        dataset = experiment_artifacts.dataset
        summary = dataset.summary()
        assert summary["websites_with_hb"] == len(dataset.hb_sites())
        assert summary["auctions_detected"] == len(dataset.auctions())
        assert summary["bids_detected"] == len(dataset.bids())
        assert summary["page_visits"] == len(dataset)

    def test_detected_adoption_close_to_ground_truth(self, experiment_artifacts):
        detected = experiment_artifacts.dataset.summary()["adoption_rate"]
        actual = experiment_artifacts.population.adoption_rate()
        assert abs(detected - actual) < 0.02

    def test_detected_facet_mix_close_to_ground_truth(self, experiment_artifacts):
        from repro.analysis.facets import facet_breakdown

        detected = facet_breakdown(experiment_artifacts.dataset)
        truth_counts = experiment_artifacts.population.facet_counts()
        truth_total = sum(truth_counts.values())
        for facet in HBFacet:
            truth_share = truth_counts[facet] / truth_total
            assert abs(detected.get(facet, 0.0) - truth_share) < 0.12

    def test_dataset_survives_storage_round_trip(self, experiment_artifacts, tmp_path):
        storage = CrawlStorage(tmp_path / "dataset.jsonl")
        storage.save(experiment_artifacts.dataset.detections)
        reloaded = CrawlDataset.from_detections(storage.load())
        assert reloaded.summary() == experiment_artifacts.dataset.summary()
        # A figure computed from the reloaded dataset matches the original.
        from repro.analysis.partners import partner_popularity

        original = partner_popularity(experiment_artifacts.dataset, top_n=5)
        restored = partner_popularity(reloaded, top_n=5)
        assert [(r.partner, r.sites) for r in original] == [(r.partner, r.sites) for r in restored]

    def test_daily_recrawls_only_revisit_hb_sites(self, experiment_artifacts):
        dataset = experiment_artifacts.dataset
        day_zero_hb = {d.domain for d in dataset.detections if d.crawl_day == 0 and d.hb_detected}
        for detection in dataset.detections:
            if detection.crawl_day > 0:
                assert detection.domain in day_zero_hb

    def test_headline_results_hold_together(self, experiment_context):
        """The cross-cutting claims of the paper hold in one consistent run."""
        adoption = compute_metric("adoption", experiment_context).data
        assert 0.08 <= adoption["overall"] <= 0.25

        facet = compute_metric("facet", experiment_context).data["breakdown"]
        assert facet[HBFacet.SERVER_SIDE] > facet[HBFacet.CLIENT_SIDE]

        top_partners = compute_metric("fig08", experiment_context).data["rows"]
        assert top_partners[0].partner == "DFP"

        latency = compute_metric("fig12", experiment_context).data
        waterfall = compute_metric("waterfall", experiment_context).data["comparison"]
        assert latency["median_ms"] > waterfall.waterfall.median

    def test_smaller_experiment_runs_from_scratch(self):
        config = ExperimentConfig(total_sites=300, seed=77, recrawl_days=0, historical_sites=100,
                                  historical_years=(2019,))
        artifacts = ExperimentRunner(config).run()
        assert artifacts.summary["websites_crawled"] == 300
        accuracy = compute_metric("accuracy", AnalysisContext.from_artifacts(artifacts)).data["metrics"]
        assert accuracy["precision"] == 1.0
