"""Paper-shape checks of every table and figure, computed through the metric registry."""

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.registry import MetricResult, compute_metric
from repro.experiments.runner import ExperimentRunner
from repro.models import HBFacet


class TestTables:
    def test_table1_summary_text_and_numbers(self, experiment_context):
        result = compute_metric("table1", experiment_context)
        assert "Table 1" in result.text
        assert result.data["summary"]["websites_with_hb"] <= result.data["summary"]["websites_crawled"]

    def test_adoption_by_rank_rows(self, experiment_context):
        result = compute_metric("adoption", experiment_context).data
        assert 0.05 < result["overall"] < 0.30
        assert len(result["tiers"]) == 3

    def test_detector_accuracy_reports_perfect_precision(self, experiment_context):
        metrics = compute_metric("accuracy", experiment_context).data["metrics"]
        assert metrics["precision"] == pytest.approx(1.0)
        assert metrics["recall"] > 0.9
        assert metrics["facet_accuracy"] > 0.8


class TestFigures:
    def test_every_figure_entry_point_produces_text(self, experiment_context):
        names = [f"fig{n:02d}" for n in range(8, 25)] + ["facet"]
        for name in names:
            result = compute_metric(name, experiment_context)
            assert isinstance(result, MetricResult)
            assert result.text.strip(), name

    def test_figure04_uses_historical_static_analysis(self, experiment_artifacts):
        historical = ExperimentRunner(experiment_artifacts.config).run_historical()
        rows = compute_metric("fig04", AnalysisContext(historical=historical)).data["rows"]
        years = [int(row["year"]) for row in rows]
        assert years == sorted(years)
        assert rows[0]["adoption_rate"] <= rows[-1]["adoption_rate"] + 0.05

    def test_figure08_top_partner_is_dfp(self, experiment_context):
        rows = compute_metric("fig08", experiment_context).data["rows"]
        assert rows[0].partner == "DFP"
        assert rows[0].share_of_hb_sites > 0.6

    def test_figure09_shares_follow_paper_shape(self, experiment_context):
        result = compute_metric("fig09", experiment_context).data
        assert result["share_one_partner"] > 0.35
        assert result["share_five_or_more"] < 0.5

    def test_figure12_median_close_to_paper(self, experiment_context):
        result = compute_metric("fig12", experiment_context).data
        assert 200.0 < result["median_ms"] < 1_500.0
        assert 0.0 <= result["share_above_3s"] <= 0.35

    def test_figure15_latency_increases_with_partners(self, experiment_context):
        rows = compute_metric("fig15", experiment_context).data["rows"]
        single = next(stats.median for count, stats, _ in rows if count == 1)
        several = [stats.median for count, stats, _ in rows if count >= 2]
        assert several and max(several) > single

    def test_facet_breakdown_server_side_leads(self, experiment_context):
        breakdown = compute_metric("facet", experiment_context).data["breakdown"]
        assert breakdown[HBFacet.SERVER_SIDE] == max(breakdown.values())

    def test_waterfall_latency_comparison_ratio(self, experiment_context):
        comparison = compute_metric("waterfall", experiment_context).data["comparison"]
        assert comparison.median_ratio > 1.0

    def test_waterfall_price_comparison_real_users_pay_more(self, experiment_context):
        comparison = compute_metric("prices", experiment_context).data["comparison"]
        assert comparison.real_user_median_ratio > 1.0
