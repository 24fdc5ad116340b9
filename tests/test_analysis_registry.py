"""Unit tests for the metric registry and the analysis context."""

import pytest

from repro.analysis import (
    AnalysisContext,
    CrawlDataset,
    FunctionMetric,
    MetricResult,
    available_metrics,
    compute_metric,
    get_metric,
    iter_metrics,
    metric_names,
)
from repro.analysis.registry import register
from repro.errors import MetricContextError, UnknownMetricError

#: Every artefact name the pre-registry CLI exposed, which must keep resolving.
LEGACY_ARTIFACT_NAMES = {
    "table1", "adoption", "accuracy", "facet",
    "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
    "fig24", "waterfall", "prices",
}


class TestRegistryContents:
    def test_every_legacy_artifact_is_registered(self):
        assert LEGACY_ARTIFACT_NAMES <= set(metric_names())

    def test_metrics_carry_paper_references(self):
        for metric in iter_metrics():
            assert metric.title, metric.name
            assert metric.ref, metric.name

    def test_unknown_metric_raises(self):
        with pytest.raises(UnknownMetricError):
            get_metric("fig99")

    def test_registration_is_idempotent_last_wins(self):
        marker = FunctionMetric(
            name="_test_metric", title="t", ref="r",
            fn=lambda context: {"text": "one"},
        )
        register(marker)
        replacement = FunctionMetric(
            name="_test_metric", title="t2", ref="r",
            fn=lambda context: {"text": "two"},
        )
        register(replacement)
        assert get_metric("_test_metric").title == "t2"


class TestContext:
    def test_from_artifacts_provides_everything_but_historical(self, experiment_artifacts):
        context = AnalysisContext.from_artifacts(experiment_artifacts)
        assert context.provides() == {"dataset", "population", "environment", "config"}
        assert context.total_sites == experiment_artifacts.config.total_sites
        assert context.seed == experiment_artifacts.config.seed

    def test_offline_context_provides_dataset_only(self, dataset):
        context = AnalysisContext.offline(dataset)
        assert context.provides() == {"dataset"}
        assert context.seed == 2019

    def test_offline_total_sites_recovered_from_dataset(self, experiment_artifacts):
        offline = AnalysisContext.offline(experiment_artifacts.dataset)
        assert offline.total_sites == experiment_artifacts.config.total_sites

    def test_missing_requirement_raises(self, dataset):
        with pytest.raises(MetricContextError) as excinfo:
            compute_metric("accuracy", AnalysisContext.offline(dataset))
        assert "population" in str(excinfo.value)

    def test_available_metrics_filters_by_context(self, experiment_artifacts):
        offline = set(available_metrics(AnalysisContext.offline(experiment_artifacts.dataset)))
        full = set(available_metrics(AnalysisContext.from_artifacts(experiment_artifacts)))
        assert "table1" in offline and "fig12" in offline
        assert {"accuracy", "waterfall", "prices", "fig04"}.isdisjoint(offline)
        assert offline < full
        assert {"accuracy", "waterfall", "prices"} <= full


class TestComputation:
    def test_result_envelope_fields(self, experiment_artifacts):
        result = compute_metric("fig12", AnalysisContext.from_artifacts(experiment_artifacts))
        assert isinstance(result, MetricResult)
        assert result.name == "fig12"
        assert result.render.get("kind") == "ecdf"
        assert result.text.startswith("Figure 12")
        assert "median_ms" in result.data
        assert "text" not in result.data

    def test_param_overrides_are_recorded(self, experiment_artifacts):
        context = AnalysisContext.from_artifacts(experiment_artifacts)
        result = compute_metric("fig08", context, top_n=3)
        assert result.params == {"top_n": 3}
        assert len(result.data["rows"]) <= 3

    def test_registry_matches_the_registered_table_functions(self, experiment_context):
        from repro.analysis.adoption import adoption_by_rank_result
        from repro.analysis.summary import table1_summary_result

        for name, fn in (("table1", table1_summary_result), ("adoption", adoption_by_rank_result)):
            direct = dict(fn(experiment_context))
            result = compute_metric(name, experiment_context)
            assert result.text == direct.pop("text")
            assert result.data == direct

    def test_registry_matches_the_registered_figure_functions(self, experiment_context):
        from repro.analysis.facets import facet_breakdown_result
        from repro.analysis.partners import top_partners_result

        direct = dict(top_partners_result(experiment_context, top_n=11))
        result = compute_metric("fig08", experiment_context)
        assert result.params == {"top_n": 11}
        assert result.text == direct.pop("text")
        assert result.data == direct
        direct = dict(facet_breakdown_result(experiment_context))
        result = compute_metric("facet", experiment_context)
        assert result.text == direct.pop("text")
        assert result.data == direct

    def test_offline_and_in_memory_paths_agree(self, experiment_artifacts):
        offline = AnalysisContext.offline(experiment_artifacts.dataset)
        full = AnalysisContext.from_artifacts(experiment_artifacts)
        for name in ("table1", "adoption", "facet", "fig12", "fig13"):
            assert compute_metric(name, offline).text == compute_metric(name, full).text

    def test_empty_dataset_still_raises_analysis_errors(self):
        from repro.errors import EmptyDatasetError

        with pytest.raises(EmptyDatasetError):
            compute_metric("table1", AnalysisContext.offline(CrawlDataset()))
