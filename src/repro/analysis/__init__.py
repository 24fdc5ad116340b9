"""Analysis of crawled header-bidding datasets.

Every figure and table in the paper's evaluation section maps to one
registered :class:`~repro.analysis.registry.Metric` in this package, computed
over a :class:`~repro.analysis.dataset.CrawlDataset` (a collection of
per-page detections with lazily-cached indices) through an
:class:`~repro.analysis.context.AnalysisContext`::

    from repro.analysis import AnalysisContext, CrawlDataset, compute_metric

    dataset = CrawlDataset.from_jsonl("crawl.jsonl")
    result = compute_metric("fig12", AnalysisContext.offline(dataset))
    print(result.text)

The underlying per-figure computation functions are importable from their
own modules (``repro.analysis.latency.total_latency_ecdf``, ...) for callers
that want raw data structures instead of the
:class:`~repro.analysis.registry.MetricResult` envelope.
"""

from repro.analysis.stats import Ecdf, WhiskerStats, ecdf, percentile, whisker_stats
from repro.analysis.dataset import CrawlDataset
from repro.analysis.context import AnalysisContext
from repro.analysis.registry import (
    FunctionMetric,
    Metric,
    MetricResult,
    available_metrics,
    compute_metric,
    get_metric,
    iter_metrics,
    metric_names,
    register_metric,
)
# Importing each metric module registers its metrics.
from repro.analysis import (
    adoption,
    adslots,
    comparison,
    facets,
    late_bids,
    latency,
    partners,
    prices,
    summary,
)
from repro.analysis.reporting import format_table, format_summary

__all__ = [
    "Ecdf",
    "WhiskerStats",
    "ecdf",
    "percentile",
    "whisker_stats",
    "CrawlDataset",
    "AnalysisContext",
    "Metric",
    "MetricResult",
    "FunctionMetric",
    "available_metrics",
    "compute_metric",
    "get_metric",
    "iter_metrics",
    "metric_names",
    "register_metric",
    "format_table",
    "format_summary",
]
