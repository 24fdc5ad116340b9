"""Header-bidding latency analysis (§5.2, Figures 12-16).

Latency is measured from different vantage points: the page-level HB latency
(first bid request to ad-server response), its relation to the site's ranking
and to the number of partners used, and the per-partner response latencies
that identify the fastest, slowest and most consistent demand partners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import register_metric
from repro.analysis.reporting import format_ecdf, format_table, format_whisker_rows
from repro.analysis.stats import Ecdf, WhiskerStats, ecdf, whisker_stats
from repro.errors import EmptyDatasetError

__all__ = [
    "PartnerLatencyProfile",
    "total_latency_ecdf",
    "latency_by_rank_bin",
    "partner_latency_profiles",
    "fastest_partners",
    "slowest_partners",
    "latency_by_partner_count",
    "latency_by_popularity_rank",
    "latency_ecdf_result",
    "latency_vs_rank_result",
    "partner_latency_result",
    "latency_vs_partner_count_result",
    "latency_vs_popularity_result",
]


def _site_latency_values(dataset: CrawlDataset) -> list[float]:
    values = dataset.hb_latency_values()
    if not values:
        raise EmptyDatasetError("no HB latency observations in the dataset")
    return values


def total_latency_ecdf(dataset: CrawlDataset) -> Ecdf:
    """Figure 12: ECDF of the total HB latency per page visit."""
    return ecdf(_site_latency_values(dataset))


def latency_by_rank_bin(dataset: CrawlDataset, *, bin_size: int = 500) -> list[tuple[str, WhiskerStats]]:
    """Figure 13: HB latency grouped by Alexa-rank bins.

    Returns ``(bin label, whisker statistics)`` rows ordered by rank.
    """
    if bin_size < 1:
        raise ValueError("bin size must be positive")
    grouped = dataset.hb_latencies_by_rank_bin(bin_size)
    if not grouped:
        raise EmptyDatasetError("no HB latency observations in the dataset")
    rows = []
    for bin_index in sorted(grouped):
        low = bin_index * bin_size + 1
        high = (bin_index + 1) * bin_size
        rows.append((f"{low}-{high}", whisker_stats(grouped[bin_index])))
    return rows


@dataclass(frozen=True)
class PartnerLatencyProfile:
    """Latency summary of one demand partner across all its observations."""

    partner: str
    stats: WhiskerStats
    popularity_rank: int

    @property
    def median_ms(self) -> float:
        return self.stats.median


def partner_latency_profiles(dataset: CrawlDataset, *, min_samples: int = 3) -> list[PartnerLatencyProfile]:
    """Per-partner latency profiles, ordered by market popularity.

    Partners with fewer than ``min_samples`` latency observations are dropped,
    as single samples make the fastest/slowest rankings meaningless.
    """
    samples = dataset.partner_latency_samples()
    ranking = dataset.partner_popularity_ranking()
    rank_of = {name: index + 1 for index, name in enumerate(ranking)}
    profiles = []
    for partner, values in samples.items():
        if len(values) < min_samples:
            continue
        profiles.append(
            PartnerLatencyProfile(
                partner=partner,
                stats=whisker_stats(values),
                popularity_rank=rank_of.get(partner, len(ranking) + 1),
            )
        )
    if not profiles:
        raise EmptyDatasetError("no partner latency observations in the dataset")
    profiles.sort(key=lambda profile: profile.popularity_rank)
    return profiles


def fastest_partners(dataset: CrawlDataset, *, top_n: int = 10, min_samples: int = 3) -> list[PartnerLatencyProfile]:
    """Figure 14 (left group): the partners with the lowest median latency."""
    profiles = partner_latency_profiles(dataset, min_samples=min_samples)
    return sorted(profiles, key=lambda profile: profile.median_ms)[:top_n]


def slowest_partners(dataset: CrawlDataset, *, top_n: int = 10, min_samples: int = 3) -> list[PartnerLatencyProfile]:
    """Figure 14 (right group): the partners with the highest median latency."""
    profiles = partner_latency_profiles(dataset, min_samples=min_samples)
    return sorted(profiles, key=lambda profile: profile.median_ms, reverse=True)[:top_n]


def latency_by_partner_count(dataset: CrawlDataset, *, max_count: int = 15) -> list[tuple[int, WhiskerStats, float]]:
    """Figure 15: latency and share of sites vs. the number of partners used.

    Returns ``(partner count, latency whiskers, share of HB sites)`` rows.
    """
    per_site_counts: dict[str, int] = {}
    for site in dataset.hb_sites():
        per_site_counts[site.domain] = site.n_partners
    grouped: dict[int, list[float]] = {}
    for detection in dataset.hb_detections():
        if detection.total_latency_ms is None or detection.total_latency_ms <= 0:
            continue
        count = min(per_site_counts.get(detection.domain, detection.n_partners), max_count)
        if count < 1:
            continue
        grouped.setdefault(count, []).append(detection.total_latency_ms)
    if not grouped:
        raise EmptyDatasetError("no HB latency observations in the dataset")
    total_sites = len(per_site_counts) or 1
    site_share = {
        count: sum(1 for value in per_site_counts.values() if min(value, max_count) == count) / total_sites
        for count in grouped
    }
    return [
        (count, whisker_stats(values), site_share.get(count, 0.0))
        for count, values in sorted(grouped.items())
    ]


def latency_by_popularity_rank(dataset: CrawlDataset, *, bin_size: int = 10) -> list[tuple[str, WhiskerStats]]:
    """Figure 16: partner latency distributions grouped by popularity rank."""
    if bin_size < 1:
        raise ValueError("bin size must be positive")
    profiles = partner_latency_profiles(dataset, min_samples=1)
    samples = dataset.partner_latency_samples()
    grouped: dict[int, list[float]] = {}
    for profile in profiles:
        bin_index = (profile.popularity_rank - 1) // bin_size
        grouped.setdefault(bin_index, []).extend(samples.get(profile.partner, []))
    rows = []
    for bin_index in sorted(grouped):
        low = bin_index * bin_size + 1
        high = (bin_index + 1) * bin_size
        rows.append((f"{low}-{high}", whisker_stats(grouped[bin_index])))
    return rows


# -- registered metrics ------------------------------------------------------------


@register_metric(
    "fig12",
    title="Figure 12 — Total HB latency",
    ref="Figure 12 / §5.2",
    render={"kind": "ecdf", "unit": "ms"},
)
def latency_ecdf_result(context: AnalysisContext) -> dict:
    """Figure 12: ECDF of total HB latency per page visit."""
    curve = total_latency_ecdf(context.dataset)
    text = format_ecdf(curve, unit="ms", title="Figure 12 — Total HB latency (ECDF)")
    return {
        "ecdf": curve,
        "median_ms": curve.median,
        "share_above_1s": curve.fraction_above(1_000.0),
        "share_above_3s": curve.fraction_above(3_000.0),
        "text": text,
    }


@register_metric(
    "fig13",
    title="Figure 13 — HB latency vs. site rank",
    ref="Figure 13 / §5.2",
    render={"kind": "whiskers", "unit": "ms"},
    bin_size=None,
)
def latency_vs_rank_result(context: AnalysisContext, *, bin_size: int | None) -> dict:
    """Figure 13: HB latency versus site popularity rank."""
    if bin_size is None:
        # The paper bins 5k HB sites out of 35k into bins of 500; scale the bin
        # width with the simulated population so each bin keeps enough sites.
        bin_size = max(50, context.total_sites // 70)
    rows = latency_by_rank_bin(context.dataset, bin_size=bin_size)
    text = format_whisker_rows(rows, label_header="rank bin", unit="ms",
                               title="Figure 13 — HB latency vs. site rank")
    return {"rows": rows, "bin_size": bin_size, "text": text}


@register_metric(
    "fig14",
    title="Figure 14 — Partner latency profiles",
    ref="Figure 14 / §5.2",
    render={"kind": "whiskers", "unit": "ms"},
    top_n=10,
)
def partner_latency_result(context: AnalysisContext, *, top_n: int) -> dict:
    """Figure 14: fastest, top-market-share and slowest partners by latency."""
    fastest = fastest_partners(context.dataset, top_n=top_n)
    slowest = slowest_partners(context.dataset, top_n=top_n)
    profiles = partner_latency_profiles(context.dataset)
    top_market = profiles[:top_n]
    text = "\n\n".join(
        [
            format_whisker_rows([(p.partner, p.stats) for p in fastest],
                                label_header="fastest partner", unit="ms"),
            format_whisker_rows([(p.partner, p.stats) for p in top_market],
                                label_header="top market-share partner", unit="ms"),
            format_whisker_rows([(p.partner, p.stats) for p in slowest],
                                label_header="slowest partner", unit="ms"),
        ]
    )
    return {"fastest": fastest, "top_market": top_market, "slowest": slowest, "text": text}


@register_metric(
    "fig15",
    title="Figure 15 — HB latency vs. number of demand partners",
    ref="Figure 15 / §5.2",
    render={"kind": "table"},
)
def latency_vs_partner_count_result(context: AnalysisContext) -> dict:
    """Figure 15: HB latency and share of sites vs. number of partners."""
    rows = latency_by_partner_count(context.dataset)
    text = format_table(
        ["#partners", "median (ms)", "p95 (ms)", "share of sites"],
        [
            (count, round(stats.median, 1), round(stats.p95, 1), f"{share * 100:.1f}%")
            for count, stats, share in rows
        ],
        title="Figure 15 — HB latency vs. number of demand partners",
    )
    return {"rows": rows, "text": text}


@register_metric(
    "fig16",
    title="Figure 16 — Partner latency vs. popularity rank",
    ref="Figure 16 / §5.2",
    render={"kind": "whiskers", "unit": "ms"},
    bin_size=10,
)
def latency_vs_popularity_result(context: AnalysisContext, *, bin_size: int) -> dict:
    """Figure 16: partner latency variability vs. popularity rank."""
    rows = latency_by_popularity_rank(context.dataset, bin_size=bin_size)
    text = format_whisker_rows(rows, label_header="popularity rank bin", unit="ms",
                               title="Figure 16 — Partner latency vs. popularity rank")
    return {"rows": rows, "text": text}
