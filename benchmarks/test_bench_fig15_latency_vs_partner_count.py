"""Benchmark: Figure 15 — HB latency vs. number of demand partners per site.

Paper: sites with one partner see ~268 ms, two partners ~1.1 s, and more than
two partners 1.3-3.0 s median latency; single-partner sites are the majority.
This bench also doubles as the partner-count ablation called out in DESIGN.md.
"""


def test_bench_fig15_latency_vs_partner_count(benchmark, artefact):
    result = benchmark(artefact, "fig15")
    rows = {count: (stats, share) for count, stats, share in result.data["rows"]}
    assert 1 in rows
    single_stats, single_share = rows[1]
    assert single_share > 0.35, "single-partner sites are the majority"
    assert 150.0 <= single_stats.median <= 600.0
    multi_medians = [stats.median for count, (stats, _) in rows.items() if count >= 2]
    assert multi_medians and max(multi_medians) > 1.8 * single_stats.median
    print()
    print(result.text)
