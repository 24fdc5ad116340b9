"""Benchmark: Table 1 — crawl summary.

Paper: 35,000 sites crawled, 4,998 with HB (14.28%), 798,629 auctions,
241,392 bids, 84 demand partners over 5 weeks.  The bench-scale crawl keeps
the proportions (adoption rate, auctions per HB site per day) while running on
a smaller population.
"""


def test_bench_table1_summary(benchmark, artefact, artifacts):
    result = benchmark(artefact, "table1")
    summary = result.data["summary"]
    assert summary["websites_crawled"] == artifacts.config.total_sites
    # Adoption rate close to the paper's 14.28%.
    assert 0.10 <= summary["adoption_rate"] <= 0.20
    # Several auctions per HB site per crawl day, as in the paper (~4.7).
    auctions_per_site_day = summary["auctions_detected"] / max(
        summary["websites_with_hb"] * summary["crawl_days"], 1
    )
    assert 1.5 <= auctions_per_site_day <= 12.0
    # Bids were observed but not every auction draws one for a vanilla profile.
    assert 0 < summary["bids_detected"]
    assert summary["competing_demand_partners"] >= 40
    print()
    print(result.text)
