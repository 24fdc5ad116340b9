"""Benchmark: Figure 17 — share of late bids per auction (ECDF).

Paper: among auctions that have late bids, the median auction loses about half
of its bid responses to lateness, and 10% of auctions lose 80% or more.
"""


def test_bench_fig17_late_bids_ecdf(benchmark, artefact):
    result = benchmark(artefact, "fig17")
    curve = result.data["ecdf"]
    assert 25.0 <= result.data["median_late_share"] <= 85.0
    # A noticeable fraction of late-bid auctions lose most of their bids.
    assert curve.fraction_above(79.9) >= 0.05
    summary = result.data["summary"]
    assert 0.0 < summary["share_of_auctions_with_late_bids"] < 0.6
    print()
    print(result.text)
