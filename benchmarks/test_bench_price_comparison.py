"""Benchmark: §5.4 — HB baseline prices vs. waterfall RTB prices.

Paper: prior waterfall measurements report ~0.19 CPM median for the 300x250
slot with real user profiles, well above the ~0.031 CPM baseline the vanilla
crawler observes in HB; the gap is attributed to the missing user profile,
not to the protocol.
"""


def test_bench_price_comparison(benchmark, artefact):
    result = benchmark(artefact, "prices")
    comparison = result.data["comparison"]
    # Real-user waterfall prices are a multiple of the vanilla HB baseline.
    assert comparison.real_user_median_ratio > 2.0
    # With the same vanilla profile, waterfall and HB prices are comparable
    # (same order of magnitude) — the profile, not the protocol, drives prices.
    ratio = comparison.waterfall_vanilla.median / comparison.hb.median
    assert 0.2 < ratio < 8.0
    print()
    print(result.text)
