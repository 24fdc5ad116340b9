"""Benchmark: Figure 24 — bid prices vs. the bidding partner's popularity.

Paper: the most popular demand partners bid low and consistently; the less
popular ones bid higher and with more variability, hoping to win the few
impressions they see.
"""

import numpy as np


def test_bench_fig24_price_vs_popularity(benchmark, artefact):
    result = benchmark(artefact, "fig24", bin_size=10)
    rows = result.data["rows"]
    assert len(rows) >= 3
    medians = [stats.median for _, stats in rows]
    spreads = [stats.spread for _, stats in rows]
    # The most popular bin bids lower than the typical long-tail bin ...
    assert medians[0] < float(np.median(medians[1:])) + 1e-9
    # ... and with less spread.
    assert spreads[0] < float(np.max(spreads[1:])) + 1e-9
    print()
    print(result.text)
