"""Benchmark: Figure 16 — partner latency variability vs. popularity rank.

Paper: the most popular demand partners keep their latency variability small
(up to ~200 ms), while the long tail swings by 500-1,000 ms.
"""

import numpy as np


def test_bench_fig16_latency_vs_popularity(benchmark, artefact):
    result = benchmark(artefact, "fig16", bin_size=10)
    rows = result.data["rows"]
    assert len(rows) >= 3
    spreads = [stats.spread for _, stats in rows]
    # The most popular bin is less variable than the typical long-tail bin.
    assert spreads[0] < float(np.median(spreads[1:])) * 1.5
    assert all(stats.median > 0 for _, stats in rows)
    print()
    print(result.text)
