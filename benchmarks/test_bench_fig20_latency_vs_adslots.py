"""Benchmark: Figure 20 — HB latency vs. number of auctioned ad-slots.

Paper: 1-3 auctioned slots correspond to 0.30-0.57 s median latency, 3-5 slots
to 0.57-0.92 s; more slots mean more latency and more variability.
"""

import numpy as np


def test_bench_fig20_latency_vs_adslots(benchmark, artefact):
    result = benchmark(artefact, "fig20")
    rows = result.data["rows"]
    counts = [count for count, _ in rows]
    medians = {count: stats.median for count, stats in rows}
    assert min(counts) <= 2
    few = [median for count, median in medians.items() if count <= 3]
    many = [median for count, median in medians.items() if count >= 5]
    if many:
        assert float(np.median(many)) > float(np.median(few)) * 0.9
    assert all(median > 0 for median in medians.values())
    print()
    print(result.text)
