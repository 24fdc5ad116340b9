"""Benchmark: Figure 23 — bid prices per creative size.

Paper: median prices range from 0.00084 CPM (300x50) to 0.096 CPM (120x600),
with the popular 300x250 medium rectangle at ~0.031 CPM.
"""


def test_bench_fig23_price_per_size(benchmark, artefact):
    result = benchmark(artefact, "fig23")
    rows = dict(result.data["rows"])
    assert "300x250" in rows
    reference = rows["300x250"].median
    assert 0.003 <= reference <= 0.3
    if "120x600" in rows:
        assert rows["120x600"].median > reference
    if "300x50" in rows:
        assert rows["300x50"].median < reference
    print()
    print(result.text)
