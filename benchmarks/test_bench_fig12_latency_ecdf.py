"""Benchmark: Figure 12 — ECDF of total HB latency per website.

Paper: median latency ~600 ms (point 1), ~35% of sites above one second, and
~10% of sites exceeding the common 3-second wrapper timeout (point 2).
"""


def test_bench_fig12_latency_ecdf(benchmark, artefact):
    result = benchmark(artefact, "fig12")
    assert 350.0 <= result.data["median_ms"] <= 950.0
    assert 0.15 <= result.data["share_above_1s"] <= 0.55
    assert 0.01 <= result.data["share_above_3s"] <= 0.25
    print()
    print(result.text)
