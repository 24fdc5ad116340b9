"""Benchmark: §1 / §7.2 headline — HB latency vs. the waterfall standard.

Paper: header bidding's median latency can be up to 3x the waterfall's, and
far worse in the tail (up to 15x for 10% of the sites).
"""


def test_bench_waterfall_comparison(benchmark, artefact):
    result = benchmark(artefact, "waterfall")
    comparison = result.data["comparison"]
    # HB is slower than the waterfall at the median, by a factor in the
    # "up to 3x" range the paper reports.
    assert comparison.median_ratio > 1.2
    assert comparison.median_ratio < 6.0
    # The tail is worse than the median for HB.
    assert comparison.hb.p95 / comparison.hb.median > 2.0
    print()
    print(result.text)
