"""Benchmark: Figure 9 — number of demand partners per HB website (ECDF).

Paper: more than 50% of publishers expose a single demand partner, ~20% use
five or more and ~5% use ten or more.
"""


def test_bench_fig09_partners_per_site(benchmark, artefact):
    result = benchmark(artefact, "fig09")
    assert 0.40 <= result.data["share_one_partner"] <= 0.65
    assert 0.10 <= result.data["share_five_or_more"] <= 0.35
    assert 0.01 <= result.data["share_ten_or_more"] <= 0.12
    assert result.data["ecdf"].values[-1] <= 25
    print()
    print(result.text)
