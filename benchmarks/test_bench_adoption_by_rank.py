"""Benchmark: §3.2 — HB adoption by Alexa-rank tier.

Paper: 20-23% of the top 5k sites, 12-17% of the 5k-15k range and 10-12% of
the rest use HB, for 14.28% overall.
"""


def test_bench_adoption_by_rank(benchmark, artefact):
    result = benchmark(artefact, "adoption")
    tiers = {tier.tier_label: tier.adoption_rate for tier in result.data["tiers"]}
    assert 0.10 <= result.data["overall"] <= 0.20
    # The head of the ranking adopts HB more than the tail.
    assert tiers["top 5k"] > tiers["15k+"]
    assert 0.15 <= tiers["top 5k"] <= 0.30
    assert 0.07 <= tiers["15k+"] <= 0.17
    print()
    print(result.text)
