"""Benchmark: Figure 22 — CDF of bid prices (CPM) per HB facet.

Paper: client-side HB draws the highest baseline bid prices; the crawler's
vanilla profile keeps the absolute values well below real-user RTB prices.
"""

from repro.models import HBFacet


def test_bench_fig22_price_cdf(benchmark, artefact):
    result = benchmark(artefact, "fig22")
    medians = result.data["medians"]
    curves = result.data["ecdfs"]
    assert set(medians) == set(HBFacet)
    # Client-side prices sit above server-side prices (ordering, not absolutes).
    assert medians[HBFacet.CLIENT_SIDE] > medians[HBFacet.SERVER_SIDE]
    # Vanilla-profile baseline prices are small but strictly positive.
    for facet, curve in curves.items():
        assert curve.values[0] > 0
        assert curve.median < 2.0
    print()
    print(result.text)
