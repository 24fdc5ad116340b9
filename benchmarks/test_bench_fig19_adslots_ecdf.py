"""Benchmark: Figure 19 — auctioned ad-slots per website, per facet (ECDF).

Paper: the median site auctions 2-6 slots depending on the facet (hybrid
auctioning the most), 90% of sites stay below 5-11 slots and ~3% request more
than 20 (device-duplicate inventory).
"""

from repro.models import HBFacet


def test_bench_fig19_adslots_ecdf(benchmark, artefact):
    result = benchmark(artefact, "fig19")
    medians = result.data["medians"]
    curves = result.data["ecdfs"]
    for facet, median in medians.items():
        assert 1.0 <= median <= 8.0, facet
    assert medians[HBFacet.HYBRID] >= medians[HBFacet.CLIENT_SIDE]
    for facet, curve in curves.items():
        assert curve.quantile(0.9) <= 30.0
    # A small fraction of sites auctions an inflated, device-duplicated inventory.
    any_inflated = any(curve.fraction_above(15.0) > 0.0 for curve in curves.values())
    assert any_inflated
    print()
    print(result.text)
