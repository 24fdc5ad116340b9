"""Benchmark: §4.6 — facet breakdown.

Paper: server-side HB covers 48% of HB sites, hybrid 34.7%, client-side 17.3%.
"""

from repro.models import HBFacet


def test_bench_facet_breakdown(benchmark, artefact):
    result = benchmark(artefact, "facet")
    breakdown = result.data["breakdown"]
    assert abs(sum(breakdown.values()) - 1.0) < 1e-9
    # Ordering and rough magnitudes from the paper.
    assert breakdown[HBFacet.SERVER_SIDE] > breakdown[HBFacet.HYBRID] > breakdown[HBFacet.CLIENT_SIDE]
    assert 0.35 <= breakdown[HBFacet.SERVER_SIDE] <= 0.60
    assert 0.25 <= breakdown[HBFacet.HYBRID] <= 0.50
    assert 0.08 <= breakdown[HBFacet.CLIENT_SIDE] <= 0.30
    print()
    print(result.text)
