"""Benchmark: Figure 21 — most popular creative sizes per HB facet.

Paper: the 300x250 medium rectangle dominates every facet, followed by the
728x90 leaderboard and the 300x600 half page.
"""

from repro.models import HBFacet


def test_bench_fig21_adslot_sizes(benchmark, artefact):
    result = benchmark(artefact, "fig21", top_n=10)
    shares = result.data["shares"]
    for facet in HBFacet:
        rows = shares.get(facet, [])
        assert rows, f"no slot sizes observed for {facet}"
        labels = [label for label, _ in rows]
        assert labels[0] == "300x250"
        assert "728x90" in labels[:4]
        total = sum(share for _, share in rows)
        assert total <= 1.0 + 1e-9
    print()
    print(result.text)
