"""Benchmark: Figure 11 — top demand partners per HB facet by share of bids.

Paper: big exchanges/SSPs (Rubicon, AppNexus, Index, OpenX, Pubmatic, ...)
hold the highest bid shares in every facet.
"""

from repro.models import HBFacet


def test_bench_fig11_partners_per_facet(benchmark, artefact):
    result = benchmark(artefact, "fig11", top_n=10)
    per_facet = result.data["per_facet"]
    big_players = {"AppNexus", "Rubicon", "Index", "OpenX", "Pubmatic", "Criteo", "Amazon", "DFP"}
    for facet in HBFacet:
        rows = per_facet.get(facet, [])
        assert rows, f"no bids observed for facet {facet}"
        top_names = {name for name, _ in rows[:5]}
        assert top_names & big_players, f"expected big players among {facet} top bidders"
        shares = [share for _, share in rows]
        assert shares == sorted(shares, reverse=True)
    print()
    print(result.text)
