"""Benchmark: Figure 10 — most frequent demand-partner combinations.

Paper: DFP alone covers ~48% of HB sites; Criteo and Yieldlab follow as
single partners (2.37% and 1.68%), and the popular pairs/triples all include
DFP (DFP appears in 51% of the multi-partner groups).
"""


def test_bench_fig10_partner_combinations(benchmark, artefact):
    result = benchmark(artefact, "fig10", top_n=15)
    rows = result.data["rows"]
    assert rows, "there must be at least one combination"
    top_combo, top_share = rows[0]
    assert top_combo == ("DFP",)
    assert 0.30 <= top_share <= 0.60
    # Multi-partner combinations frequently include DFP.
    multi = [combo for combo, _ in rows if len(combo) > 1]
    if multi:
        with_dfp = sum(1 for combo in multi if "DFP" in combo)
        assert with_dfp / len(multi) >= 0.4
    print()
    print(result.text)
