"""Benchmark: Figure 8 — top demand partners by share of HB websites.

Paper: Google's DFP appears on ~80% of HB websites; the rest of the top list
is AppNexus, Rubicon, Criteo, Index, Amazon, OpenX, Pubmatic, AOL, Sovrn and
Smart — the same companies that dominate the waterfall standard.
"""


def test_bench_fig08_top_partners(benchmark, artefact):
    result = benchmark(artefact, "fig08", top_n=11)
    rows = result.data["rows"]
    assert rows[0].partner == "DFP"
    assert 0.65 <= rows[0].share_of_hb_sites <= 0.92
    top_names = {row.partner for row in rows}
    # The waterfall incumbents dominate the HB top list too.
    assert {"AppNexus", "Rubicon", "Criteo"} <= top_names
    print()
    print(result.text)
