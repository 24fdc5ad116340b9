"""Benchmark: Figure 14 — fastest, top-market-share and slowest partners.

Paper: the fastest partners answer in 41-217 ms (median), the slowest in
646-1290 ms, and the top market-share partners sit in between — quick, but
not the quickest (Criteo being the notable sub-200 ms exception).
"""

import numpy as np


def test_bench_fig14_partner_latency(benchmark, artefact):
    result = benchmark(artefact, "fig14", top_n=10)
    fastest = [profile.median_ms for profile in result.data["fastest"]]
    slowest = [profile.median_ms for profile in result.data["slowest"]]
    top_market = [profile.median_ms for profile in result.data["top_market"]]
    assert max(fastest) < min(slowest)
    assert 20.0 <= min(fastest) <= 300.0
    # The slowest group's upper bound is wider than the paper's 1,290 ms
    # because chronically late partners are modelled with overload bursts,
    # which drag their observed medians up (see EXPERIMENTS.md).
    assert 450.0 <= max(slowest) <= 9_000.0
    # Top market-share partners are quick but not the very fastest group.
    assert np.median(top_market) > np.median(fastest)
    assert np.median(top_market) < np.median(slowest)
    print()
    print(result.text)
