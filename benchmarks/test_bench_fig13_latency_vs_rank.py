"""Benchmark: Figure 13 — HB latency vs. website popularity rank.

Paper: the 500 highest-ranked sites show a median HB latency of ~310 ms,
clearly below the ~500 ms median of the remaining sites.
"""

import numpy as np


def test_bench_fig13_latency_vs_rank(benchmark, artefact, artifacts):
    result = benchmark(artefact, "fig13")
    rows = result.data["rows"]
    assert len(rows) >= 3
    assert all(stats.median > 0 for _, stats in rows)

    # The paper's claim — highly ranked sites see lower HB latency — is
    # asserted on the pooled head-vs-tail populations rather than on a single
    # (small, noisy) rank bin.
    head_threshold = artifacts.population.config.head_rank_threshold
    head, tail = [], []
    for detection in artifacts.dataset.hb_detections():
        if detection.total_latency_ms is None or detection.total_latency_ms <= 0:
            continue
        (head if detection.rank <= head_threshold else tail).append(detection.total_latency_ms)
    assert head and tail
    assert float(np.median(head)) < float(np.median(tail))
    print()
    print(result.text)
