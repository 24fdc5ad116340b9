"""Benchmark: §4.1 — HBDetector accuracy against ground truth.

Paper: the detector achieves 100% precision on the libraries it analyses, but
less than 100% recall (sites using unanalysed libraries are missed).  The
simulation can score this exactly because it owns the ground truth.
"""


def test_bench_detector_accuracy(benchmark, artefact):
    result = benchmark(artefact, "accuracy")
    metrics = result.data["metrics"]
    assert metrics["precision"] == 1.0
    assert 0.9 <= metrics["recall"] <= 1.0
    assert metrics["facet_accuracy"] >= 0.85
    assert metrics["false_positives"] == 0
    print()
    print(result.text)
