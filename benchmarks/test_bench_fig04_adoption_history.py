"""Benchmark: Figure 4 — HB adoption 2014-2019 (static analysis of archives).

Paper: ~10% of the yearly top-1k sites were early adopters in 2014, with a
steady climb to roughly 20% after the 2016 breakthrough.
"""

from repro.analysis import AnalysisContext, compute_metric


def test_bench_fig04_adoption_history(benchmark, historical):
    result = benchmark(compute_metric, "fig04", AnalysisContext(historical=historical))
    rows = {int(row["year"]): row for row in result.data["rows"]}
    assert set(rows) == {2014, 2015, 2016, 2017, 2018, 2019}
    # Adoption grows over the years and lands in the paper's ballpark.
    assert rows[2014]["adoption_rate"] < rows[2019]["adoption_rate"]
    assert 0.03 <= rows[2014]["adoption_rate"] <= 0.13
    assert 0.10 <= rows[2019]["adoption_rate"] <= 0.25
    # Static analysis keeps high precision but imperfect recall (§4.1).
    assert rows[2019]["precision"] >= 0.85
    assert rows[2019]["recall"] < 1.0
    print()
    print(result.text)
