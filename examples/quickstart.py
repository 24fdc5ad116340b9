"""Quickstart: run a small header-bidding measurement campaign end to end.

The script generates a scaled-down simulated Web (2,000 sites), crawls it with
HBDetector loaded, re-crawls the HB-enabled sites for one extra day, and prints
the headline artefacts of the paper: the Table-1 crawl summary, adoption by
rank tier, the facet breakdown, the top demand partners and the latency ECDF.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import AnalysisContext, compute_metric
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner


def main() -> None:
    config = ExperimentConfig(total_sites=2_000, recrawl_days=1, seed=2019)
    print(f"Simulating and crawling {config.total_sites} websites "
          f"({config.recrawl_days} daily re-crawl day(s), seed {config.seed})...\n")
    runner = ExperimentRunner(config)
    context = AnalysisContext.from_artifacts(runner.run())

    for name in ("table1", "adoption", "accuracy", "facet", "fig08"):
        print(compute_metric(name, context).text)
        print()

    latency = compute_metric("fig12", context)
    print(latency.text)
    print()
    print(f"Median HB latency: {latency.data['median_ms']:.0f} ms "
          f"(paper: ~600 ms); {latency.data['share_above_3s'] * 100:.1f}% of sites "
          "exceed the 3-second wrapper timeout (paper: ~10%).")

    comparison = compute_metric("waterfall", context)
    print()
    print(comparison.text)
    print()
    ratio = comparison.data["comparison"].median_ratio
    print(f"Header bidding is {ratio:.1f}x slower than the waterfall at the median "
          "(paper: up to 3x).")


if __name__ == "__main__":
    main()
