"""Example: historical HB adoption from archived snapshots (Figure 4).

This scenario mirrors §4.1 of the paper: yearly top-1k lists are resolved
against a Wayback-Machine-style snapshot archive, the archived HTML is
statically analysed for known header-bidding libraries, and the resulting
adoption series (2014-2019) is printed together with the accuracy of the
static method against the archive's ground truth — the reason the live crawl
uses dynamic detection instead.

Run with::

    python examples/historical_adoption.py [--sites 1000] [--seed 2019]
"""

from __future__ import annotations

import argparse

from repro.analysis import AnalysisContext, compute_metric
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=1_000, help="sites per yearly top list")
    parser.add_argument("--seed", type=int, default=2019, help="random seed")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = ExperimentConfig(
        total_sites=max(400, args.sites),
        seed=args.seed,
        historical_sites=args.sites,
    )
    historical = ExperimentRunner(config).run_historical()
    result = compute_metric("fig04", AnalysisContext(historical=historical))
    print(result.text)
    print()
    first = result.data["rows"][0]
    last = result.data["rows"][-1]
    print(
        f"Detected adoption grew from {first['adoption_rate'] * 100:.1f}% in "
        f"{int(first['year'])} to {last['adoption_rate'] * 100:.1f}% in {int(last['year'])} "
        "(paper: ~10% of early adopters in 2014, ~20% after the 2016 breakthrough)."
    )
    print(
        "Static analysis keeps high precision but misses renamed wrappers and "
        "gpt-only deployments, which is why the live crawl relies on DOM events "
        "and web requests instead."
    )


if __name__ == "__main__":
    main()
