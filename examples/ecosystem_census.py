"""Example: demand-partner market census (Figures 8-11 and 24).

This scenario mirrors §5.1 of the paper: who dominates the header-bidding
market, how many partners publishers typically expose, which combinations of
partners appear together, how participation differs per HB facet and how bid
prices relate to a partner's popularity.

Run with::

    python examples/ecosystem_census.py [--sites 3000] [--days 2] [--seed 2019]
"""

from __future__ import annotations

import argparse

from repro.analysis import AnalysisContext, compute_metric
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=3_000, help="simulated websites to crawl")
    parser.add_argument("--days", type=int, default=2, help="daily re-crawls of HB sites")
    parser.add_argument("--seed", type=int, default=2019, help="random seed")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = ExperimentConfig(total_sites=args.sites, recrawl_days=args.days, seed=args.seed)
    context = AnalysisContext.from_artifacts(ExperimentRunner(config).run())

    print(compute_metric("fig08", context).text)
    print()

    per_site = compute_metric("fig09", context)
    shares = per_site.data
    print(per_site.text)
    print()
    print(f"{shares['share_one_partner'] * 100:.1f}% of HB sites expose a single partner "
          "(paper: >50%); "
          f"{shares['share_five_or_more'] * 100:.1f}% expose five or more (paper: ~20%); "
          f"{shares['share_ten_or_more'] * 100:.1f}% expose ten or more (paper: ~5%).")
    print()

    print(compute_metric("fig10", context).text)
    print()
    print(compute_metric("fig11", context).text)
    print()
    print(compute_metric("fig24", context).text)


if __name__ == "__main__":
    main()
