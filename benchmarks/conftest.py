"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper from one shared
crawl of the bench-scale simulated Web (3,000 sites, two daily re-crawls).
The crawl itself runs once per session; each benchmark then measures the
registered metric that produces its artefact (the ``artefact`` fixture) and
asserts the qualitative shape the paper reports.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisContext, compute_metric
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig.bench_scale()


@pytest.fixture(scope="session")
def artifacts(bench_config):
    """The shared bench-scale crawl (generated once per session)."""
    return ExperimentRunner(bench_config).run()


@pytest.fixture(scope="session")
def artefact(artifacts):
    """``artefact(name, **params)``: one paper artefact of the shared crawl,
    computed through the metric registry."""
    context = AnalysisContext.from_artifacts(artifacts)

    def compute(name: str, **params):
        return compute_metric(name, context, **params)

    return compute


@pytest.fixture(scope="session")
def historical(bench_config):
    """The Figure 4 historical adoption study at bench scale."""
    return ExperimentRunner(bench_config).run_historical()
