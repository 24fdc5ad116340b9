"""Shared fixtures for the test suite.

Expensive objects (the publisher population, a full end-to-end experiment run)
are session-scoped: they are generated once and reused by every test that only
reads them.  Tests that need to mutate state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.context import AnalysisContext
from repro.browser.context import BrowserContext
from repro.browser.engine import BrowserEngine
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.ecosystem.registry import default_registry
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.hb.environment import AuctionEnvironment


@pytest.fixture(scope="session")
def registry():
    """The default 84-partner registry."""
    return default_registry(seed=2019)


@pytest.fixture(scope="session")
def small_population(registry):
    """A 600-site publisher population with paper-shaped proportions."""
    config = PopulationConfig(seed=7).scaled(600)
    return generate_population(config, registry)


@pytest.fixture(scope="session")
def environment(registry):
    """The default auction environment over the default registry."""
    return AuctionEnvironment(registry=registry)


@pytest.fixture(scope="session")
def engine(environment):
    """A browser engine with a fixed seed."""
    return BrowserEngine(environment, seed=13)


@pytest.fixture(scope="session")
def detector(registry):
    """HBDetector with a complete known-partner list."""
    return HBDetector(build_known_partner_list(registry))


@pytest.fixture(scope="session")
def hb_publisher(small_population):
    """Some HB-enabled publisher from the small population."""
    return small_population.hb_publishers()[0]


@pytest.fixture(scope="session")
def client_side_publisher(small_population):
    from repro.models import HBFacet

    for publisher in small_population.hb_publishers():
        if publisher.facet is HBFacet.CLIENT_SIDE:
            return publisher
    pytest.skip("no client-side publisher in the sample population")


@pytest.fixture(scope="session")
def server_side_publisher(small_population):
    from repro.models import HBFacet

    for publisher in small_population.hb_publishers():
        if publisher.facet is HBFacet.SERVER_SIDE:
            return publisher
    pytest.skip("no server-side publisher in the sample population")


@pytest.fixture(scope="session")
def hybrid_publisher(small_population):
    from repro.models import HBFacet

    for publisher in small_population.hb_publishers():
        if publisher.facet is HBFacet.HYBRID:
            return publisher
    pytest.skip("no hybrid publisher in the sample population")


@pytest.fixture(scope="session")
def non_hb_publisher(small_population):
    for publisher in small_population:
        if not publisher.uses_hb:
            return publisher
    pytest.skip("no non-HB publisher in the sample population")


@pytest.fixture
def crash_sites(small_population):
    """A site list sized to give multi-site shards at a few workers."""
    return list(small_population)[:24]


@pytest.fixture()
def rng():
    """A fresh generator per test (fixed seed for reproducibility)."""
    return np.random.default_rng(42)


@pytest.fixture()
def context(rng):
    """A clean browser context per test."""
    return BrowserContext.clean_slate(rng)


@pytest.fixture(scope="session")
def experiment_artifacts():
    """A complete (tiny) end-to-end experiment run, shared by read-only tests."""
    return ExperimentRunner(ExperimentConfig.test_scale()).run()


@pytest.fixture(scope="session")
def experiment_context(experiment_artifacts):
    """The metric registry's view of the shared experiment run."""
    return AnalysisContext.from_artifacts(experiment_artifacts)


@pytest.fixture(scope="session")
def dataset(experiment_artifacts):
    """The crawl dataset of the shared experiment run."""
    return experiment_artifacts.dataset
