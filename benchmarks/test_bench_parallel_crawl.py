"""Benchmark: parallel sharded crawl vs the sequential baseline.

Measures the discovery pass over one slice of the bench population for each
execution backend, and asserts the engine's core guarantee along the way:
every backend and worker count yields the identical detection sequence, so
parallelism is purely an operational knob.
"""

import json

import pytest

from repro.crawler.crawler import CrawlConfig
from repro.crawler.engine import CrawlEngine
from repro.crawler.storage import detection_to_dict
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list

N_SITES = 150
SEED = 77


def _serialise(detections):
    return json.dumps([detection_to_dict(d) for d in detections])


@pytest.fixture(scope="module")
def publishers(artifacts):
    return list(artifacts.population)[:N_SITES]


@pytest.fixture(scope="module")
def serial_json(artifacts, publishers):
    detector = HBDetector(build_known_partner_list(artifacts.population.registry))
    engine = CrawlEngine(artifacts.environment, detector, CrawlConfig(seed=SEED))
    return _serialise(engine.crawl(publishers).detections)


@pytest.mark.parametrize(
    "backend_name,workers",
    [("serial", 1), ("process", 2), ("process", 4)],
    ids=["serial-1", "process-2", "process-4"],
)
def test_bench_parallel_crawl(benchmark, artifacts, publishers, serial_json, backend_name, workers):
    detector = HBDetector(build_known_partner_list(artifacts.population.registry))
    with CrawlEngine(
        artifacts.environment,
        detector,
        CrawlConfig(seed=SEED, workers=workers, backend=backend_name),
    ) as engine:
        result = benchmark(engine.crawl, publishers)

    assert result.pages_visited == N_SITES
    assert 0.0 < result.adoption_rate < 0.5
    assert _serialise(result.detections) == serial_json
