"""Simulator equivalence: the columnar simulator must change nothing but speed.

The property under test: for any seed, any backend and any worker count, a
crawl simulated columnar-batch style over compiled site records and the
shared-memory handoff (``fast_path=True``, the default) produces
**byte-identical** sink output and identical values for every registered
offline metric compared to the reference browser simulator
(``fast_path=False``) that re-derives every per-page input.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import available_metrics, compute_metric
from repro.crawler.colstore import ColumnarStorage
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.engine import CrawlPlan, CrawlShard, WorkerContext
from repro.crawler.storage import CrawlStorage, detection_to_dict
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.ecosystem.columnar import simulate_shard_columnar
from repro.ecosystem.profiles import SiteProfileTable
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.ecosystem.registry import default_registry
from repro.errors import ReproError
from repro.models import HBFacet
from repro.testing import interrupted_then_resumed


def serialise(detections):
    return json.dumps([detection_to_dict(d) for d in detections])


def metric_texts(path):
    """Every registered offline metric's outcome (text or identical error)."""
    context = AnalysisContext.offline(CrawlDataset.from_path(path))
    names = sorted(available_metrics(frozenset({"dataset"})))
    assert names
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = compute_metric(name, context).text
        except ReproError as exc:
            outcomes[name] = f"{type(exc).__name__}: {exc}"
    return outcomes


@pytest.fixture(scope="module", params=[5, 23])
def workload(request, registry):
    """A population slice covering every facet, misconfiguration and non-HB."""
    seed = request.param
    population = generate_population(PopulationConfig(seed=seed).scaled(180), registry)
    sites = list(population)[:180]
    facets = {p.facet for p in sites if p.uses_hb}
    assert facets == set(HBFacet), "workload must exercise every facet"
    assert any(not p.uses_hb for p in sites)
    assert any(p.uses_hb and p.misconfigured_wrapper for p in sites)
    return seed, sites


@pytest.fixture(scope="module")
def reference(workload, environment, detector, tmp_path_factory):
    """Reference-simulator serial crawl: sink bytes, detections, offline metrics."""
    seed, sites = workload
    storage = CrawlStorage(tmp_path_factory.mktemp("slow") / "crawl.jsonl")
    config = CrawlConfig(seed=seed, fast_path=False)
    with Crawler(environment, detector, config) as engine, storage.open_sink() as sink:
        result = engine.crawl(sites, sink=sink)
    return storage.path.read_bytes(), serialise(result.detections), metric_texts(storage.path)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1),
        ("process", 2),
        ("process", 3),
    ])
    def test_sink_bytes_and_metrics_identical(
        self, workload, reference, environment, detector, tmp_path, backend, workers,
        store_format,
    ):
        """The columnar simulator (the default) must match the reference
        simulator byte-for-byte, streamed into either detection store: a
        columnar store converts back to the reference JSONL bytes, and the
        offline metrics computed straight off it agree with the reference."""
        seed, sites = workload
        ref_bytes, ref_json, ref_metrics = reference
        if store_format == "jsonl":
            storage = CrawlStorage(tmp_path / "fast.jsonl")
        else:
            storage = ColumnarStorage(tmp_path / "fast.hbc")
        config = CrawlConfig(seed=seed, workers=workers, backend=backend)
        assert config.fast_path  # the default IS the columnar simulator
        with Crawler(environment, detector, config) as engine, \
                storage.open_sink() as sink:
            result = engine.crawl(sites, sink=sink)
        assert serialise(result.detections) == ref_json
        assert metric_texts(storage.path) == ref_metrics
        if store_format == "columnar":
            converted = CrawlStorage(tmp_path / "converted.jsonl")
            converted.save(storage.iter_load())
            storage = converted
        assert storage.path.read_bytes() == ref_bytes

    @pytest.mark.parametrize("backend,workers,fail_after", [
        ("serial", 1, 1),
        ("process", 3, 2),
        ("process", 2, 1),
    ])
    def test_columnar_checkpoint_resume_stays_identical(
        self, workload, reference, environment, detector, tmp_path, backend, workers,
        fail_after,
    ):
        """A columnar crawl killed mid-campaign and resumed must reproduce
        the reference bytes — resume replays only the missing shards, so the
        recovered prefix and the resumed tail must agree on every boundary."""
        seed, sites = workload
        ref_bytes, ref_json, ref_metrics = reference
        config = CrawlConfig(seed=seed, workers=workers, backend=backend)
        assert config.fast_path
        result, storage = interrupted_then_resumed(
            environment, detector, config, sites,
            tmp_path=tmp_path, fail_after=fail_after,
        )
        assert serialise(result.detections) == ref_json
        assert storage.path.read_bytes() == ref_bytes
        assert metric_texts(storage.path) == ref_metrics

    def test_columnar_resume_finishes_a_reference_crawl(
        self, workload, reference, environment, detector, tmp_path
    ):
        """The two simulators are interchangeable across a crash boundary:
        a crawl started on the reference simulator (``--slow-path``) may be
        resumed columnar without perturbing a single byte."""
        seed, sites = workload
        ref_bytes, ref_json, _ = reference
        result, storage = interrupted_then_resumed(
            environment, detector,
            CrawlConfig(seed=seed, workers=3, backend="process", fast_path=False),
            sites, tmp_path=tmp_path, fail_after=2,
            resume_config=CrawlConfig(seed=seed, workers=3, backend="process"),
        )
        assert serialise(result.detections) == ref_json
        assert storage.path.read_bytes() == ref_bytes

    def test_fast_path_warm_engine_stays_identical(
        self, workload, reference, environment, detector
    ):
        """Profile reuse across crawls and days must not leak state."""
        seed, sites = workload
        _, ref_json, _ = reference
        with Crawler(environment, detector, CrawlConfig(seed=seed)) as engine:
            first = engine.crawl(sites)
            second = engine.crawl(sites)  # warm: profiles already compiled
            assert serialise(first.detections) == ref_json
            assert serialise(second.detections) == ref_json
            day1_warm = engine.crawl(sites, crawl_day=1)
        with Crawler(environment, detector, CrawlConfig(seed=seed, fast_path=False)) as engine:
            day1_slow = engine.crawl(sites, crawl_day=1)
        assert serialise(day1_warm.detections) == serialise(day1_slow.detections)

    @pytest.mark.parametrize("max_sites", [8, 16384])
    def test_one_shard_over_the_table_cap_compiles_each_site_once(
        self, workload, reference, environment, detector, max_sites
    ):
        """A shard larger than the worker's profile table compiles each of
        its sites exactly once, and its detections match those of a table
        that holds the whole shard and those of the reference simulator."""
        seed, sites = workload
        _, ref_json, _ = reference
        shard = CrawlShard(index=0, start=0, publishers=tuple(sites[:20]), shard_seed=0)
        table = SiteProfileTable(
            environment, detector.known_partners, seed=seed, max_sites=max_sites
        )
        context = WorkerContext(
            environment=environment, detector=detector, config=CrawlConfig(seed=seed),
            profiles=table,
        )
        result = simulate_shard_columnar(context, 0, None, shard)
        assert table.compiles == len(shard)
        assert len(table) <= max_sites
        assert json.loads(serialise(result.detections)) == json.loads(ref_json)[:len(shard)]

    def test_fast_path_flag_threads_through_experiment_config(self):
        from repro.experiments.config import ExperimentConfig

        assert ExperimentConfig.test_scale().crawl_config().fast_path is True
        import dataclasses

        slow = dataclasses.replace(ExperimentConfig.test_scale(), fast_path=False)
        assert slow.crawl_config().fast_path is False


class TestOversubscribedPlan:
    def test_parallel_plans_oversubscribe(self, small_population):
        sites = list(small_population)[:64]
        plan = CrawlPlan.build(sites, workers=4, seed=3, oversubscribe=4)
        assert len(plan.shards) == 16
        assert plan.site_order == tuple(p.domain for p in sites)

    def test_sequential_plans_stay_single_shard(self, small_population):
        sites = list(small_population)[:64]
        plan = CrawlPlan.build(sites, workers=1, seed=3, oversubscribe=4)
        assert len(plan.shards) == 1

    def test_oversubscribe_is_capped_by_site_count(self, small_population):
        sites = list(small_population)[:5]
        plan = CrawlPlan.build(sites, workers=4, seed=3, oversubscribe=4)
        assert len(plan.shards) == 5
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_engine_plan_uses_config_oversubscribe(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:64]
        config = CrawlConfig(seed=3, workers=4, backend="process", shard_oversubscribe=2)
        engine = Crawler(environment, detector, config)
        assert len(engine.plan(sites).shards) == 8

    def test_detections_identical_across_oversubscription(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:48]
        baseline = None
        for oversubscribe in (1, 3):
            config = CrawlConfig(
                seed=3, workers=4, backend="process", shard_oversubscribe=oversubscribe
            )
            with Crawler(environment, detector, config) as engine:
                blob = serialise(engine.crawl(sites).detections)
            if baseline is None:
                baseline = blob
            else:
                assert blob == baseline
