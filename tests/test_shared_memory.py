"""Shared-memory handoff: payload blocks, site-list publication, cleanup.

The process backend must start workers pickle-free — one shared block for
the environment/detector/config, one per distinct site list — and must not
leak a single block past ``engine.close()`` no matter how many crawls ran.
"""

from __future__ import annotations

import json

import pytest
from multiprocessing import shared_memory

from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.engine import (
    ProcessPoolBackend,
    SharedPayload,
    _read_shared_payload,
)
from repro.crawler.storage import detection_to_dict
from repro.errors import ConfigurationError
from repro.testing import FaultyBackend


def block_exists(name: str) -> bool:
    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


class TestSharedPayload:
    def test_round_trip(self):
        payload = SharedPayload({"alpha": [1, 2, 3], "beta": "x" * 10_000})
        try:
            assert _read_shared_payload(payload.name, payload.size) == {
                "alpha": [1, 2, 3],
                "beta": "x" * 10_000,
            }
        finally:
            payload.release()
        assert not block_exists(payload.name)

    def test_refcounted_release(self):
        payload = SharedPayload([1, 2, 3])
        payload.retain()
        payload.release()
        assert payload.live
        assert block_exists(payload.name)
        payload.release()
        assert not payload.live
        assert not block_exists(payload.name)

    def test_release_is_idempotent(self):
        payload = SharedPayload("x")
        payload.release()
        payload.release()
        assert not payload.live

    def test_retain_after_release_refused(self):
        payload = SharedPayload("x")
        payload.release()
        with pytest.raises(ConfigurationError):
            payload.retain()


class TestSitePublication:
    def test_same_list_reuses_the_block(self, small_population):
        sites = list(small_population)[:12]
        backend = ProcessPoolBackend(max_workers=2)
        try:
            backend.publish_sites(sites)
            _, first = backend._current_sites
            backend.publish_sites(list(sites))  # new list object, same elements
            _, second = backend._current_sites
            assert second is first
            assert len(backend._site_blocks) == 1
        finally:
            backend.shutdown()
        assert not block_exists(first.name)

    def test_distinct_lists_are_bounded_lru(self, small_population):
        sites = list(small_population)[:40]
        backend = ProcessPoolBackend(max_workers=2)
        try:
            published = []
            for start in range(0, 36, 6):  # 6 distinct lists > SITE_BLOCK_LIMIT
                backend.publish_sites(sites[start : start + 6])
                published.append(backend._current_sites[1])
            assert len(backend._site_blocks) == ProcessPoolBackend.SITE_BLOCK_LIMIT
            evicted = published[: len(published) - ProcessPoolBackend.SITE_BLOCK_LIMIT]
            for block in evicted:
                assert not block.live
        finally:
            backend.shutdown()
        for block in published:
            assert not block_exists(block.name)


class TestEngineLifecycle:
    def serialise(self, detections):
        return json.dumps([detection_to_dict(d) for d in detections])

    def test_warm_crawls_ship_sites_once_and_close_unlinks(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:16]
        serial = Crawler(environment, detector, CrawlConfig(seed=5)).crawl(sites)
        config = CrawlConfig(seed=5, workers=2, backend="process")
        engine = Crawler(environment, detector, config)
        result = engine.crawl(sites)
        backend = engine.backend
        payload = backend._payload
        _, site_block = backend._current_sites
        assert payload.live and site_block.live
        engine.crawl(sites, crawl_day=1)  # warm: same site block reused
        assert backend._current_sites[1] is site_block
        assert len(backend._site_blocks) == 1
        assert backend.shared_site_tasks > 0
        assert backend.fallback_tasks == 0  # no task ever re-pickled publishers
        engine.close()
        assert not block_exists(payload.name)
        assert not block_exists(site_block.name)
        assert self.serialise(result.detections) == self.serialise(serial.detections)

    def test_engine_reusable_after_close(self, environment, detector, small_population):
        sites = list(small_population)[:8]
        config = CrawlConfig(seed=5, workers=2, backend="process")
        engine = Crawler(environment, detector, config)
        first = engine.crawl(sites)
        engine.close()
        second = engine.crawl(sites)
        engine.close()
        assert self.serialise(first.detections) == self.serialise(second.detections)

    def test_faulty_backend_keeps_the_shared_site_path(
        self, environment, detector, small_population
    ):
        # The crash wrapper models the crawl process dying above a real
        # pool; it must not change how shards reach the workers.
        sites = list(small_population)[:40]
        config = CrawlConfig(seed=5, workers=2, backend="process")
        inner = ProcessPoolBackend(max_workers=2)
        backend = FaultyBackend(inner, fail_after=100)
        with Crawler(environment, detector, config, backend=backend) as crawler:
            crawler.crawl(sites)
        assert (inner.shared_site_tasks, inner.fallback_tasks) == (8, 0)
