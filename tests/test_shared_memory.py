"""Shared-memory handoff: payload blocks, site-list publication, cleanup.

The process backend must start workers pickle-free — one shared block for
the environment/detector/config, one per distinct site list — and must not
leak a single block past ``engine.close()`` no matter how many crawls ran.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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


#: A process that holds a warm 2-worker pool (with the CLI's SIGTERM
#: handler installed, as ``hbrepro daemon`` has), prints its worker pids and
#: block names, then waits to be killed.
POOL_HOLDER = """
import json, signal, time
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.ecosystem.registry import default_registry
from repro.hb.environment import AuctionEnvironment

def _sigterm(signum, frame):
    raise KeyboardInterrupt

signal.signal(signal.SIGTERM, _sigterm)
registry = default_registry(seed=2019)
sites = list(generate_population(PopulationConfig(seed=7).scaled(40), registry))[:40]
crawler = Crawler(
    AuctionEnvironment(registry=registry),
    HBDetector(build_known_partner_list(registry)),
    CrawlConfig(seed=5, workers=2, backend="process"),
)
crawler.crawl(sites)
backend = crawler.backend
print(json.dumps({
    "workers": sorted(backend._executor._processes),
    "blocks": [backend._payload.name, backend._current_sites[1].name],
    "worker_sigterm_default": (
        backend._executor.submit(signal.getsignal, signal.SIGTERM).result() == signal.SIG_DFL
    ),
}), flush=True)
time.sleep(120)
"""


def start_pool_holder(tmp_path: Path) -> tuple[subprocess.Popen, dict]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # The holder's stderr (and its resource tracker's leak warning once the
    # holder is killed) goes to a file, shown only if the holder fails.
    errors = tmp_path / "holder.err"
    with errors.open("w") as stderr:
        holder = subprocess.Popen(
            [sys.executable, "-c", POOL_HOLDER], stdout=subprocess.PIPE, stderr=stderr,
            text=True, env={**os.environ, "PYTHONPATH": path},
        )
    try:
        line = holder.stdout.readline()
        assert line, errors.read_text()
        state = json.loads(line)
    except BaseException:
        holder.kill()
        holder.wait()
        raise
    assert len(state["workers"]) == 2
    return holder, state


def running(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc and /dev/shm")
class TestOrphanedWorkers:
    @staticmethod
    def kill_leftovers(state: dict) -> None:
        for pid in filter(running, state["workers"]):
            os.kill(pid, signal.SIGKILL)

    def test_workers_and_blocks_go_when_the_parent_is_sigkilled(self, tmp_path):
        holder, state = start_pool_holder(tmp_path)
        holder.kill()
        holder.wait()
        try:
            # Poll the files, not block_exists: attaching would register the
            # block with this process's resource tracker.
            wait_until(lambda: not any(map(running, state["workers"])) and not any(
                os.path.exists(f"/dev/shm/{name}") for name in state["blocks"]
            ))
            assert not any(map(running, state["workers"]))
            assert not any(map(block_exists, state["blocks"]))
        finally:
            self.kill_leftovers(state)

    def test_a_plain_kill_ends_a_worker(self, tmp_path):
        holder, state = start_pool_holder(tmp_path)
        try:
            assert state["worker_sigterm_default"]
            worker = state["workers"][0]
            os.kill(worker, signal.SIGTERM)
            wait_until(lambda: not running(worker))
            assert not running(worker)
        finally:
            holder.kill()
            holder.wait()
            self.kill_leftovers(state)
