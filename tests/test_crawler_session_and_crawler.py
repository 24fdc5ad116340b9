"""Unit tests for crawl sessions and the crawl driver."""

import pytest

from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.session import CrawlSession
from repro.errors import ConfigurationError, CrawlError


class TestCrawlSession:
    def test_load_counts_pages(self, environment, hb_publisher):
        session = CrawlSession(environment, seed=3)
        session.load(hb_publisher)
        session.load(hb_publisher, visit_index=1)
        assert session.pages_loaded == 2

    def test_killed_session_refuses_loads(self, environment, hb_publisher):
        session = CrawlSession(environment, seed=3)
        session.kill()
        with pytest.raises(CrawlError):
            session.load(hb_publisher)

    def test_restart_returns_clean_session(self, environment, hb_publisher):
        session = CrawlSession(environment, seed=3, page_load_timeout_ms=45_000)
        session.load(hb_publisher)
        session.kill()
        fresh = session.restart()
        assert fresh.pages_loaded == 0
        assert not fresh.killed
        assert fresh.page_load_timeout_ms == 45_000


class TestCrawlConfig:
    def test_defaults_follow_paper(self):
        config = CrawlConfig()
        assert config.page_load_timeout_ms == 60_000.0
        assert config.extra_dwell_ms == 5_000.0
        assert config.restart_every_pages == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrawlConfig(page_load_timeout_ms=0)
        with pytest.raises(ConfigurationError):
            CrawlConfig(extra_dwell_ms=-1)
        with pytest.raises(ConfigurationError):
            CrawlConfig(restart_every_pages=0)


class TestCrawler:
    @pytest.fixture(scope="class")
    def crawl_result(self, environment, detector, small_population):
        crawler = Crawler(environment, detector, CrawlConfig(seed=5))
        return crawler.crawl(list(small_population)[:120])

    def test_one_detection_per_site(self, crawl_result):
        assert len(crawl_result.detections) == 120
        assert crawl_result.pages_visited == 120

    def test_adoption_rate_matches_detections(self, crawl_result):
        expected = len(crawl_result.hb_detections) / len(crawl_result.detections)
        assert crawl_result.adoption_rate == pytest.approx(expected)
        assert 0.0 < crawl_result.adoption_rate < 0.5

    def test_clean_state_means_one_session_per_page(self, crawl_result):
        assert crawl_result.sessions_started >= crawl_result.pages_visited

    def test_crawl_domains_restricts_to_requested_sites(self, environment, detector, small_population):
        crawler = Crawler(environment, detector)
        domains = small_population.domains[:5]
        result = crawler.crawl_domains(small_population, domains)
        assert [d.domain for d in result.detections] == list(domains)

    def test_timeouts_are_recorded_and_crawl_continues(self, environment, detector, small_population):
        crawler = Crawler(environment, detector,
                          CrawlConfig(seed=5, page_load_timeout_ms=10.0))
        result = crawler.crawl(list(small_population)[:15])
        assert len(result.timed_out_domains) == 15
        assert len(result.detections) == 15
