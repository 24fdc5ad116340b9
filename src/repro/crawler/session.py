"""Crawl sessions: clean-slate browser instances.

The paper stresses that every page visit starts from a clean state — no
cookies, no history, no user profile — so that bids reflect a "vanilla"
profile and measurements are independent.  A :class:`CrawlSession` owns one
browser engine configuration and hands out page loads; it can be killed and
re-created, mirroring how the crawler restarts Chrome after a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.browser.engine import BrowserEngine, PageLoadResult
from repro.ecosystem.publishers import Publisher
from repro.errors import CrawlError
from repro.hb.environment import AuctionEnvironment

__all__ = ["CrawlSession"]


@dataclass
class CrawlSession:
    """One logical browser session used by the crawler.

    The session tracks how many pages it served and whether it has been
    killed; a killed session refuses further loads, forcing the crawler to
    start a fresh one (which is also what guarantees the clean state).
    """

    environment: AuctionEnvironment
    seed: int = 2019
    page_load_timeout_ms: float = 60_000.0
    extra_dwell_ms: float = 5_000.0
    pages_loaded: int = 0
    killed: bool = False
    _engine: BrowserEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._engine = BrowserEngine(
            self.environment,
            seed=self.seed,
            page_load_timeout_ms=self.page_load_timeout_ms,
            extra_dwell_ms=self.extra_dwell_ms,
        )

    def load(self, publisher: Publisher, *, visit_index: int = 0) -> PageLoadResult:
        """Load one page with a clean browser state."""
        if self.killed:
            raise CrawlError("cannot load pages with a killed session")
        result = self._engine.load(publisher, visit_index=visit_index)
        self.pages_loaded += 1
        return result

    def kill(self) -> None:
        """Terminate the session (after a timeout or at crawler shutdown)."""
        self.killed = True

    def restart(self) -> "CrawlSession":
        """Return a brand new clean session with the same configuration."""
        return CrawlSession(
            environment=self.environment,
            seed=self.seed,
            page_load_timeout_ms=self.page_load_timeout_ms,
            extra_dwell_ms=self.extra_dwell_ms,
        )
