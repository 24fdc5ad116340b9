"""Page-load engine.

The engine is the simulated Chrome instance: given a publisher it fetches the
page, loads the header (which is where HB wrappers execute, before anything
else), runs the header-bidding auction or background waterfall activity, loads
the rest of the content and reports everything an extension-level observer
could have seen, bundled into a :class:`PageLoadResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.browser.context import BrowserContext
from repro.browser.page import Page, build_page
from repro.ecosystem.publishers import Publisher
from repro.errors import PageLoadTimeout
from repro.hb.auction import HeaderBiddingOutcome
from repro.hb.environment import AuctionEnvironment
from repro.hb.runner import run_header_bidding
from repro.hb.waterfall import (
    WaterfallOutcome,
    build_waterfall_chain,
    default_waterfall_slot,
    run_waterfall,
)
from repro.models import DomEvent, PageTimings, WebRequest
from repro.utils.rng import derive_rng, fast_uniform

__all__ = ["PageLoadResult", "BrowserEngine", "NON_HB_AD_PROBABILITY"]

#: Probability that a page without header bidding still serves ads through
#: the traditional waterfall, producing background ad traffic.  The columnar
#: simulator reads the same constant for its per-page waterfall gate.
NON_HB_AD_PROBABILITY: float = 0.55


@dataclass(frozen=True, slots=True)
class PageLoadResult:
    """Everything observable (and the hidden ground truth) of one page load.

    ``dom_events`` and ``web_requests`` are the only fields HBDetector is
    allowed to read; ``hb_ground_truth`` and ``waterfall_ground_truth`` exist
    so that detection accuracy and analysis results can be validated.
    """

    url: str
    domain: str
    rank: int
    timings: PageTimings
    dom_events: tuple[DomEvent, ...]
    web_requests: tuple[WebRequest, ...]
    page_html: str
    hb_ground_truth: HeaderBiddingOutcome | None = None
    waterfall_ground_truth: tuple[WaterfallOutcome, ...] = ()
    timed_out: bool = False

    @property
    def page_load_ms(self) -> float:
        return self.timings.page_load_ms


class BrowserEngine:
    """Loads pages of the simulated Web with a clean state per navigation.

    Parameters
    ----------
    environment:
        The demand-side view used by the HB wrappers and the waterfall.
    seed:
        Base seed; every (domain, visit_index) pair derives its own stream.
    page_load_timeout_ms:
        The crawler's upper bound on a page load (the paper uses 60 s); pages
        exceeding it are reported with ``timed_out=True``.
    """

    def __init__(
        self,
        environment: AuctionEnvironment,
        *,
        seed: int = 2019,
        page_load_timeout_ms: float = 60_000.0,
        extra_dwell_ms: float = 5_000.0,
    ) -> None:
        if page_load_timeout_ms <= 0:
            raise ValueError("page load timeout must be positive")
        self.environment = environment
        self.seed = seed
        self.page_load_timeout_ms = page_load_timeout_ms
        self.extra_dwell_ms = extra_dwell_ms

    # -- helpers ----------------------------------------------------------------
    def _load_baseline_resources(self, context: BrowserContext, page: Page) -> None:
        """Record the page's ordinary (non-ad) resource fetches."""
        rng = context.rng
        requests = context.requests
        clock = context.clock
        for host, path in page.baseline_resources:
            requests.record_fetch(host, path, initiator=page.url)
            clock.advance(float(rng.uniform(5.0, 40.0)))
        for script_url in page.header_script_urls:
            requests.record_outgoing(script_url, initiator=page.url)
            clock.advance(fast_uniform(rng, 3.0, 20.0))

    def _run_background_waterfall(
        self, context: BrowserContext, publisher: Publisher
    ) -> tuple[WaterfallOutcome, ...]:
        """Ad activity on non-HB pages: the traditional waterfall, if any."""
        rng = context.rng
        if rng.random() > NON_HB_AD_PROBABILITY:
            return ()
        outcomes = []
        n_slots = int(rng.integers(1, 4))
        chain = build_waterfall_chain(self.environment.registry, rng)
        for index in range(n_slots):
            slot = default_waterfall_slot(rng, code=f"wf-{publisher.domain}-{index}")
            outcome = run_waterfall(
                slot,
                chain,
                self.environment,
                rng,
                context=context,
                page_url=publisher.url,
                latency_scale=publisher.latency_scale,
            )
            outcomes.append(outcome)
            context.clock.advance(outcome.total_latency_ms * 0.25)
        return tuple(outcomes)

    # -- main entry point ---------------------------------------------------------
    def load(self, publisher: Publisher, *, visit_index: int = 0) -> PageLoadResult:
        """Load one publisher page with a clean-slate browser instance."""
        rng = derive_rng(self.seed, "visit", publisher.domain, visit_index)
        context = BrowserContext.clean_slate(rng)
        page = build_page(publisher, seed=self.seed)

        navigation_start = context.clock.now()
        context.requests.record_outgoing(page.url, initiator="")
        context.clock.advance(page.html_fetch_ms)
        header_parsed = context.clock.now()

        hb_outcome: HeaderBiddingOutcome | None = None
        waterfall_outcomes: tuple[WaterfallOutcome, ...] = ()
        if publisher.uses_hb:
            hb_outcome = run_header_bidding(publisher, context, self.environment)
        else:
            waterfall_outcomes = self._run_background_waterfall(context, publisher)

        self._load_baseline_resources(context, page)
        context.clock.advance(page.content_load_ms)
        dom_content_loaded = header_parsed + page.content_load_ms * 0.6
        load_event = context.clock.now()
        context.clock.advance(self.extra_dwell_ms)

        timed_out = load_event - navigation_start > self.page_load_timeout_ms
        timings = PageTimings(
            navigation_start_ms=navigation_start,
            header_parsed_ms=header_parsed,
            dom_content_loaded_ms=max(header_parsed, min(dom_content_loaded, load_event)),
            load_event_ms=load_event,
        )
        return PageLoadResult(
            url=page.url,
            domain=publisher.domain,
            rank=publisher.rank,
            timings=timings,
            dom_events=context.dom.events,
            web_requests=context.requests.requests,
            page_html=page.html,
            hb_ground_truth=hb_outcome,
            waterfall_ground_truth=waterfall_outcomes,
            timed_out=timed_out,
        )
