"""Entry point for running a publisher's header bidding during a page load.

This is the seam between the browser engine and the HB protocol package: the
engine hands over the publisher, the browser context and the auction
environment; the runner instantiates the right wrapper and executes the
publisher's facet, returning the ground-truth outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ecosystem.publishers import Publisher
from repro.hb.auction import HeaderBiddingOutcome
from repro.hb.environment import AuctionEnvironment
from repro.hb.wrappers import build_wrapper, wrapper_class_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.browser.context import BrowserContext

__all__ = ["run_header_bidding", "wrapper_traits"]


def run_header_bidding(
    publisher: Publisher,
    context: "BrowserContext",
    environment: AuctionEnvironment,
) -> HeaderBiddingOutcome | None:
    """Run header bidding for one page load.

    Returns ``None`` when the publisher does not deploy HB at all, so that the
    browser engine can use the same call site for every page.
    """
    if not publisher.uses_hb:
        return None
    wrapper = build_wrapper(publisher, context, environment)
    return wrapper.run()


def wrapper_traits(publisher: Publisher) -> tuple[str, bool]:
    """``(library_name, emits_auction_lifecycle)`` for the publisher's wrapper.

    The columnar batch simulator needs exactly these two class-level
    observables to reproduce the wrapper's DOM-event footprint without
    instantiating one; routing the lookup through here keeps the dispatch
    table in :mod:`repro.hb.wrappers` the single source of truth.
    """
    cls = wrapper_class_for(publisher.wrapper)
    return cls.library_name, cls.emits_auction_lifecycle
