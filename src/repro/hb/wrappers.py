"""Wrapper base class and factory.

A *wrapper* is the JavaScript library embedded in the page header that drives
the header-bidding auction (Prebid.js for most publishers).  The simulation
models the wrapper as the component that (i) decides which lifecycle events
are emitted on the DOM bus and with which payloads, and (ii) delegates the
actual auction mechanics to the facet executors in
:mod:`repro.hb.client_side`, :mod:`repro.hb.server_side` and
:mod:`repro.hb.hybrid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.ecosystem.publishers import Publisher
from repro.errors import ConfigurationError
from repro.hb.auction import HeaderBiddingOutcome
from repro.hb.environment import AuctionEnvironment
from repro.hb.events import HBEventName, price_bucket
from repro.models import HBFacet, WrapperKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.browser.context import BrowserContext

__all__ = ["HBWrapper", "build_wrapper", "wrapper_class_for"]


class HBWrapper:
    """Base class for the wrapper libraries.

    Subclasses override :attr:`kind`, :attr:`emits_auction_lifecycle` and
    :attr:`library_name` to model the observable differences between the
    libraries the paper analysed.  The auction mechanics themselves are shared
    and live in the facet executors.
    """

    #: Which library family this wrapper belongs to.
    kind: WrapperKind = WrapperKind.CUSTOM
    #: Script name reported in event payloads (used by static analysis too).
    library_name: str = "hb-wrapper.js"
    #: Whether the library fires the fine-grained auction lifecycle events
    #: (auctionInit / bidRequested / bidResponse) in addition to the coarse
    #: ones (auctionEnd / bidWon / slotRenderEnded) every wrapper fires.
    emits_auction_lifecycle: bool = True

    def __init__(self, publisher: Publisher, context: "BrowserContext",
                 environment: AuctionEnvironment) -> None:
        if not publisher.uses_hb:
            raise ConfigurationError(
                f"cannot attach an HB wrapper to non-HB publisher {publisher.domain}"
            )
        self.publisher = publisher
        self.context = context
        self.environment = environment

    # -- event emission helpers ------------------------------------------------
    def _base_payload(self, **extra: object) -> dict[str, object]:
        payload: dict[str, object] = {"library": self.library_name}
        payload.update(extra)
        return payload

    def emit(self, event: HBEventName, **payload: object) -> None:
        self.context.dom.emit(event.value, self._base_payload(**payload))

    def emit_auction_init(self, auction_id: str) -> None:
        if self.emits_auction_lifecycle:
            self.emit(HBEventName.AUCTION_INIT, auctionId=auction_id,
                      adUnitCodes=[slot.code for slot in self.publisher.auctioned_slots],
                      timeout=self.publisher.timeout_ms)
            self.emit(HBEventName.REQUEST_BIDS, auctionId=auction_id)

    def emit_bid_requested(self, auction_id: str, bidder_code: str) -> None:
        if self.emits_auction_lifecycle:
            self.emit(HBEventName.BID_REQUESTED, auctionId=auction_id, bidder=bidder_code)

    def emit_bid_response(self, auction_id: str, *, bidder_code: str, slot_code: str,
                          cpm: float, size_label: str, latency_ms: float) -> None:
        if self.emits_auction_lifecycle:
            self.emit(
                HBEventName.BID_RESPONSE,
                auctionId=auction_id,
                bidder=bidder_code,
                adUnitCode=slot_code,
                cpm=round(cpm, 5),
                hb_pb=price_bucket(cpm),
                size=size_label,
                timeToRespond=round(latency_ms, 1),
                currency="USD",
            )

    def emit_bid_timeout(self, auction_id: str, bidder_codes: list[str]) -> None:
        if self.emits_auction_lifecycle and bidder_codes:
            self.emit(HBEventName.BID_TIMEOUT, auctionId=auction_id, bidders=bidder_codes)

    def emit_auction_end(self, auction_id: str, *, n_bids: int, latency_ms: float) -> None:
        self.emit(HBEventName.AUCTION_END, auctionId=auction_id, bidsReceived=n_bids,
                  auctionDuration=round(latency_ms, 1))

    def emit_bid_won(self, auction_id: str, *, bidder_code: str, slot_code: str,
                     cpm: float, size_label: str) -> None:
        self.emit(
            HBEventName.BID_WON,
            auctionId=auction_id,
            bidder=bidder_code,
            adUnitCode=slot_code,
            cpm=round(cpm, 5),
            hb_pb=price_bucket(cpm),
            size=size_label,
            currency="USD",
        )

    def emit_slot_render_ended(self, *, slot_code: str, size_label: str, is_empty: bool,
                               campaign: str | None = None) -> None:
        self.emit(
            HBEventName.SLOT_RENDER_ENDED,
            adUnitCode=slot_code,
            slotId=slot_code,
            size=size_label,
            isEmpty=is_empty,
            campaign=campaign or "",
        )

    def emit_ad_render_failed(self, *, slot_code: str, reason: str) -> None:
        self.emit(HBEventName.AD_RENDER_FAILED, adUnitCode=slot_code, reason=reason)

    # -- execution ---------------------------------------------------------------
    def run(self) -> HeaderBiddingOutcome:
        """Run the publisher's header-bidding auction for this page load."""
        from repro.hb import client_side, hybrid, server_side

        facet = self.publisher.facet
        if facet is HBFacet.CLIENT_SIDE:
            return client_side.run_client_side(self)
        if facet is HBFacet.SERVER_SIDE:
            return server_side.run_server_side(self)
        if facet is HBFacet.HYBRID:
            return hybrid.run_hybrid(self)
        raise ConfigurationError(f"unknown HB facet: {facet!r}")


#: Wrapper class per library kind, resolved once (the concrete classes live in
#: modules that import this one, hence the lazy first-call fill).
_WRAPPER_CLASSES: dict[WrapperKind, type[HBWrapper]] = {}


def wrapper_class_for(kind: WrapperKind) -> type[HBWrapper]:
    """The wrapper class modelling the given library family.

    Exposed separately from :func:`build_wrapper` so code that only needs the
    class-level observables (``library_name``, ``emits_auction_lifecycle``)
    — e.g. the columnar batch simulator — can read them without
    instantiating a wrapper against a live browser context.
    """
    if not _WRAPPER_CLASSES:
        from repro.hb.gpt import GptWrapper
        from repro.hb.prebid import PrebidWrapper
        from repro.hb.pubfood import PubfoodWrapper

        _WRAPPER_CLASSES.update({
            WrapperKind.PREBID: PrebidWrapper,
            WrapperKind.GPT: GptWrapper,
            WrapperKind.PUBFOOD: PubfoodWrapper,
            WrapperKind.CUSTOM: HBWrapper,
        })
    return _WRAPPER_CLASSES.get(kind, HBWrapper)


def build_wrapper(publisher: Publisher, context: "BrowserContext",
                  environment: AuctionEnvironment) -> HBWrapper:
    """Instantiate the wrapper class matching the publisher's configuration."""
    cls = wrapper_class_for(publisher.wrapper)
    return cls(publisher, context, environment)
