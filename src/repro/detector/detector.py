"""The combined HBDetector.

This is the reproduction of the paper's tool: it fuses the DOM-event channel
(method 2) and the web-request channel (method 3) into a single per-page
verdict — is header bidding present, through which facet, with which partners,
auctions, bids, prices and latencies.  Static analysis (method 1) is kept
separate in :mod:`repro.detector.static_analysis` because the live detector
deliberately avoids it.

The detector's only inputs are the page's DOM events and web requests (plus
the site's identity).  It never touches the simulation's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.browser.engine import PageLoadResult
from repro.detector.dom_inspector import DomEventInspector, DomObservations
from repro.detector.facets import classify_facet
from repro.detector.partner_list import KnownPartnerList, build_known_partner_list
from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.detector.webrequest_inspector import WebRequestInspector, WebRequestObservations
from repro.models import DomEvent, HBFacet, RequestDirection, WebRequest

__all__ = ["HBDetector"]


class HBDetector:
    """Detect and characterise header-bidding activity on crawled pages."""

    def __init__(self, known_partners: KnownPartnerList | None = None) -> None:
        self.known_partners = known_partners or build_known_partner_list()
        self._dom_inspector = DomEventInspector()
        self._web_inspector = WebRequestInspector(self.known_partners)

    # -- worker lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Drop any inspector state, guaranteeing a clean slate per shard.

        Inspection is stateless page to page by design, so this is a cheap
        invariant-enforcement hook (called by workers at shard start), not a
        correctness requirement today.
        """
        self._dom_inspector = DomEventInspector()
        self._web_inspector = WebRequestInspector(self.known_partners)

    # -- public API -----------------------------------------------------------
    def inspect_page(self, result: PageLoadResult, *, crawl_day: int = 0) -> SiteDetection:
        """Inspect one page load and produce its :class:`SiteDetection`."""
        return self.inspect(
            domain=result.domain,
            rank=result.rank,
            dom_events=result.dom_events,
            web_requests=result.web_requests,
            crawl_day=crawl_day,
            page_load_ms=result.page_load_ms,
        )

    def inspect(
        self,
        *,
        domain: str,
        rank: int,
        dom_events: Sequence[DomEvent],
        web_requests: Sequence[WebRequest],
        crawl_day: int = 0,
        page_load_ms: float | None = None,
    ) -> SiteDetection:
        """Inspect raw observations (extension-level inputs) for one page."""
        ordered_requests = sorted(
            web_requests,
            key=lambda request: (
                request.timestamp_ms,
                0 if request.direction is RequestDirection.OUTGOING else 1,
            ),
        )
        dom = self._dom_inspector.inspect(list(dom_events))
        web = self._web_inspector.inspect(ordered_requests)
        return self.detect_from_observations(
            domain=domain,
            rank=rank,
            dom=dom,
            web=web,
            crawl_day=crawl_day,
            page_load_ms=page_load_ms,
        )

    def detect_from_observations(
        self,
        *,
        domain: str,
        rank: int,
        dom: DomObservations,
        web: WebRequestObservations,
        crawl_day: int = 0,
        page_load_ms: float | None = None,
    ) -> SiteDetection:
        """Produce a :class:`SiteDetection` from pre-built observations.

        This is the seam the columnar batch simulator uses: it synthesises
        :class:`DomObservations` and :class:`WebRequestObservations` directly
        (without materialising ``DomEvent``/``WebRequest`` objects) and hands
        them to the same classification and reconstruction pipeline the
        event-level :meth:`inspect` uses, so both paths cannot drift apart.
        """
        facet = classify_facet(dom, web)
        if facet is None:
            return SiteDetection(
                domain=domain,
                rank=rank,
                hb_detected=False,
                crawl_day=crawl_day,
                page_load_ms=page_load_ms,
            )

        partners = self._visible_partners(web)
        auctions = self._reconstruct_auctions(dom, web, facet)
        total_latency = self._total_latency(web, facet, auctions)
        channels = self._detection_channels(dom, web)

        return SiteDetection(
            domain=domain,
            rank=rank,
            hb_detected=True,
            facet=facet,
            library=dom.library,
            partners=partners,
            auctions=auctions,
            partner_latencies_ms=web.partner_latencies_ms,
            total_latency_ms=total_latency,
            detection_channels=channels,
            crawl_day=crawl_day,
            page_load_ms=page_load_ms,
        )

    # -- assembly helpers -------------------------------------------------------
    def _visible_partners(self, web: WebRequestObservations) -> tuple[str, ...]:
        partners = list(web.partners_contacted)
        if web.ad_server_partner and web.ad_server_partner not in partners:
            partners.append(web.ad_server_partner)
        return tuple(partners)

    @staticmethod
    def _detection_channels(dom: DomObservations, web: WebRequestObservations) -> tuple[str, ...]:
        channels = []
        if dom.hb_events_seen:
            channels.append("dom-events")
        if web.any_hb_traffic or web.exchanges:
            channels.append("web-requests")
        return tuple(channels)

    def _reconstruct_auctions(
        self,
        dom: DomObservations,
        web: WebRequestObservations,
        facet: HBFacet,
    ) -> tuple[ObservedAuction, ...]:
        """Assemble per-slot auction records from both observation channels."""
        # The "ad server was called" marker, after which arriving bids are late:
        # the key-value push when it is observable, otherwise the wrapper's own
        # auctionEnd event (the wrapper calls the ad server right after it).
        push_time = web.ad_server_push.timestamp_ms if web.ad_server_push else None
        if push_time is None and dom.auction_ended_at_ms is not None:
            push_time = dom.auction_ended_at_ms
        start = self._auction_start(dom, web)
        end = self._auction_end(dom, web, start)

        bids_by_slot: dict[str, dict[str, ObservedBid]] = {}
        sizes_by_slot: dict[str, str] = {}

        def add_bid(slot_code: str, bid: ObservedBid) -> None:
            slot_bids = bids_by_slot.setdefault(slot_code, {})
            key = bid.bidder_code.lower()
            existing = slot_bids.get(key)
            if existing is None or (bid.won and not existing.won):
                slot_bids[key] = bid
            if bid.size and slot_code not in sizes_by_slot:
                sizes_by_slot[slot_code] = bid.size

        # 1. Bids announced by the wrapper's DOM events (client-side visible,
        #    always on time — the wrapper only reports bids it accepted).
        winners_from_dom: set[tuple[str, str]] = set()
        for dom_bid in dom.bids:
            if dom_bid.won:
                winners_from_dom.add((dom_bid.bidder_code, dom_bid.slot_code))
        for dom_bid in dom.bids:
            partner = (
                self.known_partners.name_for_bidder_code(dom_bid.bidder_code)
                or dom_bid.bidder_code
            )
            # Positional constructor calls here and below: this loop builds
            # every bid of every HB page (field order as in ObservedBid).
            add_bid(
                dom_bid.slot_code,
                ObservedBid(
                    partner,
                    dom_bid.bidder_code,
                    dom_bid.slot_code,
                    dom_bid.cpm,
                    dom_bid.size,
                    dom_bid.time_to_respond_ms,
                    False,
                    (dom_bid.bidder_code, dom_bid.slot_code) in winners_from_dom,
                    "client",
                ),
            )

        # 2. Bids visible only in partner responses (late bids, and all bids on
        #    pages whose wrapper does not emit lifecycle events).
        for exchange in web.exchanges:
            hb_params = exchange.response_hb_params
            if hb_params.is_empty:
                continue
            bidder_code = (
                exchange.response_params.get("bidder")
                or hb_params.global_values.get("hb_bidder")
                or exchange.partner
            )
            for slot_code in hb_params.slot_codes:
                cpm = hb_params.price_for_slot(slot_code)
                if cpm is None:
                    continue
                late = bool(
                    push_time is not None
                    and exchange.response_at_ms is not None
                    and exchange.response_at_ms > push_time
                )
                add_bid(
                    slot_code,
                    ObservedBid(
                        exchange.partner,
                        hb_params.bidder_for_slot(slot_code) or bidder_code,
                        slot_code,
                        cpm,
                        hb_params.size_for_slot(slot_code),
                        exchange.latency_ms,
                        late,
                        False,
                        "client",
                    ),
                )

        # 3. Winners reported by ad-server / aggregator responses (server-side
        #    and hybrid facets).  Each response names its slot either through
        #    suffixed hb_* keys or through its own ``slot`` parameter.
        for exchange in web.exchanges:
            hb_params = exchange.response_hb_params
            if hb_params.is_empty or "hb_bidder" not in hb_params.global_values:
                continue
            slot_code = exchange.response_params.get("slot", "")
            if not slot_code:
                continue
            bidder_code = hb_params.global_values["hb_bidder"]
            winner_name = self.known_partners.name_for_bidder_code(bidder_code) or bidder_code
            add_bid(
                slot_code,
                ObservedBid(
                    winner_name,
                    bidder_code,
                    slot_code,
                    hb_params.price_for_slot(slot_code),
                    hb_params.size_for_slot(slot_code),
                    None,
                    False,
                    True,
                    "server",
                ),
            )

        # 4. Slots that only appear in the key-value push (no bid arrived but
        #    an auction clearly ran for them).
        if web.ad_server_push_params is not None:
            for slot_code in web.ad_server_push_params.slot_codes:
                bids_by_slot.setdefault(slot_code, {})
                size = web.ad_server_push_params.size_for_slot(slot_code)
                if size and slot_code not in sizes_by_slot:
                    sizes_by_slot[slot_code] = size
        # 5. Rendered slots with no other trace.
        for slot_code in dom.rendered_slots:
            bids_by_slot.setdefault(slot_code, {})

        end = max(end, start)
        return tuple([
            ObservedAuction(
                slot_code, sizes_by_slot.get(slot_code), tuple(slot_bids.values()), start, end, facet
            )
            for slot_code, slot_bids in bids_by_slot.items()
        ])

    @staticmethod
    def _auction_start(dom: DomObservations, web: WebRequestObservations) -> float:
        candidates = []
        if web.first_partner_request_at_ms is not None:
            candidates.append(web.first_partner_request_at_ms)
        if dom.auction_started_at_ms is not None:
            candidates.append(dom.auction_started_at_ms)
        for exchange in web.exchanges:
            if exchange.request_at_ms is not None:
                candidates.append(exchange.request_at_ms)
        return min(candidates) if candidates else 0.0

    @staticmethod
    def _auction_end(dom: DomObservations, web: WebRequestObservations, start: float) -> float:
        if web.ad_server_response_at_ms is not None:
            return web.ad_server_response_at_ms
        hb_response_times = [timestamp for _, timestamp, _ in web.hb_responses]
        if hb_response_times:
            return max(hb_response_times)
        if dom.auction_ended_at_ms is not None:
            return dom.auction_ended_at_ms
        exchange_times = [
            exchange.response_at_ms
            for exchange in web.exchanges
            if exchange.response_at_ms is not None
        ]
        if exchange_times:
            return max(exchange_times)
        return start

    def _total_latency(
        self,
        web: WebRequestObservations,
        facet: HBFacet,
        auctions: tuple[ObservedAuction, ...],
    ) -> float | None:
        """Page-level HB latency (first bid request to ad-server response)."""
        if facet is HBFacet.SERVER_SIDE:
            latencies = [
                exchange.latency_ms
                for exchange in web.exchanges
                if exchange.latency_ms is not None and exchange.carries_hb_response
            ]
            if latencies:
                return max(latencies)
            latencies = [
                exchange.latency_ms for exchange in web.exchanges if exchange.latency_ms is not None
            ]
            return max(latencies) if latencies else None
        if not auctions:
            return None
        start = min(auction.start_ms for auction in auctions)
        end = max(auction.end_ms for auction in auctions)
        if end <= start:
            return None
        return end - start
