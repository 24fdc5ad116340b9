"""DOM-event inspector (detection method 2 of the paper).

The content script HBDetector injects into the page header subscribes to the
auction lifecycle events the wrapper libraries fire.  Observing any of those
events is, by construction of the libraries, sufficient proof that header
bidding is running; their payloads additionally carry the auction metadata the
analysis needs (bidder, CPM, size, time to respond, ad-unit code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.hb.events import HBEventName
from repro.models import DomEvent

__all__ = ["DomObservations", "DomEventInspector"]


#: Events whose presence alone proves header-bidding activity.  The paper's
#: analysis focuses on auctionEnd, bidWon and slotRenderEnded; the inspector
#: additionally uses the lifecycle events to enrich auction metadata.
_HB_PROOF_EVENTS: frozenset[str] = frozenset(
    {
        HBEventName.AUCTION_INIT.value,
        HBEventName.REQUEST_BIDS.value,
        HBEventName.BID_REQUESTED.value,
        HBEventName.BID_RESPONSE.value,
        HBEventName.BID_TIMEOUT.value,
        HBEventName.AUCTION_END.value,
        HBEventName.BID_WON.value,
    }
)

#: Render events fire for any ad served through an ad server tag (including
#: plain waterfall inventory), so alone they are *not* proof of HB.
_RENDER_EVENTS: frozenset[str] = frozenset(
    {HBEventName.SLOT_RENDER_ENDED.value, HBEventName.AD_RENDER_FAILED.value}
)


@dataclass(frozen=True, slots=True, init=False)
class _ObservedDomBid:
    """A bid reported by a ``bidResponse`` or ``bidWon`` event."""

    bidder_code: str
    slot_code: str
    cpm: float | None
    size: str | None
    time_to_respond_ms: float | None
    won: bool
    timestamp_ms: float

    def __init__(
        self,
        bidder_code: str,
        slot_code: str,
        cpm: float | None,
        size: str | None,
        time_to_respond_ms: float | None,
        won: bool,
        timestamp_ms: float,
    ) -> None:
        # Hand-written for the same reason as the detection records
        # (repro.detector.records): one bound setter, no generated wrapper.
        set_ = object.__setattr__.__get__(self)
        set_("bidder_code", bidder_code)
        set_("slot_code", slot_code)
        set_("cpm", cpm)
        set_("size", size)
        set_("time_to_respond_ms", time_to_respond_ms)
        set_("won", won)
        set_("timestamp_ms", timestamp_ms)


@dataclass
class DomObservations:
    """Everything the DOM channel observed on one page."""

    hb_events_seen: bool = False
    library: str | None = None
    auction_ids: list[str] = field(default_factory=list)
    bids: list[_ObservedDomBid] = field(default_factory=list)
    timed_out_bidders: list[str] = field(default_factory=list)
    auction_started_at_ms: float | None = None
    auction_ended_at_ms: float | None = None
    rendered_slots: dict[str, str | None] = field(default_factory=dict)
    failed_slots: list[str] = field(default_factory=list)

    @property
    def bidders_seen(self) -> tuple[str, ...]:
        seen: list[str] = []
        for bid in self.bids:
            if bid.bidder_code not in seen:
                seen.append(bid.bidder_code)
        return tuple(seen)

    @property
    def winning_bids(self) -> tuple[_ObservedDomBid, ...]:
        return tuple(bid for bid in self.bids if bid.won)


class DomEventInspector:
    """Turns a page's DOM event stream into :class:`DomObservations`."""

    def __init__(self, *, proof_events: frozenset[str] = _HB_PROOF_EVENTS) -> None:
        self._proof_events = proof_events

    def inspect(self, events: Sequence[DomEvent]) -> DomObservations:
        observations = DomObservations()
        for event in events:
            if event.name in self._proof_events:
                observations.hb_events_seen = True
                self._absorb_library(observations, event.payload)
            if event.name == HBEventName.AUCTION_INIT.value:
                self._on_auction_init(observations, event)
            elif event.name == HBEventName.BID_RESPONSE.value:
                self._on_bid(observations, event, won=False)
            elif event.name == HBEventName.BID_WON.value:
                self._on_bid(observations, event, won=True)
            elif event.name == HBEventName.BID_TIMEOUT.value:
                self._on_bid_timeout(observations, event)
            elif event.name == HBEventName.AUCTION_END.value:
                self._on_auction_end(observations, event)
            elif event.name == HBEventName.SLOT_RENDER_ENDED.value:
                self._on_render(observations, event)
            elif event.name == HBEventName.AD_RENDER_FAILED.value:
                slot = str(event.get("adUnitCode", ""))
                if slot:
                    observations.failed_slots.append(slot)
        return observations

    # -- event handlers ---------------------------------------------------------
    @staticmethod
    def _absorb_library(observations: DomObservations, payload: Mapping[str, object]) -> None:
        library = payload.get("library")
        if observations.library is None and isinstance(library, str) and library:
            observations.library = library

    @staticmethod
    def _on_auction_init(observations: DomObservations, event: DomEvent) -> None:
        auction_id = str(event.get("auctionId", ""))
        if auction_id and auction_id not in observations.auction_ids:
            observations.auction_ids.append(auction_id)
        if observations.auction_started_at_ms is None:
            observations.auction_started_at_ms = event.timestamp_ms

    @staticmethod
    def _on_bid(observations: DomObservations, event: DomEvent, *, won: bool) -> None:
        cpm_raw = event.get("cpm")
        time_raw = event.get("timeToRespond")
        observations.bids.append(
            _ObservedDomBid(
                bidder_code=str(event.get("bidder", "unknown")),
                slot_code=str(event.get("adUnitCode", "")),
                cpm=float(cpm_raw) if isinstance(cpm_raw, (int, float)) else None,
                size=str(event.get("size")) if event.get("size") else None,
                time_to_respond_ms=(
                    float(time_raw) if isinstance(time_raw, (int, float)) else None
                ),
                won=won,
                timestamp_ms=event.timestamp_ms,
            )
        )

    @staticmethod
    def _on_bid_timeout(observations: DomObservations, event: DomEvent) -> None:
        bidders = event.get("bidders", [])
        if isinstance(bidders, (list, tuple)):
            observations.timed_out_bidders.extend(str(bidder) for bidder in bidders)

    @staticmethod
    def _on_auction_end(observations: DomObservations, event: DomEvent) -> None:
        observations.auction_ended_at_ms = event.timestamp_ms
        if observations.auction_started_at_ms is None:
            duration = event.get("auctionDuration")
            if isinstance(duration, (int, float)):
                observations.auction_started_at_ms = event.timestamp_ms - float(duration)

    @staticmethod
    def _on_render(observations: DomObservations, event: DomEvent) -> None:
        slot = str(event.get("adUnitCode", "") or event.get("slotId", ""))
        if not slot:
            return
        campaign = event.get("campaign")
        observations.rendered_slots[slot] = str(campaign) if campaign else None
