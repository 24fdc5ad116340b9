"""Hybrid header bidding execution (§4.5 of the paper).

The hybrid facet combines the two others: the browser collects bids from the
publisher's configured partners exactly like client-side HB, pushes them to a
DFP-style ad server, and that ad server *also* runs its own internal auction
among its affiliated partners before choosing the overall winner.  The client
therefore observes the full client-side activity plus an ad-server response
that may name a winner which never appeared among the client-side bidders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ecosystem.partners import DemandPartner, PartnerResponse
from repro.hb.auction import BidOutcome, HeaderBiddingOutcome, SlotAuctionOutcome
from repro.hb.client_side import (
    _ad_server_call_time,
    _render_and_notify,
    dispatch_bid_requests,
    push_to_ad_server,
)
from repro.hb.events import HBParam, price_bucket
from repro.models import HBFacet, SaleChannel
from repro.utils.rng import fast_uniform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hb.wrappers import HBWrapper

__all__ = ["run_hybrid"]


def run_hybrid(wrapper: "HBWrapper") -> HeaderBiddingOutcome:
    """Execute one hybrid header-bidding page load."""
    context = wrapper.context
    publisher = wrapper.publisher
    environment = wrapper.environment
    rng = context.rng
    facet = HBFacet.HYBRID

    ad_server = publisher.ad_server
    assert ad_server is not None, "hybrid publishers always have a partner-operated ad server"

    auction_id = context.ids.next("auction")
    auction_start = context.clock.now()
    wrapper.emit_auction_init(auction_id)

    slots = publisher.auctioned_slots
    client_partners = tuple(p for p in publisher.partners if p is not ad_server) or publisher.partners
    replies = dispatch_bid_requests(
        wrapper,
        client_partners,
        slots,
        auction_id,
        facet=facet,
    )
    ad_server_call = _ad_server_call_time(wrapper, replies, auction_start)

    on_time: dict[str, dict[str, PartnerResponse]] = {slot.code: {} for slot in slots}
    timed_out: list[str] = []
    for reply in replies:
        reply.late = reply.responded_at_ms > ad_server_call
        response_params: dict[str, object] = {"bidder": reply.partner.bidder_code}
        for slot_code, response in reply.responses.items():
            if response.bid_cpm is None:
                continue
            response_params[f"{HBParam.CPM.value}_{slot_code}"] = f"{response.bid_cpm:.5f}"
            response_params[f"{HBParam.SIZE.value}_{slot_code}"] = response.size.label
        context.requests.record_incoming(
            reply.partner.bid_endpoint(),
            params=response_params,
            initiator=publisher.url,
            timestamp_ms=reply.responded_at_ms,
        )
        if reply.late:
            timed_out.append(reply.partner.bidder_code)
            continue
        for slot_code, response in reply.responses.items():
            if response.bid_cpm is None:
                continue
            on_time[slot_code][reply.partner.bidder_code] = response
            wrapper.emit_bid_response(
                auction_id,
                bidder_code=reply.partner.bidder_code,
                slot_code=slot_code,
                cpm=response.bid_cpm,
                size_label=response.size.label,
                latency_ms=reply.responded_at_ms - reply.dispatched_at_ms,
            )

    wrapper.emit_bid_timeout(auction_id, timed_out)
    n_on_time = sum(len(bids) for bids in on_time.values())
    context.clock.advance_to(ad_server_call)
    wrapper.emit_auction_end(auction_id, n_bids=n_on_time,
                             latency_ms=ad_server_call - auction_start)

    # Push the client-side bids to the partner-operated ad server.  The ad
    # server's answer takes longer than a plain DFP round trip because it runs
    # its own internal auction among affiliated partners first.
    base_response = push_to_ad_server(
        wrapper, slots, on_time, auction_id, ad_server_call,
        ad_server_host=ad_server.primary_domain, facet=facet,
    )
    internal_delay = ad_server.latency.sample(rng, scale=publisher.latency_scale * 0.5)
    ad_server_response = base_response + internal_delay
    context.clock.advance_to(ad_server_response)

    internal_bidders = environment.sample_internal_bidders(
        rng, exclude=(ad_server, *client_partners)
    )
    bidders_by_code = {partner.bidder_code: partner for partner in client_partners}
    render_url = f"https://{ad_server.primary_domain}/gampad/render"

    slot_outcomes: list[SlotAuctionOutcome] = []
    winners_for_render: dict[str, tuple[str | None, float]] = {}
    for slot in slots:
        # The ad server compares the best client-side bid with the best bid
        # from its internal auction.
        client_bids = on_time.get(slot.code, {})
        best_client_code: str | None = None
        best_client_cpm = 0.0
        for code, response in client_bids.items():
            if response.bid_cpm is not None and response.bid_cpm > best_client_cpm:
                best_client_code, best_client_cpm = code, response.bid_cpm

        internal_results: list[tuple[DemandPartner, float | None]] = []
        for bidder in internal_bidders:
            response = environment.partner_response(
                rng, bidder, slot, facet, latency_scale=publisher.latency_scale
            )
            internal_results.append((bidder, response.bid_cpm))
        internal_priced = [(p, cpm) for p, cpm in internal_results if cpm is not None]
        best_internal: tuple[DemandPartner, float] | None = None
        if internal_priced:
            best_internal = max(internal_priced, key=lambda pair: pair[1])

        winner_name: str | None = None
        winner_code: str | None = None
        clearing_cpm = 0.0
        if best_client_code is not None and (best_internal is None or best_client_cpm >= best_internal[1]):
            winner_code = best_client_code
            winner_name = bidders_by_code[best_client_code].name
            clearing_cpm = best_client_cpm
        elif best_internal is not None:
            winner_name = best_internal[0].name
            winner_code = best_internal[0].bidder_code
            clearing_cpm = best_internal[1]

        # The ad-server response names the winner with HB parameters, which is
        # what lets the detector attribute hybrid wins to partners that never
        # appeared client-side.
        response_params: dict[str, object] = {"correlator": auction_id, "slot": slot.code}
        if winner_code is not None:
            response_params[HBParam.BIDDER.value] = winner_code
            response_params[HBParam.PRICE_BUCKET.value] = price_bucket(clearing_cpm)
            response_params[HBParam.SIZE.value] = slot.primary_size.label
            response_params[HBParam.SOURCE.value] = "hybrid"
        context.requests.record_incoming(
            render_url,
            params=response_params,
            initiator=publisher.url,
            timestamp_ms=ad_server_response,
        )

        bids: list[BidOutcome] = []
        for reply in replies:
            response = reply.responses[slot.code]
            bids.append(
                BidOutcome(
                    partner_name=reply.partner.name,
                    bidder_code=reply.partner.bidder_code,
                    slot_code=slot.code,
                    size=response.size,
                    cpm=response.bid_cpm,
                    requested_at_ms=reply.dispatched_at_ms,
                    responded_at_ms=reply.responded_at_ms,
                    late=reply.late,
                    won=(winner_code == reply.partner.bidder_code and response.bid_cpm is not None),
                )
            )
        for partner, cpm in internal_priced:
            bids.append(
                BidOutcome(
                    partner_name=partner.name,
                    bidder_code=partner.bidder_code,
                    slot_code=slot.code,
                    size=slot.primary_size,
                    cpm=cpm,
                    requested_at_ms=ad_server_call,
                    responded_at_ms=ad_server_response,
                    late=False,
                    won=(winner_name == partner.name),
                )
            )

        winners_for_render[slot.code] = (winner_code, clearing_cpm)
        slot_outcomes.append(
            SlotAuctionOutcome(
                slot=slot,
                bids=tuple(bids),
                winning_channel=SaleChannel.HEADER_BIDDING if winner_name else SaleChannel.FALLBACK,
                winner=winner_name,
                clearing_cpm=clearing_cpm,
                auction_start_ms=auction_start,
                ad_server_called_at_ms=ad_server_call,
                ad_server_responded_at_ms=ad_server_response,
            )
        )

    # Render: reuse the client-side render/notify logic for slots won by
    # client-visible bidders; internally won slots only fire render events.
    client_winner_map = {
        code: value for code, value in winners_for_render.items() if value[0] in bidders_by_code
    }
    _render_and_notify(wrapper, slot_outcomes, client_winner_map, auction_id)
    display_codes = {slot.code for slot in publisher.slots}
    for outcome in slot_outcomes:
        code = outcome.slot.code
        if code in display_codes and code not in client_winner_map:
            context.clock.advance(fast_uniform(rng, 20.0, 100.0))
            wrapper.emit_slot_render_ended(
                slot_code=code,
                size_label=outcome.slot.primary_size.label,
                is_empty=outcome.winner is None,
                campaign=outcome.winner or "",
            )

    return HeaderBiddingOutcome(
        domain=publisher.domain,
        facet=facet,
        slot_outcomes=tuple(slot_outcomes),
        wrapper_timeout_ms=publisher.timeout_ms,
        misconfigured_wrapper=publisher.misconfigured_wrapper,
    )
