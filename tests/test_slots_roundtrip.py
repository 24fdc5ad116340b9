"""Slots audit for the hot per-page models, with pickle round-trips.

PR 3 slotted the detector-side records; this sweep covers the remaining hot
per-page models in ``browser/``, ``hb/`` and ``ecosystem/`` (``hb/events.py``
holds only enums and free functions — nothing to slot).  Each class must
reject arbitrary attributes (proof the instance carries no ``__dict__``) and
survive a pickle round-trip unchanged, because the process backend ships
some of them across worker boundaries.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.browser.clock import SimulatedClock
from repro.browser.context import BrowserContext
from repro.browser.dom import DomEventBus
from repro.browser.engine import BrowserEngine, PageLoadResult
from repro.browser.page import Page, build_page
from repro.browser.webrequest import WebRequestLog
from repro.ecosystem.bidding import PricingModel
from repro.ecosystem.profiles import SiteProfileTable, latency_sampler
from repro.hb.auction import BidOutcome, HeaderBiddingOutcome, SlotAuctionOutcome
from repro.hb.client_side import PartnerReply
from repro.hb.waterfall import WaterfallAdNetwork, WaterfallOutcome, WaterfallPassResult
from repro.models import AdSlot, AdSlotSize, HBFacet, SaleChannel


def assert_slotted(instance):
    assert not hasattr(instance, "__dict__"), type(instance).__name__
    with pytest.raises(AttributeError):
        object.__setattr__(instance, "definitely_not_a_field", 1)


class TestBrowserModels:
    def test_page_is_slotted_and_picklable(self, hb_publisher):
        page = build_page(hb_publisher, seed=13)
        assert_slotted(page)
        assert pickle.loads(pickle.dumps(page)) == page

    def test_page_load_result_is_slotted_and_picklable(self, engine, hb_publisher):
        result = engine.load(hb_publisher)
        assert_slotted(result)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.domain == result.domain
        assert clone.dom_events == result.dom_events
        assert clone.web_requests == result.web_requests

    def test_infrastructure_is_slotted(self, rng):
        clock = SimulatedClock()
        assert_slotted(clock)
        assert_slotted(DomEventBus(clock))
        assert_slotted(WebRequestLog(clock))
        assert_slotted(BrowserContext.clean_slate(rng))


class TestAuctionModels:
    def bid(self):
        return BidOutcome(
            partner_name="AppNexus", bidder_code="appnexus", slot_code="s1",
            size=AdSlotSize(300, 250), cpm=0.5,
            requested_at_ms=10.0, responded_at_ms=120.0, late=False, won=True,
        )

    def test_bid_outcome(self):
        bid = self.bid()
        assert_slotted(bid)
        assert pickle.loads(pickle.dumps(bid)) == bid

    def test_slot_auction_outcome_and_header_bidding_outcome(self):
        slot = AdSlot(code="s1", primary_size=AdSlotSize(300, 250))
        outcome = SlotAuctionOutcome(
            slot=slot, bids=(self.bid(),), winning_channel=SaleChannel.HEADER_BIDDING,
            winner="AppNexus", clearing_cpm=0.5, auction_start_ms=0.0,
            ad_server_called_at_ms=150.0, ad_server_responded_at_ms=230.0,
        )
        assert_slotted(outcome)
        page = HeaderBiddingOutcome(
            domain="x.example", facet=HBFacet.CLIENT_SIDE, slot_outcomes=(outcome,),
            wrapper_timeout_ms=3000.0,
        )
        assert_slotted(page)
        assert pickle.loads(pickle.dumps(page)) == page

    def test_partner_reply_is_slotted(self, registry):
        reply = PartnerReply(
            partner=registry.partners[0], dispatched_at_ms=1.0,
            responded_at_ms=2.0, responses={},
        )
        assert_slotted(reply)


class TestWaterfallModels:
    def test_waterfall_records_are_slotted_and_picklable(self, registry, rng):
        network = WaterfallAdNetwork(partner=registry.partners[0], priority=1)
        passed = WaterfallPassResult(network=network, latency_ms=40.0, cpm=0.3, accepted=True)
        outcome = WaterfallOutcome(
            slot=AdSlot(code="w", primary_size=AdSlotSize(300, 250)),
            passes=(passed,), winner="x", clearing_cpm=0.3,
            total_latency_ms=40.0, channel=SaleChannel.RTB_WATERFALL,
        )
        for record in (network, passed, outcome):
            assert_slotted(record)
            assert pickle.loads(pickle.dumps(record)) == record


class TestEcosystemModels:
    def test_pricing_model_is_slotted_and_picklable(self):
        model = PricingModel()
        assert_slotted(model)
        assert pickle.loads(pickle.dumps(model)) == model

    def test_profile_records_are_slotted(self, environment, detector, hb_publisher):
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        record = table.precompile([hb_publisher])[0]
        assert_slotted(record)
        assert record.client_recs
        for rec in record.client_recs:
            respond = rec[1]
            assert_slotted(respond)
            assert_slotted(respond[0])

    def test_latency_sampler_pickles(self, registry):
        sampler = latency_sampler(registry.partners[0].latency, 0.72)
        assert pickle.loads(pickle.dumps(sampler)) == sampler
