"""Unit tests for the detection output records."""

import dataclasses
import pickle

import pytest

from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection, count_bids
from repro.errors import DetectionError
from repro.models import HBFacet


def make_bid(**overrides):
    defaults = dict(partner="AppNexus", bidder_code="appnexus", slot_code="s1",
                    cpm=0.3, size="300x250", latency_ms=220.0)
    defaults.update(overrides)
    return ObservedBid(**defaults)


def make_auction(bids=None, **overrides):
    defaults = dict(slot_code="s1", size="300x250",
                    bids=tuple(bids if bids is not None else [make_bid()]),
                    start_ms=100.0, end_ms=700.0, facet=HBFacet.CLIENT_SIDE)
    defaults.update(overrides)
    return ObservedAuction(**defaults)


class TestObservedBid:
    def test_rejects_negative_cpm_or_latency(self):
        with pytest.raises(DetectionError):
            make_bid(cpm=-1.0)
        with pytest.raises(DetectionError):
            make_bid(latency_ms=-5.0)

    def test_rejects_unknown_source(self):
        with pytest.raises(DetectionError):
            make_bid(source="guess")


class TestObservedAuction:
    def test_latency_and_counts(self):
        auction = make_auction([make_bid(), make_bid(partner="Criteo", bidder_code="criteo", late=True)])
        assert auction.latency_ms == pytest.approx(600.0)
        assert auction.n_bids == 2
        assert len(auction.late_bids) == 1
        assert auction.late_bid_fraction == pytest.approx(0.5)

    def test_late_fraction_none_without_bids(self):
        assert make_auction([]).late_bid_fraction is None

    def test_winning_bid_lookup(self):
        auction = make_auction([make_bid(won=True), make_bid(partner="Criteo", bidder_code="criteo")])
        assert auction.winning_bid.partner == "AppNexus"
        assert make_auction([make_bid()]).winning_bid is None

    def test_rejects_end_before_start(self):
        with pytest.raises(DetectionError):
            make_auction(end_ms=50.0)


class TestSiteDetection:
    def test_detection_aggregates_auctions(self):
        detection = SiteDetection(
            domain="pub.example", rank=12, hb_detected=True, facet=HBFacet.HYBRID,
            partners=("DFP", "AppNexus"),
            auctions=(make_auction(), make_auction(bids=[make_bid(late=True)])),
            total_latency_ms=640.0,
        )
        assert detection.n_partners == 2
        assert detection.n_auctions == 2
        assert detection.n_bids == 2
        assert detection.n_late_bids == 1

    def test_hb_detected_requires_facet(self):
        with pytest.raises(DetectionError):
            SiteDetection(domain="pub.example", rank=1, hb_detected=True)

    def test_rank_must_be_positive(self):
        with pytest.raises(DetectionError):
            SiteDetection(domain="pub.example", rank=0, hb_detected=False)

    def test_negative_latency_rejected(self):
        with pytest.raises(DetectionError):
            SiteDetection(domain="pub.example", rank=1, hb_detected=True,
                          facet=HBFacet.CLIENT_SIDE, total_latency_ms=-1.0)

    def test_count_bids_helper(self):
        detection = SiteDetection(
            domain="pub.example", rank=3, hb_detected=True, facet=HBFacet.CLIENT_SIDE,
            auctions=(make_auction(),),
        )
        assert count_bids([detection, detection]) == 2


def make_detection(**overrides):
    defaults = dict(
        domain="pub.example", rank=7, hb_detected=True, facet=HBFacet.CLIENT_SIDE,
        library="prebid.js", partners=("AppNexus", "Criteo"),
        auctions=(make_auction(), make_auction([make_bid(late=True), make_bid(won=True)], slot_code="s2")),
        partner_latencies_ms={"AppNexus": 220.0, "Criteo": 310.5}, total_latency_ms=640.0,
        detection_channels=("dom-events", "web-requests"), crawl_day=2, page_load_ms=1800.25,
    )
    defaults.update(overrides)
    return SiteDetection(**defaults)


def forge(record, **state):
    """A copy of ``record`` with fields overwritten past the constructor's checks."""
    clone = dataclasses.replace(record)
    for name, value in state.items():
        object.__setattr__(clone, name, value)
    return clone


class TestRecordContract:
    """Construction, pickling and dataclass behaviour of the three records."""

    RECORDS = (make_bid, make_auction, make_detection)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_nested_tree_pickles_to_an_equal_tree(self, protocol):
        detection = make_detection()
        clone = pickle.loads(pickle.dumps([detection, detection.auctions[1]], protocol=protocol))
        assert clone == [detection, detection.auctions[1]]
        assert type(clone[0].auctions[0].bids[0]) is ObservedBid
        assert clone[0].partner_latencies_ms == {"AppNexus": 220.0, "Criteo": 310.5}

    def test_a_record_pickles_as_one_constructor_call(self):
        bid = make_bid()
        assert bid.__reduce__() == (ObservedBid, tuple(
            getattr(bid, f.name) for f in dataclasses.fields(ObservedBid)
        ))

    @pytest.mark.parametrize("record, state", [
        (make_bid(), {"cpm": -1.0}),
        (make_bid(), {"latency_ms": -0.5}),
        (make_bid(), {"source": "guess"}),
        (make_auction(), {"end_ms": 0.0}),
        (make_detection(), {"rank": 0}),
        (make_detection(), {"facet": None}),
        (make_detection(), {"total_latency_ms": -1.0}),
    ])
    def test_loading_an_invalid_payload_raises(self, record, state):
        payload = pickle.dumps(forge(record, **state))
        with pytest.raises(DetectionError):
            pickle.loads(payload)

    def test_an_invalid_nested_record_fails_the_whole_load(self):
        bad = forge(make_bid(), cpm=-1.0)
        payload = pickle.dumps(make_detection(auctions=(make_auction([bad]),)))
        with pytest.raises(DetectionError, match="CPM"):
            pickle.loads(payload)

    @pytest.mark.parametrize("make", RECORDS)
    def test_keyword_and_positional_construction_agree(self, make):
        record = make()
        cls = type(record)
        values = [getattr(record, f.name) for f in dataclasses.fields(cls)]
        assert cls(*values) == record
        assert cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)}) == record

    def test_defaults_match_the_fields(self):
        bid = ObservedBid("AppNexus", "appnexus", "s1", None, None, None)
        assert (bid.late, bid.won, bid.source) == (False, False, "client")
        bare = SiteDetection("pub.example", 1, False)
        assert bare == SiteDetection(
            domain="pub.example", rank=1, hb_detected=False, facet=None, library=None,
            partners=(), auctions=(), partner_latencies_ms={}, total_latency_ms=None,
            detection_channels=(), crawl_day=0, page_load_ms=None,
        )

    def test_default_latency_maps_are_not_shared(self):
        first = SiteDetection("a.example", 1, False)
        second = SiteDetection(domain="b.example", rank=2, hb_detected=False)
        assert first.partner_latencies_ms == {} and second.partner_latencies_ms == {}
        assert first.partner_latencies_ms is not second.partner_latencies_ms

    def test_fields_and_replace(self):
        assert [f.name for f in dataclasses.fields(ObservedBid)] == [
            "partner", "bidder_code", "slot_code", "cpm", "size", "latency_ms",
            "late", "won", "source",
        ]
        assert [f.name for f in dataclasses.fields(ObservedAuction)] == [
            "slot_code", "size", "bids", "start_ms", "end_ms", "facet",
        ]
        assert [f.name for f in dataclasses.fields(SiteDetection)] == [
            "domain", "rank", "hb_detected", "facet", "library", "partners", "auctions",
            "partner_latencies_ms", "total_latency_ms", "detection_channels", "crawl_day",
            "page_load_ms",
        ]
        bid = make_bid()
        assert dataclasses.replace(bid, won=True) == make_bid(won=True)
        detection = make_detection()
        assert dataclasses.replace(detection, crawl_day=5).crawl_day == 5
        with pytest.raises(DetectionError):
            dataclasses.replace(bid, cpm=-2.0)
        with pytest.raises(DetectionError):
            dataclasses.replace(detection, rank=0)

    def test_eq_and_hash(self):
        assert make_bid() == make_bid() and hash(make_bid()) == hash(make_bid())
        assert make_bid() != make_bid(cpm=0.4)
        assert make_auction() == make_auction() and hash(make_auction()) == hash(make_auction())
        assert make_detection() == make_detection()
        assert make_detection() != make_detection(partner_latencies_ms={})
        with pytest.raises(TypeError):  # the latency map is a dict
            hash(make_detection())

    @pytest.mark.parametrize("make", RECORDS)
    def test_frozen_and_slotted(self, make):
        record = make()
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert "other" not in repr(record) and repr(record).startswith(type(record).__name__ + "(")
