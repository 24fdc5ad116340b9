"""Detection output records.

These are the records HBDetector produces for every crawled page and that the
whole analysis layer consumes.  They intentionally contain only information
that is observable from the browser — no ground truth ever leaks in.

The records are frozen, slotted dataclasses (``fields``, ``replace``,
eq/hash/repr and frozen assignment are the generated ones), but each writes
its own ``__init__`` and ``__reduce__``:

* ``__init__`` takes the fields' names, order and defaults (a missing or
  ``None`` ``partner_latencies_ms`` is a fresh dict), checks its arguments
  and sets the slots through one bound ``object.__setattr__``.
  The generated frozen ``__init__`` looks ``object.__setattr__`` up once per
  field and then calls ``__post_init__``.  The hot builders (the columnar
  simulator, ``HBDetector._reconstruct_auctions``, the ``.hbc`` decoder) call
  it positionally.
* ``__reduce__`` pickles a record as ``(cls, field values)``, so loading it
  is one constructor call, with the same checks as any other construction.
  The default for a frozen slotted dataclass is ``__getstate__`` /
  ``__setstate__``: one ``fields()`` call and one ``object.__setattr__`` per
  field, and no checks at all.

Every process-pool shard result crosses back to the parent as pickled
records.  On a 2-CPU host, one recrawl-daemon tick of a 10k-site campaign
(1,392 detections, 5,927 auctions, 7,412 bids) pickled in 55 ms and
unpickled in 50 ms with the generated methods; with these it takes 31 ms
and 29 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import DetectionError
from repro.models import HBFacet

__all__ = ["ObservedBid", "ObservedAuction", "SiteDetection"]


@dataclass(frozen=True, slots=True, init=False)
class ObservedBid:
    """One bid the detector could attribute to a partner on a page."""

    partner: str
    bidder_code: str
    slot_code: str
    cpm: float | None
    size: str | None
    latency_ms: float | None
    late: bool = False
    won: bool = False
    source: str = "client"  # "client" (bidResponse events) or "server" (hb_* in responses)

    def __init__(
        self,
        partner: str,
        bidder_code: str,
        slot_code: str,
        cpm: float | None,
        size: str | None,
        latency_ms: float | None,
        late: bool = False,
        won: bool = False,
        source: str = "client",
    ) -> None:
        if cpm is not None and cpm < 0:
            raise DetectionError("observed CPM cannot be negative")
        if latency_ms is not None and latency_ms < 0:
            raise DetectionError("observed latency cannot be negative")
        if source not in ("client", "server"):
            raise DetectionError(f"unknown bid source {source!r}")
        set_ = object.__setattr__.__get__(self)
        set_("partner", partner)
        set_("bidder_code", bidder_code)
        set_("slot_code", slot_code)
        set_("cpm", cpm)
        set_("size", size)
        set_("latency_ms", latency_ms)
        set_("late", late)
        set_("won", won)
        set_("source", source)

    def __reduce__(self) -> tuple:
        return (type(self), (
            self.partner, self.bidder_code, self.slot_code, self.cpm, self.size,
            self.latency_ms, self.late, self.won, self.source,
        ))


@dataclass(frozen=True, slots=True, init=False)
class ObservedAuction:
    """One ad-slot auction reconstructed from the page's activity."""

    slot_code: str
    size: str | None
    bids: tuple[ObservedBid, ...]
    start_ms: float
    end_ms: float
    facet: HBFacet

    def __init__(
        self,
        slot_code: str,
        size: str | None,
        bids: tuple[ObservedBid, ...],
        start_ms: float,
        end_ms: float,
        facet: HBFacet,
    ) -> None:
        if end_ms < start_ms:
            raise DetectionError("an auction cannot end before it starts")
        set_ = object.__setattr__.__get__(self)
        set_("slot_code", slot_code)
        set_("size", size)
        set_("bids", bids)
        set_("start_ms", start_ms)
        set_("end_ms", end_ms)
        set_("facet", facet)

    def __reduce__(self) -> tuple:
        return (type(self), (
            self.slot_code, self.size, self.bids, self.start_ms, self.end_ms, self.facet,
        ))

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def n_bids(self) -> int:
        return len(self.bids)

    @property
    def late_bids(self) -> tuple[ObservedBid, ...]:
        return tuple(bid for bid in self.bids if bid.late)

    @property
    def late_bid_fraction(self) -> float | None:
        """Share of this auction's bids that arrived too late (None if no bids)."""
        if not self.bids:
            return None
        return len(self.late_bids) / len(self.bids)

    @property
    def winning_bid(self) -> ObservedBid | None:
        winners = [bid for bid in self.bids if bid.won]
        return winners[0] if winners else None


@dataclass(frozen=True, slots=True, init=False)
class SiteDetection:
    """Everything the detector learned about one page load."""

    domain: str
    rank: int
    hb_detected: bool
    facet: HBFacet | None = None
    library: str | None = None
    partners: tuple[str, ...] = ()
    auctions: tuple[ObservedAuction, ...] = ()
    partner_latencies_ms: Mapping[str, float] = field(default_factory=dict)
    total_latency_ms: float | None = None
    detection_channels: tuple[str, ...] = ()
    crawl_day: int = 0
    page_load_ms: float | None = None

    def __init__(
        self,
        domain: str,
        rank: int,
        hb_detected: bool,
        facet: HBFacet | None = None,
        library: str | None = None,
        partners: tuple[str, ...] = (),
        auctions: tuple[ObservedAuction, ...] = (),
        partner_latencies_ms: Mapping[str, float] | None = None,
        total_latency_ms: float | None = None,
        detection_channels: tuple[str, ...] = (),
        crawl_day: int = 0,
        page_load_ms: float | None = None,
    ) -> None:
        if hb_detected and facet is None:
            raise DetectionError(f"HB detected on {domain} but no facet classified")
        if total_latency_ms is not None and total_latency_ms < 0:
            raise DetectionError("total HB latency cannot be negative")
        if rank < 1:
            raise DetectionError("site rank is 1-based")
        set_ = object.__setattr__.__get__(self)
        set_("domain", domain)
        set_("rank", rank)
        set_("hb_detected", hb_detected)
        set_("facet", facet)
        set_("library", library)
        set_("partners", partners)
        set_("auctions", auctions)
        set_("partner_latencies_ms", {} if partner_latencies_ms is None else partner_latencies_ms)
        set_("total_latency_ms", total_latency_ms)
        set_("detection_channels", detection_channels)
        set_("crawl_day", crawl_day)
        set_("page_load_ms", page_load_ms)

    def __reduce__(self) -> tuple:
        return (type(self), (
            self.domain, self.rank, self.hb_detected, self.facet, self.library,
            self.partners, self.auctions, self.partner_latencies_ms, self.total_latency_ms,
            self.detection_channels, self.crawl_day, self.page_load_ms,
        ))

    @property
    def n_partners(self) -> int:
        return len(self.partners)

    @property
    def n_auctions(self) -> int:
        return len(self.auctions)

    @property
    def all_bids(self) -> tuple[ObservedBid, ...]:
        return tuple(bid for auction in self.auctions for bid in auction.bids)

    @property
    def n_bids(self) -> int:
        return len(self.all_bids)

    @property
    def n_late_bids(self) -> int:
        return sum(1 for bid in self.all_bids if bid.late)


def count_bids(detections: Iterable[SiteDetection]) -> int:
    """Total observed bids over many detections (Table 1 helper)."""
    return sum(detection.n_bids for detection in detections)
