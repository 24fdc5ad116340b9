"""Waterfall / RTB baseline (the "chasing waterfalls" the paper's title retires).

In the traditional waterfall standard, the publisher's ad server works through
a *prioritised* list of ad networks: it asks network #1 for a bid, and only if
that network passes (no bid, or below the floor) does it move on to network
#2, and so on, finally falling back to remnant inventory.  Priorities are set
from historical average prices, not real-time competition, which is exactly
the inefficiency header bidding was invented to remove.

The implementation below is used for the paper's comparison claims:

* latency — the waterfall usually stops after the first one or two passes, so
  its median latency is roughly a third of header bidding's (§1, §7.2);
* prices — for real-user profiles RTB clearing prices are substantially higher
  than the vanilla-profile HB bids the crawler observes (§5.4).

From the browser, waterfall activity is only visible as win-notification URLs
whose parameter names are DSP-specific and carry none of the ``hb_*`` keys —
which is why HBDetector can cleanly ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ecosystem.partners import DemandPartner
from repro.ecosystem.registry import PartnerRegistry
from repro.errors import AuctionError
from repro.hb.environment import AuctionEnvironment
from repro.ecosystem.profiles import (
    AD_SERVER_PATH_SCALE,
    WATERFALL_MAX_LEVELS,
    WATERFALL_SLOT_SIZE_LABELS,
    waterfall_fill_probability,
    waterfall_head_size,
)
from repro.models import AdSlot, AdSlotSize, SaleChannel, STANDARD_SIZES
from repro.utils.rng import fast_uniform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.browser.context import BrowserContext

__all__ = ["WaterfallAdNetwork", "WaterfallPassResult", "WaterfallOutcome", "run_waterfall",
           "build_waterfall_chain", "AD_SERVER_PATH_SCALE"]

#: Waterfall passes run over the ad server's server-to-server connections to
#: the ad networks (persistent, well-peered links), which are noticeably
#: faster than the browser-to-bidder HTTP requests header bidding issues from
#: the client.  The factor itself is defined in
#: :mod:`repro.ecosystem.profiles` (which precompiles with it) and
#: re-exported here unchanged.


@dataclass(frozen=True, slots=True)
class WaterfallAdNetwork:
    """One level of the waterfall: an ad network with a priority and a floor."""

    partner: DemandPartner
    priority: int
    floor_cpm: float = 0.05

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise AuctionError("waterfall priorities are 1-based")
        if self.floor_cpm < 0:
            raise AuctionError("floor CPM cannot be negative")


@dataclass(frozen=True, slots=True)
class WaterfallPassResult:
    """What happened when one waterfall level was tried."""

    network: WaterfallAdNetwork
    latency_ms: float
    cpm: float | None
    accepted: bool


@dataclass(frozen=True, slots=True)
class WaterfallOutcome:
    """Ground truth of one waterfall-mediated ad-slot sale."""

    slot: AdSlot
    passes: tuple[WaterfallPassResult, ...]
    winner: str | None
    clearing_cpm: float
    total_latency_ms: float
    channel: SaleChannel


def build_waterfall_chain(
    registry: PartnerRegistry,
    rng: np.random.Generator,
    *,
    max_levels: int = WATERFALL_MAX_LEVELS,
) -> tuple[WaterfallAdNetwork, ...]:
    """Construct a prioritised chain of ad networks for one publisher.

    Priorities follow historical average prices, which in practice means the
    big, popular networks sit at the top of the chain.
    """
    if max_levels < 1:
        raise AuctionError("a waterfall needs at least one level")
    partners = sorted(registry.partners, key=lambda p: p.popularity_weight, reverse=True)
    n_levels = int(rng.integers(1, max_levels + 1))
    head = partners[: waterfall_head_size(n_levels)]
    weights = np.asarray([p.popularity_weight for p in head], dtype=float)
    weights = weights / weights.sum()
    chosen_idx = rng.choice(len(head), size=min(n_levels, len(head)), replace=False, p=weights)
    chosen = [head[int(i)] for i in np.atleast_1d(chosen_idx)]
    # Highest historical prices (≈ popularity) get the highest priority.
    chosen.sort(key=lambda p: p.popularity_weight, reverse=True)
    return tuple(
        WaterfallAdNetwork(partner=partner, priority=level, floor_cpm=float(rng.uniform(0.02, 0.12)))
        for level, partner in enumerate(chosen, start=1)
    )


def _rtb_price(environment: AuctionEnvironment, rng: np.random.Generator,
               partner: DemandPartner, size: AdSlotSize, *, real_user: bool) -> float | None:
    """Sample the clearing price of one network's internal RTB auction.

    Waterfall priorities are assigned from historical fill and price data, so
    the networks at the top of the chain fill most requests — which is exactly
    why the waterfall usually terminates after a single round trip and stays
    fast compared to header bidding.
    """
    fill_probability = waterfall_fill_probability(partner.bidding.bid_probability)
    if rng.random() > fill_probability:
        return None
    multiplier = environment.pricing.size_multiplier(size)
    # Prior measurements of the waterfall standard report ~1 CPM average and a
    # ~0.19 CPM median for 300x250 with real user profiles; vanilla profiles
    # price like the HB baseline.
    profile_multiplier = 6.0 if real_user else environment.pricing.vanilla_profile_multiplier
    return partner.bidding.sample_cpm(rng, size, size_multiplier=multiplier,
                                      facet_multiplier=profile_multiplier)


def run_waterfall(
    slot: AdSlot,
    chain: Sequence[WaterfallAdNetwork],
    environment: AuctionEnvironment,
    rng: np.random.Generator,
    *,
    context: "BrowserContext | None" = None,
    page_url: str = "",
    latency_scale: float = 1.0,
    real_user: bool = False,
) -> WaterfallOutcome:
    """Run the waterfall for one ad slot.

    When a browser ``context`` is supplied, the win notification is recorded in
    the web-request log (with RTB-style parameters), exactly the residue a
    passive observer can see of waterfall activity.
    """
    if not chain:
        raise AuctionError("cannot run a waterfall without any ad network")
    passes: list[WaterfallPassResult] = []
    total_latency = 0.0
    winner: str | None = None
    clearing = 0.0
    channel = SaleChannel.FALLBACK

    for network in sorted(chain, key=lambda n: n.priority):
        # One ad-server-mediated round trip per level; the network's own RTB
        # auction happens within that round trip, over server-to-server links.
        latency = network.partner.latency.sample(rng, scale=latency_scale * AD_SERVER_PATH_SCALE)
        cpm = _rtb_price(environment, rng, network.partner, slot.primary_size, real_user=real_user)
        total_latency += latency
        accepted = cpm is not None and cpm >= network.floor_cpm
        passes.append(WaterfallPassResult(network=network, latency_ms=latency, cpm=cpm,
                                          accepted=accepted))
        if accepted:
            winner = network.partner.name
            clearing = float(cpm)  # type: ignore[arg-type]
            channel = SaleChannel.RTB_WATERFALL
            break

    if winner is None:
        # Remnant fallback (e.g. AdSense) fills at a low price after one more,
        # fast, round trip.
        total_latency += fast_uniform(rng, 40.0, 120.0)
        winner = "backfill"
        clearing = fast_uniform(rng, 0.005, 0.02)
        channel = SaleChannel.FALLBACK

    if context is not None and channel is SaleChannel.RTB_WATERFALL:
        winning_pass = passes[-1]
        context.requests.record_outgoing(
            f"https://{winning_pass.network.partner.primary_domain}/rtb/win",
            method="GET",
            params={
                "price": f"{clearing:.5f}",
                "auction_id": context.ids.next("rtb"),
                "imp_id": slot.code,
                "crid": f"creative-{abs(hash(slot.code)) % 10_000}",
            },
            initiator=page_url,
            timestamp_ms=context.clock.now() + total_latency,
        )

    return WaterfallOutcome(
        slot=slot,
        passes=tuple(passes),
        winner=winner,
        clearing_cpm=clearing,
        total_latency_ms=total_latency,
        channel=channel,
    )


#: Sizes a non-HB ad slot draws from (hoisted: rebuilt per page previously).
_DEFAULT_SLOT_SIZES: tuple[AdSlotSize, ...] = tuple(
    size for size in STANDARD_SIZES if size.label in WATERFALL_SLOT_SIZE_LABELS
)


def default_waterfall_slot(rng: np.random.Generator, code: str = "waterfall-slot-0") -> AdSlot:
    """A representative slot for pages that serve ads without header bidding."""
    primary = _DEFAULT_SLOT_SIZES[int(rng.integers(0, len(_DEFAULT_SLOT_SIZES)))]
    return AdSlot(code=code, primary_size=primary)
