"""Compiled site records: the immutable inputs of a page-load simulation.

Simulating one page visit derives a lot of state that never changes between
visits to the same site: the page's load-clock inputs, each demand partner's
log-normal latency parameters at the site's latency scale, the combined
price multiplier (size x facet x popularity x vanilla-profile) each partner
applies per ad slot, the static fields of every bid request and the partner
list verdict on every host they go to, the internal-bidder candidate pool of
server-side/hybrid ad servers, and the waterfall chain tables of non-HB
pages.  The reference simulator re-derives all of it on every load; over a
34-day longitudinal campaign that is 34 re-derivations per site of values
that are pure functions of ``(environment, known partners, seed, site)``.

This module compiles those inputs once per site (an internal-auction pool
entry on the first page that draws it) into one flat, slotted
:class:`SiteRecord`, held in a worker's :class:`SiteProfileTable`; the
columnar simulator (:mod:`repro.ecosystem.columnar`) reads no other
per-site input.  Latency samplers are flat tuples drawn through
:func:`sample_latency`.

Equivalence contract
--------------------
The columnar simulator must keep emitted detections **byte-identical** to
the reference browser simulator (``CrawlConfig(fast_path=False)``).  Every
precomputed float is therefore produced by the *same arithmetic expression*
(same operand order, same intermediate products) the reference path
evaluates per page, and the samplers built on it consume the page RNG
stream in exactly the same call order as the model classes they shortcut
(:class:`~repro.ecosystem.partners.LatencyModel`,
:class:`~repro.ecosystem.partners.BidBehavior`,
:meth:`~repro.hb.environment.AuctionEnvironment.sample_internal_bidders`).
``tests/test_fastpath_equivalence.py`` asserts the end-to-end guarantee.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.browser.page import PageDraws, batch_page_draws
from repro.ecosystem.bidding import popularity_price_multiplier
from repro.ecosystem.partners import DemandPartner, LatencyModel
from repro.ecosystem.publishers import Publisher
from repro.models import AdSlotSize, HBFacet
from repro.utils.rng import _cdf
from repro.utils.urls import url_host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.detector.partner_list import KnownPartnerList
    from repro.hb.environment import AuctionEnvironment

__all__ = [
    "AD_SERVER_PATH_SCALE",
    "AUCTION_ID",
    "WATERFALL_MAX_LEVELS",
    "WATERFALL_SLOT_SIZE_LABELS",
    "waterfall_fill_probability",
    "waterfall_head_size",
    "latency_sampler",
    "sample_latency",
    "SiteRecord",
    "SiteProfileTable",
]


#: Waterfall model parameters shared with :mod:`repro.hb.waterfall` (which
#: imports them — this is the lowest layer, so sharing avoids an import
#: cycle).  A single definition means the compiled tables and the slow path
#: cannot drift apart.
AD_SERVER_PATH_SCALE: float = 0.6
WATERFALL_MAX_LEVELS: int = 4
#: Sizes :func:`repro.hb.waterfall.default_waterfall_slot` can draw.
WATERFALL_SLOT_SIZE_LABELS: tuple[str, ...] = ("300x250", "728x90", "160x600")

#: The per-navigation auction id: ``IdFactory`` resets with the page, so the
#: first (and only) auction of every page is always ``auction-000000``.
AUCTION_ID = "auction-000000"


def waterfall_fill_probability(bid_probability: float) -> float:
    """Chance a waterfall network fills a request (see ``_rtb_price``)."""
    return min(0.95, 0.60 + bid_probability)


def waterfall_head_size(n_levels: int) -> int:
    """Candidate-pool size of an ``n_levels`` chain (see ``build_waterfall_chain``)."""
    return max(8, n_levels * 3)


def latency_sampler(model: LatencyModel, scale: float) -> tuple:
    """``model.sample(rng, scale=scale)`` compiled for :func:`sample_latency`.

    A flat ``(mu, sigma, minimum_ms, slow_probability, slow_multiplier)``
    tuple; ``mu`` is ``log(median_ms * scale)`` computed with the exact
    operand grouping the caller uses, so the drawn values are bit-identical.
    """
    return (
        math.log(model.median_ms * scale),
        model.sigma,
        model.minimum_ms,
        model.slow_response_probability,
        model.slow_multiplier,
    )


def sample_latency(rng: np.random.Generator, sampler: tuple) -> float:
    """One draw of a compiled sampler; :meth:`LatencyModel.sample` draw for draw."""
    mu, sigma, minimum, slow_probability, slow_multiplier = sampler
    value = float(rng.lognormal(mu, sigma))
    if slow_probability and rng.random() < slow_probability:
        value *= slow_multiplier
    return value if value > minimum else minimum


class SiteRecord:
    """Every immutable simulation input of one site, compiled flat.

    Non-HB records carry the page clock inputs and ``wf_heads``; the rest
    describes the site's header-bidding deployment and is set per facet.
    Partner responses are ``respond`` tuples
    ``(latency, internal latency | None, bid_probability, cpm_sigma,
    cpm_mus)`` whose ``cpm_mus`` entry *i* is the log-normal location
    :meth:`BidBehavior.sample_cpm` would derive for auctioned slot *i*.
    """

    __slots__ = (
        "publisher", "domain", "rank", "uses_hb",
        "html_fetch_ms", "content_load_ms", "n_res", "n_scr", "latency_scale",
        # non-HB: per chain length, (partner samplers, popularity weights,
        # normalised weights, cdf, head length), in popularity order
        "wf_heads",
        # HB common
        "facet", "page_url", "library", "lifecycle", "page_event",
        "n_slots", "slot_codes", "slot_labels", "slot_floors", "slot_display",
        "queue_bias", "timeout_ms", "misconfigured", "ad_server_latency",
        # server-side/hybrid internal auction: (low, high, entries, weights,
        # cdf, compile_entry); entries[i] is candidate i's (bidder_code,
        # partner_name, respond), None until compile_entry(i) fills it on the
        # first page that draws it
        "internal_rec",
        # client/hybrid: (bidder_code, respond, url, host, known partner,
        # params) per dispatched bid request
        "client_recs", "push_url", "push_host", "push_partner",
        # hybrid
        "render_url", "render_host", "render_partner", "hybrid_delay",
        "client_names", "client_code_set",
        # server-side
        "server_url", "server_host", "server_partner", "server_params",
        "aggregator_latency", "aggregator_internal",
    )


def _stale(record: SiteRecord | None, publisher: Publisher) -> bool:
    """Whether ``record`` is not ``publisher``'s (a pool worker's copy compares equal)."""
    return record is None or (
        record.publisher is not publisher and record.publisher != publisher
    )


class SiteProfileTable:
    """Lazily-compiled, bounded cache of :class:`SiteRecord` objects.

    One table belongs to one ``(environment, known partners, seed)`` triple —
    the inputs that, together with the publisher, fully determine a record.
    Each worker keeps one table for its whole lifetime, so a longitudinal
    campaign compiles each site once and every later visit is a dictionary
    hit.  A table is owned by a single worker and is not thread-safe.
    """

    __slots__ = (
        "environment",
        "known_partners",
        "seed",
        "max_sites",
        "_records",
        "_latency_cache",
        "_cpm_mu_cache",
        "_facet_multiplier_cache",
        "_waterfall_cache",
        "compiles",
        # Weak-referenceable so profilers can key per-table counters on a
        # table without pinning it alive.
        "__weakref__",
    )

    def __init__(
        self,
        environment: "AuctionEnvironment",
        known_partners: "KnownPartnerList",
        *,
        seed: int = 2019,
        max_sites: int = 16384,
    ) -> None:
        if max_sites < 1:
            raise ValueError("a profile table must hold at least one site")
        self.environment = environment
        self.known_partners = known_partners
        self.seed = seed
        self.max_sites = max_sites
        self._records: dict[str, SiteRecord] = {}
        self._latency_cache: dict[tuple[str, float], tuple[tuple, tuple]] = {}
        self._cpm_mu_cache: dict[tuple[str, str, HBFacet], float] = {}
        self._facet_multiplier_cache: dict[tuple[str, HBFacet], float] = {}
        self._waterfall_cache: dict[float, tuple] = {}
        self.compiles = 0

    def __len__(self) -> int:
        return len(self._records)

    def precompile(self, publishers: Sequence[Publisher]) -> list[SiteRecord]:
        """The records of ``publishers``, in order, compiling the missing ones.

        A record's internal-auction pool entries are not compiled here but on
        the first page that draws them (see :meth:`_internal_pool`), so
        ``compiles`` counts whole sites only.  The batch's records are
        returned, not looked up again later, so a batch larger than the table
        still compiles each site once: when the table is full it frees half
        of itself (see :meth:`_evict`), which only later batches can miss.
        """
        records = self._records
        # The page streams of the missing sites, seeded in one pass.
        missing = [i for i, p in enumerate(publishers) if _stale(records.get(p.domain), p)]
        draws = dict(
            zip(missing, batch_page_draws([publishers[i] for i in missing], self.seed))
        )
        batch: list[SiteRecord] = []
        for i, publisher in enumerate(publishers):
            domain = publisher.domain
            record = records.get(domain)
            if _stale(record, publisher):
                # ``draws`` misses only a site evicted earlier in this batch.
                page = draws.get(i) or batch_page_draws([publisher], self.seed)[0]
                record = self._compile(publisher, page)
                if len(records) >= self.max_sites and domain not in records:
                    self._evict()
                records[domain] = record
            batch.append(record)
        return batch

    def _evict(self) -> None:
        """Drop half the table: non-HB records first, then HB ones, oldest first.

        Recrawl days revisit only HB sites, and a non-HB record is the cheap
        one to rebuild (a page build plus the shared waterfall heads), so HB
        records go only when the non-HB ones do not free half the table.
        """
        records = self._records
        victims = [domain for domain, record in records.items() if not record.uses_hb]
        count = max(1, self.max_sites // 2)
        if len(victims) < count:
            victims += [domain for domain, record in records.items() if record.uses_hb]
        for domain in victims[:count]:
            del records[domain]

    # -- compilation helpers -------------------------------------------------
    def _latency_samplers(self, partner: DemandPartner, scale: float) -> tuple[tuple, tuple]:
        key = (partner.name, scale)
        samplers = self._latency_cache.get(key)
        if samplers is None:
            samplers = (
                latency_sampler(partner.latency, scale),
                # The second draw of an internal RTB auction runs at 0.35x the
                # site scale; the operand grouping mirrors
                # ``latency.sample(rng, scale=latency_scale * 0.35)``.
                latency_sampler(partner.latency, scale * 0.35),
            )
            self._latency_cache[key] = samplers
        return samplers

    def _facet_multiplier(self, partner: DemandPartner, facet: HBFacet) -> float:
        """The combined facet multiplier of ``environment.partner_response``."""
        key = (partner.name, facet)
        combined = self._facet_multiplier_cache.get(key)
        if combined is None:
            env = self.environment
            combined = (
                env.pricing.facet_multiplier(facet)
                * (env.pricing.vanilla_profile_multiplier if env.vanilla_profile else 1.0)
                * popularity_price_multiplier(env.popularity_rank(partner), env.total_partners)
            )
            self._facet_multiplier_cache[key] = combined
        return combined

    def _cpm_mu(self, partner: DemandPartner, size: AdSlotSize, facet: HBFacet) -> float:
        key = (partner.name, size.label, facet)
        mu = self._cpm_mu_cache.get(key)
        if mu is None:
            location = (
                partner.bidding.base_cpm
                * self.environment.pricing.size_multiplier(size)
                * self._facet_multiplier(partner, facet)
            )
            mu = math.log(location)
            self._cpm_mu_cache[key] = mu
        return mu

    def _respond(self, partner: DemandPartner, publisher: Publisher, facet: HBFacet) -> tuple:
        """``environment.partner_response`` of ``partner`` at this site, compiled."""
        latency, internal = self._latency_samplers(partner, publisher.latency_scale)
        return (
            latency,
            internal if partner.runs_internal_auction else None,
            partner.bidding.bid_probability,
            partner.bidding.cpm_sigma,
            tuple(
                self._cpm_mu(partner, slot.primary_size, facet)
                for slot in publisher.auctioned_slots
            ),
        )

    def _waterfall_heads(self, scale: float) -> tuple:
        heads = self._waterfall_cache.get(scale)
        if heads is not None:
            return heads
        env = self.environment
        # Same ordering build_waterfall_chain derives per page.
        partners = sorted(env.registry.partners, key=lambda p: p.popularity_weight, reverse=True)
        samplers: dict[str, tuple] = {}
        built = []
        for n_levels in range(1, WATERFALL_MAX_LEVELS + 1):
            head = partners[: waterfall_head_size(n_levels)]
            p_list, cdf_list = _cdf([p.popularity_weight for p in head])
            for partner in head:
                if partner.name in samplers:
                    continue
                mu_by_label = {}
                for label in WATERFALL_SLOT_SIZE_LABELS:
                    size = AdSlotSize(*map(int, label.split("x")))
                    location = (
                        partner.bidding.base_cpm
                        * env.pricing.size_multiplier(size)
                        * env.pricing.vanilla_profile_multiplier
                    )
                    mu_by_label[label] = math.log(location)
                samplers[partner.name] = (
                    latency_sampler(partner.latency, scale * AD_SERVER_PATH_SCALE),
                    waterfall_fill_probability(partner.bidding.bid_probability),
                    partner.bidding.cpm_sigma,
                    mu_by_label,
                )
            built.append((
                tuple(samplers[partner.name] for partner in head),
                tuple(partner.popularity_weight for partner in head),
                p_list,
                cdf_list,
                len(head),
            ))
        heads = self._waterfall_cache[scale] = tuple(built)
        return heads

    def _internal_pool(
        self, exclude: tuple[DemandPartner, ...], publisher: Publisher, facet: HBFacet
    ) -> tuple:
        """The candidate pool of ``sample_internal_bidders``, compiled.

        The draw's weights and cdf are built here; each candidate's
        ``(bidder_code, partner_name, respond)`` entry is built by
        ``compile_entry`` the first time a page draws it, and cached in the
        ``entries`` list.  A page draws a handful of the registry's partners
        and ``_respond`` draws no random numbers, so deferring it changes no
        value.  Exclusion compares names, which a registry keeps unique, and
        not identities: a pool worker's publishers are unpickled copies whose
        partners are not the registry's objects.
        """
        env = self.environment
        low, high = env.internal_auction_pool
        excluded = {p.name for p in exclude}
        candidates = [p for p in env.registry.partners if p.name not in excluded]
        if not candidates:
            return (low, high, [], None, None, None)
        p_list, cdf_list = _cdf([p.popularity_weight for p in candidates])

        def compile_entry(index: int) -> tuple:
            partner = candidates[index]
            return (partner.bidder_code, partner.name, self._respond(partner, publisher, facet))

        entries = [None] * len(candidates)
        return (low, high, entries, p_list, cdf_list, compile_entry)

    def _compile(self, publisher: Publisher, page: PageDraws) -> SiteRecord:
        """The record of ``publisher``, whose page drew ``page`` (see :func:`page_draws`)."""
        self.compiles += 1
        header_scripts, html_fetch_ms, content_load_ms, n_resources = page
        scale = publisher.latency_scale
        record = SiteRecord()
        record.publisher = publisher
        record.domain = publisher.domain
        record.rank = publisher.rank
        record.uses_hb = publisher.uses_hb
        record.html_fetch_ms = html_fetch_ms
        record.content_load_ms = content_load_ms
        record.n_res = n_resources
        record.n_scr = len(header_scripts)
        record.latency_scale = scale
        if not publisher.uses_hb:
            # Baseline and waterfall traffic never carries hb_* parameters and
            # never receives a response, so nothing a non-HB page emits can
            # move the detector off its "no evidence" verdict: only the
            # page-load clock needs simulating.
            record.wf_heads = self._waterfall_heads(scale)
            return record

        # Import here: hb sits above ecosystem in the layering and is only
        # needed at compile time, never in the per-page loop.
        from repro.hb.adapters import build_bid_request
        from repro.hb.runner import wrapper_traits

        env = self.environment
        match = self.known_partners.match_host
        facet = publisher.facet
        slots = publisher.auctioned_slots
        record.facet = facet
        record.page_url = publisher.url
        record.library, record.lifecycle = wrapper_traits(publisher)
        page_url = publisher.url
        page_host = url_host(page_url)
        page_partner = match(page_host)
        record.page_event = (page_url, page_host, page_partner) if page_partner is not None else None
        display = {slot.code for slot in publisher.slots}
        record.n_slots = len(slots)
        record.slot_codes = tuple(slot.code for slot in slots)
        record.slot_labels = tuple(slot.primary_size.label for slot in slots)
        record.slot_floors = tuple(slot.floor_cpm for slot in slots)
        record.slot_display = tuple(slot.code in display for slot in slots)
        record.queue_bias = 4.0 * len(slots)
        record.timeout_ms = publisher.timeout_ms
        record.misconfigured = publisher.misconfigured_wrapper
        # AuctionEnvironment.ad_server_latency as a sampler: no slow tail and
        # a 10 ms floor.  float(np.log(...)), not math.log: the slow path
        # computes this mu with np.log, and the two are not
        # bitwise-identical for every input.
        record.ad_server_latency = (
            float(np.log(env.ad_server_latency_median_ms * scale)),
            env.ad_server_latency_sigma,
            10.0,
            0.0,
            1.0,
        )

        if facet is HBFacet.SERVER_SIDE:
            aggregator = publisher.partners[0]
            record.aggregator_latency, record.aggregator_internal = self._latency_samplers(
                aggregator, scale
            )
            url = f"https://{aggregator.primary_domain}/gampad/ads"
            host = url_host(url)
            record.server_url = url
            record.server_host = host
            record.server_partner = match(host)
            record.server_params = {
                "iu": f"/{publisher.domain}/front",
                "prev_iu_szs": "|".join(",".join(slot.accepted_labels) for slot in slots),
                "slot_count": str(len(slots)),
                "correlator": AUCTION_ID,
            }
            record.internal_rec = self._internal_pool((aggregator,), publisher, facet)
            return record

        ad_server = publisher.ad_server
        if facet is HBFacet.HYBRID and ad_server is not None:
            client_partners = tuple(
                p for p in publisher.partners if p is not ad_server
            ) or publisher.partners
        else:
            client_partners = publisher.partners
        recs = []
        for partner in client_partners:
            spec = build_bid_request(
                partner,
                slots,
                page_url=publisher.url,
                auction_id=AUCTION_ID,
                timeout_ms=publisher.timeout_ms,
            )
            host = url_host(spec.url)
            recs.append((
                partner.bidder_code,
                self._respond(partner, publisher, facet),
                spec.url,
                host,
                match(host),
                dict(spec.params),
            ))
        record.client_recs = tuple(recs)

        if facet is HBFacet.CLIENT_SIDE:
            push_url = f"https://{publisher.own_ad_server_host}/gampad/ads"
        else:  # hybrid
            assert ad_server is not None
            push_url = f"https://{ad_server.primary_domain}/gampad/ads"
        record.push_url = push_url
        record.push_host = url_host(push_url)
        record.push_partner = match(record.push_host)
        if facet is HBFacet.HYBRID:
            render_url = f"https://{ad_server.primary_domain}/gampad/render"
            record.render_url = render_url
            record.render_host = url_host(render_url)
            record.render_partner = match(record.render_host)
            record.hybrid_delay = latency_sampler(ad_server.latency, scale * 0.5)
            record.client_names = {p.bidder_code: p.name for p in client_partners}
            record.client_code_set = frozenset(record.client_names)
            record.internal_rec = self._internal_pool(
                (ad_server, *client_partners), publisher, facet
            )
        return record
