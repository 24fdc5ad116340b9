"""Publisher (website) population generation.

A :class:`Publisher` is one website in the simulated Web: its domain, ranking
position, whether it deploys header bidding and with which facet, wrapper
library, partner mix, ad-slot inventory and timeout configuration.  The
generator is calibrated so that the population-level statistics reproduce the
shapes reported by the paper (adoption by rank tier, facet breakdown, partner
counts and combinations, slot counts, misconfiguration rate).

Facet and partner mix are generated *jointly*, because they are entangled in
the real ecosystem: a server-side deployment exposes exactly one visible
demand partner (the aggregation endpoint, usually DFP), while client-side and
hybrid deployments expose the full partner mix the publisher configured.  The
paper's Figure 9 (>50% of sites show a single partner) and Figure 10 (DFP
alone on 48% of sites) are consequences of this entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.models import AdSlot, AdSlotSize, HBFacet, WrapperKind, STANDARD_SIZES
from repro.ecosystem.partners import DemandPartner
from repro.ecosystem.registry import PartnerRegistry, default_registry
from repro.utils.rng import (
    _activator,
    _cdf,
    _key_entropy,
    _mul128_add,
    _output_doubles,
    _pick,
    _seed_states,
    _swr,
)

__all__ = [
    "PopulationConfig",
    "Publisher",
    "PublisherPopulation",
    "generate_population",
]


# Popularity weights of creative sizes per facet, calibrated to Figure 21:
# 300x250 dominates everywhere, 728x90 and 300x600 follow, and each facet has
# its own long tail of secondary sizes.
_SIZE_WEIGHTS: dict[HBFacet, dict[str, float]] = {
    HBFacet.SERVER_SIDE: {
        "300x250": 40.0, "728x90": 18.0, "300x600": 9.0, "320x50": 7.0,
        "970x250": 5.5, "160x600": 5.0, "336x280": 4.0, "970x90": 3.0,
        "320x100": 2.5, "468x60": 2.0,
    },
    HBFacet.CLIENT_SIDE: {
        "300x250": 34.0, "300x600": 14.0, "728x90": 13.0, "970x250": 7.0,
        "320x320": 5.0, "320x50": 5.0, "160x600": 4.5, "100x200": 3.0,
        "120x600": 2.5, "320x100": 2.0,
    },
    HBFacet.HYBRID: {
        "300x250": 37.0, "728x90": 16.0, "300x600": 10.0, "320x50": 7.0,
        "970x250": 5.0, "160x600": 4.5, "320x100": 3.5, "336x280": 3.0,
        "300x50": 2.5, "120x600": 2.0,
    },
}

_SIZE_BY_LABEL = {size.label: size for size in STANDARD_SIZES}


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs controlling publisher population generation.

    The defaults reproduce the paper's Feb'19 crawl of the top-35k Alexa list.
    ``total_sites`` can be scaled down for tests; all proportions are kept.
    """

    total_sites: int = 35_000
    seed: int = 2019

    #: HB adoption probability per rank tier: (max_rank_exclusive, probability).
    #: Calibrated to §3.2: 20-23% in the top 5k, 12-17% for 5k-15k, 10-12% rest,
    #: giving ~14.3% overall.
    adoption_tiers: tuple[tuple[int, float], ...] = (
        (5_000, 0.215),
        (15_000, 0.145),
        (10**9, 0.115),
    )

    #: Facet mix among HB sites (§4.6): server-side 48%, hybrid 34.7%,
    #: client-side 17.3%.
    facet_shares: tuple[tuple[HBFacet, float], ...] = (
        (HBFacet.SERVER_SIDE, 0.480),
        (HBFacet.HYBRID, 0.347),
        (HBFacet.CLIENT_SIDE, 0.173),
    )

    #: Distribution of the number of *visible* demand partners for client-side
    #: and hybrid deployments (server-side always exposes exactly one).
    #: Combined with the facet mix, this reproduces Figure 9: >50% of all HB
    #: sites show one partner, ~20% show five or more, ~5% show ten or more.
    partner_count_distribution: tuple[tuple[int, float], ...] = (
        (1, 0.080), (2, 0.200), (3, 0.180), (4, 0.150), (5, 0.100), (6, 0.080),
        (7, 0.060), (8, 0.040), (9, 0.025), (10, 0.015), (11, 0.012),
        (12, 0.010), (13, 0.009), (14, 0.008), (15, 0.007), (16, 0.006),
        (17, 0.005), (18, 0.005), (19, 0.004), (20, 0.004),
    )

    #: Probability that a server-side deployment's aggregation endpoint is the
    #: DFP-style ad server (Figure 10: DFP alone accounts for ~48% of sites).
    server_side_dfp_share: float = 0.95
    #: Probability that a client-side / hybrid deployment includes DFP among
    #: its visible partners; together with the server-side share this puts DFP
    #: on ~80% of HB sites (Figure 8).
    multi_partner_dfp_share: float = 0.67

    #: Mean of the (shifted) Poisson distribution of displayable ad slots per
    #: page, per facet; Figure 19 reports medians of 2-6 depending on facet.
    slot_mean_by_facet: tuple[tuple[HBFacet, float], ...] = (
        (HBFacet.CLIENT_SIDE, 2.6),
        (HBFacet.SERVER_SIDE, 3.6),
        (HBFacet.HYBRID, 4.6),
    )
    #: Fraction of HB sites that request bids for device-specific duplicates of
    #: their slots, producing the >20-slot auctions discussed in §5.3.
    multi_device_duplicate_rate: float = 0.05
    #: Fraction of HB sites whose wrapper is misconfigured and contacts the ad
    #: server without waiting for bids (a major source of late bids, §5.2).
    misconfigured_wrapper_rate: float = 0.18

    #: Default wrapper timeout in ms, and the probability a publisher keeps it.
    default_timeout_ms: float = 3_000.0
    custom_timeout_rate: float = 0.25
    custom_timeout_range_ms: tuple[float, float] = (800.0, 6_000.0)

    #: Wrapper library mix among HB sites (prebid dominates, §3.1).  Server-side
    #: deployments lean on the aggregator-provided gpt.js tag instead.
    wrapper_shares: tuple[tuple[WrapperKind, float], ...] = (
        (WrapperKind.PREBID, 0.64),
        (WrapperKind.GPT, 0.24),
        (WrapperKind.PUBFOOD, 0.07),
        (WrapperKind.CUSTOM, 0.05),
    )

    #: Latency scaling for highly ranked sites (Figure 13: the top 500 sites
    #: show a median of ~310 ms vs ~500 ms for the rest).
    top_rank_latency_scale: float = 0.58
    top_rank_threshold: int = 500
    head_latency_scale: float = 0.72
    head_rank_threshold: int = 5_000

    def __post_init__(self) -> None:
        if self.total_sites <= 0:
            raise ConfigurationError("total_sites must be positive")
        if not self.adoption_tiers:
            raise ConfigurationError("adoption_tiers cannot be empty")
        for _, probability in self.adoption_tiers:
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError("adoption probabilities must be in [0, 1]")
        facet_total = sum(share for _, share in self.facet_shares)
        if abs(facet_total - 1.0) > 1e-6:
            raise ConfigurationError("facet shares must sum to 1")
        count_total = sum(share for _, share in self.partner_count_distribution)
        if abs(count_total - 1.0) > 0.02:
            raise ConfigurationError("partner count distribution must sum to ~1")
        if not 0.0 <= self.misconfigured_wrapper_rate <= 1.0:
            raise ConfigurationError("misconfigured_wrapper_rate must be in [0, 1]")
        if not 0.0 <= self.server_side_dfp_share <= 1.0:
            raise ConfigurationError("server_side_dfp_share must be in [0, 1]")
        if not 0.0 <= self.multi_partner_dfp_share <= 1.0:
            raise ConfigurationError("multi_partner_dfp_share must be in [0, 1]")

    def scaled(self, total_sites: int) -> "PopulationConfig":
        """A copy of this configuration with a different population size.

        Rank tiers shrink proportionally so that the adoption-by-rank shape is
        preserved at small scales used in tests and benchmarks.
        """
        scale = total_sites / self.total_sites
        tiers = tuple(
            (max(1, int(round(limit * scale))) if limit < 10**8 else limit, probability)
            for limit, probability in self.adoption_tiers
        )
        return replace(
            self,
            total_sites=total_sites,
            adoption_tiers=tiers,
            top_rank_threshold=max(1, int(round(self.top_rank_threshold * scale))),
            head_rank_threshold=max(1, int(round(self.head_rank_threshold * scale))),
        )

    def adoption_probability(self, rank: int) -> float:
        """HB adoption probability for a site at 1-based rank ``rank``."""
        for limit, probability in self.adoption_tiers:
            if rank <= limit:
                return probability
        return self.adoption_tiers[-1][1]


@dataclass(frozen=True)
class Publisher:
    """One website in the simulated Web, with its full HB configuration.

    For server-side deployments ``partners`` holds the single visible
    aggregation endpoint; for client-side deployments ``ad_server`` is ``None``
    because the publisher operates their own ad server, which an external
    observer cannot attribute to any known ad-tech company.
    """

    domain: str
    rank: int
    uses_hb: bool
    facet: HBFacet | None = None
    wrapper: WrapperKind | None = None
    partners: tuple[DemandPartner, ...] = ()
    ad_server: DemandPartner | None = None
    slots: tuple[AdSlot, ...] = ()
    auctioned_slots: tuple[AdSlot, ...] = ()
    timeout_ms: float = 3_000.0
    misconfigured_wrapper: bool = False
    latency_scale: float = 1.0
    category: str = "general"

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigurationError("publisher rank is 1-based")
        if self.uses_hb:
            if self.facet is None or self.wrapper is None:
                raise ConfigurationError(f"HB publisher {self.domain} needs a facet and wrapper")
            if not self.partners:
                raise ConfigurationError(f"HB publisher {self.domain} needs at least one partner")
            if not self.slots:
                raise ConfigurationError(f"HB publisher {self.domain} needs at least one ad slot")
            if self.facet is HBFacet.SERVER_SIDE and len(self.partners) != 1:
                raise ConfigurationError(
                    f"server-side publisher {self.domain} must expose exactly one partner"
                )
            if not self.auctioned_slots:
                object.__setattr__(self, "auctioned_slots", self.slots)
        if self.timeout_ms <= 0:
            raise ConfigurationError("wrapper timeout must be positive")
        if self.latency_scale <= 0:
            raise ConfigurationError("latency scale must be positive")

    @property
    def url(self) -> str:
        return f"https://{self.domain}/"

    @property
    def partner_names(self) -> tuple[str, ...]:
        return tuple(partner.name for partner in self.partners)

    @property
    def n_partners(self) -> int:
        return len(self.partners)

    @property
    def n_display_slots(self) -> int:
        return len(self.slots)

    @property
    def n_auctioned_slots(self) -> int:
        return len(self.auctioned_slots)

    @property
    def own_ad_server_host(self) -> str:
        """Host of the publisher-operated ad server (client-side facet)."""
        return f"ads.{self.domain}"


class PublisherPopulation:
    """The full set of generated publishers, addressable by domain or rank."""

    def __init__(self, publishers: Sequence[Publisher], config: PopulationConfig,
                 registry: PartnerRegistry) -> None:
        self._publishers = list(publishers)
        self._by_domain = {publisher.domain: publisher for publisher in self._publishers}
        self.config = config
        self.registry = registry

    def __len__(self) -> int:
        return len(self._publishers)

    def __iter__(self) -> Iterator[Publisher]:
        return iter(self._publishers)

    def __getitem__(self, index: int) -> Publisher:
        return self._publishers[index]

    def by_domain(self, domain: str) -> Publisher:
        if domain not in self._by_domain:
            raise KeyError(f"unknown publisher domain: {domain!r}")
        return self._by_domain[domain]

    @property
    def domains(self) -> tuple[str, ...]:
        return tuple(publisher.domain for publisher in self._publishers)

    def hb_publishers(self) -> tuple[Publisher, ...]:
        return tuple(publisher for publisher in self._publishers if publisher.uses_hb)

    def adoption_rate(self) -> float:
        if not self._publishers:
            return 0.0
        return len(self.hb_publishers()) / len(self._publishers)

    def facet_counts(self) -> dict[HBFacet, int]:
        counts: dict[HBFacet, int] = {facet: 0 for facet in HBFacet}
        for publisher in self.hb_publishers():
            assert publisher.facet is not None
            counts[publisher.facet] += 1
        return counts


def _site_domain(rank: int) -> str:
    """Deterministic synthetic domain name for a ranked site."""
    return f"site-{rank:06d}.example"


def _share_table(shares: Sequence[tuple[object, float]]) -> tuple[list, list[float]]:
    """``(values, cdf)`` of a ``(value, weight)`` table, for :func:`_choose_from_shares`."""
    return [value for value, _ in shares], _cdf([weight for _, weight in shares])[1]


def _partner_pool(partners: Sequence[DemandPartner]) -> tuple[list, list[float], list[float]]:
    """``(partners, p, cdf)`` by popularity, for :func:`_weighted_sample_without_replacement`."""
    if not partners:
        return [], [], []
    return list(partners), *_cdf([p.popularity_weight for p in partners])


#: ``(sizes, cdf)`` of each facet's creative-size popularity.
_SIZE_TABLES = {
    facet: _share_table([(_SIZE_BY_LABEL[label], w) for label, w in weights.items()])
    for facet, weights in _SIZE_WEIGHTS.items()
}


class _Tables:
    """The CDFs one population draws from, built once from its config and registry.

    Registry weights differ per seed, so the partner pools belong to one
    ``generate_population`` call and are never cached across calls.
    """

    __slots__ = ("facets", "wrappers", "partner_counts", "dfp", "capable", "others")

    def __init__(self, config: PopulationConfig, registry: PartnerRegistry) -> None:
        self.facets = _share_table(config.facet_shares)
        self.wrappers = _share_table(config.wrapper_shares)
        self.partner_counts = _share_table(config.partner_count_distribution)
        ad_servers = registry.ad_servers()
        dfp = self.dfp = ad_servers[0] if ad_servers else registry.partners[0]
        self.capable = _partner_pool([p for p in registry.server_side_capable() if p is not dfp])
        self.others = _partner_pool([p for p in registry.partners if p is not dfp])


def _choose_from_shares(rng: np.random.Generator, table: tuple[list, list[float]]) -> object:
    values, cdf = table
    return values[_pick(rng, cdf)]


def _sample_size(rng: np.random.Generator, facet: HBFacet) -> AdSlotSize:
    return _choose_from_shares(rng, _SIZE_TABLES[facet])


def _build_slots(rng: np.random.Generator, config: PopulationConfig, facet: HBFacet,
                 domain: str) -> tuple[tuple[AdSlot, ...], tuple[AdSlot, ...]]:
    """Return (display slots, auctioned slots) for one publisher page."""
    mean = dict(config.slot_mean_by_facet)[facet]
    n_slots = 1 + int(rng.poisson(max(mean - 1.0, 0.1)))
    slots = []
    for index in range(n_slots):
        primary = _sample_size(rng, facet)
        extra_sizes: tuple[AdSlotSize, ...] = ()
        if rng.random() < 0.3:
            extra_sizes = (_sample_size(rng, facet),)
        slots.append(AdSlot(code=f"div-gpt-ad-{domain}-{index}", primary_size=primary,
                            sizes=(primary, *extra_sizes)))
    auctioned = list(slots)
    if rng.random() < config.multi_device_duplicate_rate:
        # The publisher requests bids for device-specific variants of every
        # slot (desktop / tablet / phone), inflating the auctioned inventory
        # well beyond what the page can display.
        duplicates = int(rng.integers(2, 5))
        for copy_index in range(1, duplicates + 1):
            for slot in slots:
                auctioned.append(
                    AdSlot(
                        code=f"{slot.code}-device{copy_index}",
                        primary_size=_sample_size(rng, facet),
                        floor_cpm=slot.floor_cpm,
                    )
                )
    return tuple(slots), tuple(auctioned)


def _weighted_sample_without_replacement(
    rng: np.random.Generator,
    pool: tuple[list, list[float], list[float]],
    count: int,
) -> list[DemandPartner]:
    candidates, p, cdf = pool
    return [candidates[i] for i in _swr(rng, p, cdf, min(count, len(candidates)))]


def _choose_partners(
    rng: np.random.Generator,
    config: PopulationConfig,
    tables: _Tables,
    facet: HBFacet,
) -> tuple[tuple[DemandPartner, ...], DemandPartner | None]:
    """Pick the visible partner mix and the ad server for one HB publisher."""
    dfp = tables.dfp

    if facet is HBFacet.SERVER_SIDE:
        # A single aggregation endpoint handles everything.
        if rng.random() < config.server_side_dfp_share:
            aggregator = dfp
        else:
            aggregator = (_weighted_sample_without_replacement(rng, tables.capable, 1) or [dfp])[0]
        return (aggregator,), aggregator

    n_partners = int(_choose_from_shares(rng, tables.partner_counts))
    partners: list[DemandPartner] = []
    include_dfp = rng.random() < config.multi_partner_dfp_share
    if include_dfp:
        partners.append(dfp)
    needed = n_partners - len(partners)
    if needed > 0:
        partners.extend(_weighted_sample_without_replacement(rng, tables.others, needed))

    # The partners are distinct (DFP first when present): DFP is not in
    # ``tables.others``, which is sampled without replacement.
    if facet is HBFacet.HYBRID:
        # The hybrid ad server must be able to run its own server-side auction;
        # DFP when configured, otherwise the first capable partner, otherwise DFP.
        if include_dfp:
            ad_server: DemandPartner | None = dfp
        else:
            capable = [p for p in partners if p.can_run_server_side]
            ad_server = capable[0] if capable else dfp
    else:
        # Client-side publishers operate their own ad server, which outside
        # observers cannot attribute to a known company.
        ad_server = None
    return tuple(partners), ad_server


def _latency_scale(rank: int, config: PopulationConfig) -> float:
    if rank <= config.top_rank_threshold:
        return config.top_rank_latency_scale
    if rank <= config.head_rank_threshold:
        return config.head_latency_scale
    return 1.0


def _build_hb_publisher(rng: np.random.Generator, rank: int, config: PopulationConfig,
                        tables: _Tables) -> Publisher:
    """The HB publisher at ``rank``; ``rng`` stands just past its adoption draw."""
    domain = _site_domain(rank)
    facet = _choose_from_shares(rng, tables.facets)
    assert isinstance(facet, HBFacet)
    partners, ad_server = _choose_partners(rng, config, tables, facet)

    if facet is HBFacet.SERVER_SIDE:
        # Server-side sites run the aggregator-provided tag (gpt.js for DFP).
        wrapper = WrapperKind.GPT if ad_server is not None and ad_server.can_serve_ads else WrapperKind.CUSTOM
    else:
        wrapper = _choose_from_shares(rng, tables.wrappers)
        assert isinstance(wrapper, WrapperKind)

    slots, auctioned = _build_slots(rng, config, facet, domain)

    timeout_ms = config.default_timeout_ms
    if rng.random() < config.custom_timeout_rate:
        low, high = config.custom_timeout_range_ms
        timeout_ms = float(rng.uniform(low, high))
    misconfigured = facet is not HBFacet.SERVER_SIDE and rng.random() < config.misconfigured_wrapper_rate

    return Publisher(
        domain=domain,
        rank=rank,
        uses_hb=True,
        facet=facet,
        wrapper=wrapper,
        partners=partners,
        ad_server=ad_server,
        slots=slots,
        auctioned_slots=auctioned,
        timeout_ms=timeout_ms,
        misconfigured_wrapper=misconfigured,
        latency_scale=_latency_scale(rank, config),
    )


def generate_population(
    config: PopulationConfig | None = None,
    registry: PartnerRegistry | None = None,
) -> PublisherPopulation:
    """Generate the publisher population for one experiment configuration.

    The generation is deterministic in ``config.seed``: the same configuration
    always yields the identical population.  Site ``rank`` draws from
    ``derive_rng(config.seed, "publisher", rank)``; every such stream is
    seeded in one vectorized pass, and its first draw, the HB adoption gate,
    is taken from the same arrays.  Most sites stop there; the HB ones
    continue on one reused generator activated at the post-gate state.
    """
    config = config or PopulationConfig()
    registry = registry or default_registry(seed=config.seed)
    ranks = range(1, config.total_sites + 1)
    state_hi, state_lo, inc_hi, inc_lo = _seed_states(
        config.seed, _key_entropy([("publisher", rank) for rank in ranks])
    )
    hi, lo = _mul128_add(state_hi, state_lo, inc_hi, inc_lo)
    gate = _output_doubles(hi, lo).tolist()
    streams = list(zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist()))
    activate = _activator()
    tables = _Tables(config, registry)
    publishers = [
        _build_hb_publisher(activate(*streams[i]), rank, config, tables)
        if gate[i] < config.adoption_probability(rank)
        else Publisher(domain=_site_domain(rank), rank=rank, uses_hb=False,
                       latency_scale=_latency_scale(rank, config))
        for i, rank in enumerate(ranks)
    ]
    return PublisherPopulation(publishers, config, registry)
