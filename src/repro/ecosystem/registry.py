"""Registry of demand partners participating in the simulated HB ecosystem.

The paper observes 84 unique demand partners.  The registry below contains the
named partners the paper's figures call out explicitly (top market share,
fastest, slowest, frequently-late), each with latency / bidding parameters
calibrated so that the reproduced figures match the reported shapes, plus a
long tail of additional partners generated deterministically to reach the same
ecosystem size.

The registry is data, not behaviour: partner behaviour lives in
:mod:`repro.ecosystem.partners`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError, UnknownPartnerError
from repro.models import PartnerKind
from repro.ecosystem.partners import BidBehavior, DemandPartner, LatencyModel
from repro.utils.ids import slugify
from repro.utils.rng import derive_rng

__all__ = ["PartnerRegistry", "default_registry", "NAMED_PARTNER_SPECS"]


@dataclass(frozen=True)
class _PartnerSpec:
    """Compact declarative description of one named partner."""

    name: str
    kind: PartnerKind
    domain: str
    latency_median_ms: float
    latency_sigma: float
    bid_probability: float
    base_cpm: float
    popularity_weight: float
    can_serve_ads: bool = False
    can_run_server_side: bool = False
    runs_internal_auction: bool = False
    bidder_code: str = ""
    extra_domains: tuple[str, ...] = ()
    slow_response_probability: float = 0.0

    def build(self) -> DemandPartner:
        return DemandPartner(
            name=self.name,
            kind=self.kind,
            bidder_code=self.bidder_code or slugify(self.name).replace("-", ""),
            domains=(self.domain, *self.extra_domains),
            latency=LatencyModel(
                self.latency_median_ms,
                self.latency_sigma,
                slow_response_probability=self.slow_response_probability,
            ),
            bidding=BidBehavior(
                bid_probability=self.bid_probability,
                base_cpm=self.base_cpm,
            ),
            popularity_weight=self.popularity_weight,
            can_serve_ads=self.can_serve_ads,
            can_run_server_side=self.can_run_server_side,
            runs_internal_auction=self.runs_internal_auction,
        )


# ---------------------------------------------------------------------------
# Named partners.
#
# Latency medians follow Figure 14 (fastest partners 41-217 ms, top-market
# partners ~200-450 ms, slowest partners 646-1290 ms).  Popularity weights
# follow Figure 8 (DFP ~80% of sites, then AppNexus, Rubicon, Criteo, Index,
# Amazon, OpenX, Pubmatic, AOL, Sovrn, Smart).  Base CPMs follow Figure 22-24
# (popular partners bid low and consistently; small partners bid higher with
# more variance).
# ---------------------------------------------------------------------------
NAMED_PARTNER_SPECS: tuple[_PartnerSpec, ...] = (
    # --- top market-share partners (Figure 8 / Figure 14 middle group) -----
    _PartnerSpec("DFP", PartnerKind.AD_SERVER, "doubleclick.net", 260, 0.35, 0.30, 0.030, 80.0,
                 can_serve_ads=True, can_run_server_side=True, runs_internal_auction=True,
                 bidder_code="dfp", extra_domains=("googlesyndication.com", "googletagservices.com")),
    _PartnerSpec("AppNexus", PartnerKind.ADX, "adnxs.com", 290, 0.40, 0.32, 0.034, 16.0,
                 can_run_server_side=True, runs_internal_auction=True, bidder_code="appnexus"),
    _PartnerSpec("Rubicon", PartnerKind.SSP, "rubiconproject.com", 320, 0.40, 0.33, 0.036, 13.0,
                 can_run_server_side=True, runs_internal_auction=True, bidder_code="rubicon"),
    _PartnerSpec("Criteo", PartnerKind.DSP, "criteo.com", 180, 0.38, 0.30, 0.032, 11.0,
                 can_run_server_side=True, bidder_code="criteo",
                 extra_domains=("criteo.net",)),
    _PartnerSpec("Index", PartnerKind.ADX, "indexexchange.com", 300, 0.42, 0.31, 0.035, 9.0,
                 can_run_server_side=True, runs_internal_auction=True, bidder_code="ix",
                 extra_domains=("casalemedia.com",)),
    _PartnerSpec("Amazon", PartnerKind.ADX, "amazon-adsystem.com", 340, 0.42, 0.28, 0.033, 8.0,
                 can_run_server_side=True, runs_internal_auction=True, bidder_code="amazon"),
    _PartnerSpec("OpenX", PartnerKind.SSP, "openx.net", 360, 0.44, 0.30, 0.035, 7.0,
                 can_run_server_side=True, bidder_code="openx"),
    _PartnerSpec("Pubmatic", PartnerKind.SSP, "pubmatic.com", 380, 0.44, 0.30, 0.034, 6.0,
                 can_run_server_side=True, bidder_code="pubmatic"),
    _PartnerSpec("AOL", PartnerKind.ADX, "adtechus.com", 400, 0.46, 0.27, 0.033, 5.0,
                 runs_internal_auction=True, bidder_code="aol",
                 extra_domains=("advertising.com",)),
    _PartnerSpec("Sovrn", PartnerKind.SSP, "lijit.com", 420, 0.46, 0.28, 0.034, 4.5,
                 bidder_code="sovrn"),
    _PartnerSpec("Smart", PartnerKind.SSP, "smartadserver.com", 430, 0.46, 0.27, 0.035, 4.0,
                 bidder_code="smartadserver"),
    # --- additional partners prominent in combinations / per-facet bids ----
    _PartnerSpec("Yieldlab", PartnerKind.SSP, "yieldlab.net", 170, 0.40, 0.29, 0.040, 3.2,
                 can_run_server_side=True, bidder_code="yieldlab"),
    _PartnerSpec("DistrictM", PartnerKind.SSP, "districtm.io", 390, 0.48, 0.27, 0.040, 2.8,
                 bidder_code="districtm"),
    _PartnerSpec("OftMedia", PartnerKind.SSP, "152media.com", 410, 0.50, 0.26, 0.042, 2.6,
                 bidder_code="oftmedia"),
    _PartnerSpec("bRealTime", PartnerKind.ADX, "brealtime.com", 400, 0.50, 0.26, 0.041, 2.4,
                 bidder_code="brealtime"),
    _PartnerSpec("EMX Digital", PartnerKind.ADX, "emxdgt.com", 395, 0.50, 0.26, 0.041, 2.4,
                 bidder_code="emx_digital"),
    _PartnerSpec("AdUpTech", PartnerKind.SSP, "adup-tech.com", 370, 0.50, 0.25, 0.043, 2.0,
                 bidder_code="aduptech"),
    _PartnerSpec("LiveWrapped", PartnerKind.SSP, "livewrapped.com", 365, 0.50, 0.25, 0.043, 1.8,
                 bidder_code="livewrapped"),
    # --- fastest partners (Figure 14 left group, medians 41-217 ms) --------
    _PartnerSpec("Piximedia", PartnerKind.SSP, "piximedia.com", 45, 0.35, 0.22, 0.060, 0.9,
                 bidder_code="piximedia"),
    _PartnerSpec("OneTag", PartnerKind.SSP, "onetag.com", 60, 0.35, 0.22, 0.058, 0.9,
                 bidder_code="onetag"),
    _PartnerSpec("Justpremium", PartnerKind.SSP, "justpremium.com", 80, 0.38, 0.22, 0.062, 1.0,
                 bidder_code="justpremium"),
    _PartnerSpec("StickyAdsTV", PartnerKind.SSP, "stickyadstv.com", 95, 0.38, 0.22, 0.060, 0.9,
                 bidder_code="stickyadstv"),
    _PartnerSpec("Widespace", PartnerKind.SSP, "widespace.com", 110, 0.40, 0.21, 0.063, 0.8,
                 bidder_code="widespace"),
    _PartnerSpec("Polymorph", PartnerKind.SSP, "getpolymorph.com", 130, 0.40, 0.21, 0.064, 0.8,
                 bidder_code="polymorph"),
    _PartnerSpec("Gjirafa", PartnerKind.SSP, "gjirafa.com", 175, 0.42, 0.21, 0.065, 0.7,
                 bidder_code="gjirafa"),
    _PartnerSpec("Atomx", PartnerKind.ADX, "ato.mx", 190, 0.42, 0.21, 0.066, 0.8,
                 bidder_code="atomx"),
    _PartnerSpec("Yieldbot", PartnerKind.DSP, "yldbt.com", 215, 0.42, 0.22, 0.060, 1.0,
                 bidder_code="yieldbot"),
    # --- slowest partners (Figure 14 right group, medians 646-1290 ms) -----
    _PartnerSpec("Trion", PartnerKind.SSP, "trion.com", 650, 0.60, 0.24, 0.075, 0.8,
                 bidder_code="trion"),
    _PartnerSpec("AdOcean", PartnerKind.SSP, "adocean.pl", 700, 0.62, 0.24, 0.078, 0.9,
                 bidder_code="adocean"),
    _PartnerSpec("Fidelity", PartnerKind.SSP, "fidelity-media.com", 760, 0.62, 0.23, 0.080, 0.7,
                 bidder_code="fidelity"),
    _PartnerSpec("C1X", PartnerKind.ADX, "c1exchange.com", 820, 0.64, 0.23, 0.082, 0.7,
                 bidder_code="c1x"),
    _PartnerSpec("Yieldone", PartnerKind.SSP, "yield-one.com", 880, 0.64, 0.23, 0.083, 0.7,
                 bidder_code="yieldone"),
    _PartnerSpec("Aardvark", PartnerKind.SSP, "rtk.io", 950, 0.66, 0.22, 0.085, 0.6,
                 bidder_code="aardvark"),
    _PartnerSpec("Innity", PartnerKind.SSP, "innity.com", 1020, 0.66, 0.22, 0.086, 0.6,
                 bidder_code="innity"),
    _PartnerSpec("Bridgewell", PartnerKind.SSP, "scupio.com", 1100, 0.68, 0.22, 0.088, 0.6,
                 bidder_code="bridgewell"),
    _PartnerSpec("Gamma SSP", PartnerKind.SSP, "gammaplatform.com", 1200, 0.68, 0.21, 0.090, 0.5,
                 bidder_code="gamma"),
    _PartnerSpec("Adgeneration", PartnerKind.SSP, "scaleout.jp", 1280, 0.70, 0.21, 0.092, 0.5,
                 bidder_code="adgeneration"),
    # --- partners with many late bids (Figure 18) --------------------------
    _PartnerSpec("Lifestreet", PartnerKind.DSP, "lfstmedia.com", 980, 0.75, 0.24, 0.080, 0.6,
                 bidder_code="lifestreet"),
    _PartnerSpec("AdMatic", PartnerKind.SSP, "admatic.com.tr", 940, 0.75, 0.23, 0.079, 0.6,
                 bidder_code="admatic"),
    _PartnerSpec("Consumable", PartnerKind.SSP, "serverbid.com", 900, 0.72, 0.24, 0.076, 0.7,
                 bidder_code="consumable"),
    _PartnerSpec("SpotX", PartnerKind.SSP, "spotxchange.com", 860, 0.72, 0.25, 0.074, 0.9,
                 bidder_code="spotx"),
    _PartnerSpec("FreeWheel", PartnerKind.SSP, "fwmrm.net", 830, 0.70, 0.25, 0.073, 0.8,
                 bidder_code="freewheel"),
    _PartnerSpec("LKQD", PartnerKind.SSP, "lkqd.net", 800, 0.70, 0.24, 0.072, 0.7,
                 bidder_code="lkqd"),
    _PartnerSpec("Tremor", PartnerKind.DSP, "tremorhub.com", 780, 0.70, 0.24, 0.071, 0.7,
                 bidder_code="tremor"),
    _PartnerSpec("InSkin", PartnerKind.SSP, "inskinad.com", 760, 0.68, 0.23, 0.070, 0.6,
                 bidder_code="inskin"),
    _PartnerSpec("AdKernelAdn", PartnerKind.ADX, "adkernel.com", 740, 0.68, 0.23, 0.070, 0.6,
                 bidder_code="adkerneladn"),
    _PartnerSpec("Quantum", PartnerKind.SSP, "elasticad.net", 720, 0.68, 0.23, 0.069, 0.6,
                 bidder_code="quantum"),
    _PartnerSpec("SmartyAds", PartnerKind.SSP, "smartyads.com", 700, 0.66, 0.23, 0.068, 0.6,
                 bidder_code="smartyads"),
    _PartnerSpec("Clickonometrics", PartnerKind.SSP, "clickonometrics.pl", 690, 0.66, 0.22, 0.068, 0.5,
                 bidder_code="clickonometrics"),
    _PartnerSpec("Kumma", PartnerKind.SSP, "kumma.com", 680, 0.66, 0.22, 0.067, 0.5,
                 bidder_code="kumma"),
    _PartnerSpec("E-Planning", PartnerKind.SSP, "e-planning.net", 670, 0.66, 0.22, 0.067, 0.6,
                 bidder_code="eplanning"),
    _PartnerSpec("ImproveDigital", PartnerKind.SSP, "360yield.com", 640, 0.64, 0.24, 0.066, 1.2,
                 bidder_code="improvedigital"),
)

#: Partners the paper's Figure 18 singles out for chronically late bids; their
#: backends regularly take several times longer than usual to answer, which is
#: what pushes them past wrapper timeouts on a large share of their auctions.
LATE_PRONE_PARTNERS: frozenset[str] = frozenset({
    "Lifestreet", "AdMatic", "Consumable", "SpotX", "FreeWheel", "LKQD", "Tremor",
    "InSkin", "AdKernelAdn", "Quantum", "SmartyAds", "Clickonometrics", "Kumma",
    "E-Planning", "ImproveDigital", "Atomx", "Piximedia", "Justpremium",
})

#: Probability of an overloaded (multi-second) response for late-prone partners.
_SLOW_BURST_PROBABILITY: float = 0.45

# Long-tail partner names used to complete the 84-partner universe.  These are
# real Prebid adapters but the paper does not report per-partner parameters
# for them, so they all share moderate defaults with small deterministic
# jitter applied in :func:`default_registry`.
_LONG_TAIL_NAMES: tuple[str, ...] = (
    "33Across", "Sharethrough", "TripleLift", "Teads", "Unruly", "GumGum",
    "Sonobi", "Conversant", "MediaNet", "RhythmOne", "Undertone", "Nativo",
    "Outbrain", "Taboola", "Adform", "Beachfront", "Kargo", "Sortable",
    "Vertamedia", "AdYouLike", "Vidazoo", "Cedato", "MarsMedia", "Somoaudience",
    "AdMixer", "Between", "Bidfluence", "BuzzoolaAds", "Carambola", "Cinemad",
    "Cointraffic", "Colossus", "ConnectAd", "Datablocks", "DecenterAds",
    "Engageya",
)


class PartnerRegistry:
    """Ordered, name-addressable collection of demand partners.

    The registry is the single source of truth for which partners exist in the
    simulated ecosystem.  The detector's known-partner list is *derived* from a
    registry (optionally with omissions, to study recall), never shared with it
    directly.
    """

    def __init__(self, partners: Iterable[DemandPartner]) -> None:
        self._partners: list[DemandPartner] = list(partners)
        if not self._partners:
            raise ConfigurationError("a partner registry cannot be empty")
        self._by_slug = {partner.slug: partner for partner in self._partners}
        self._by_bidder_code = {partner.bidder_code: partner for partner in self._partners}
        if len(self._by_slug) != len(self._partners):
            raise ConfigurationError("partner names must be unique within a registry")

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._partners)

    def __iter__(self) -> Iterator[DemandPartner]:
        return iter(self._partners)

    def __contains__(self, name: str) -> bool:
        return slugify(name) in self._by_slug or name in self._by_bidder_code

    # -- lookup --------------------------------------------------------------
    def get(self, name: str) -> DemandPartner:
        """Look a partner up by display name, slug or bidder code."""
        slug = slugify(name)
        if slug in self._by_slug:
            return self._by_slug[slug]
        if name in self._by_bidder_code:
            return self._by_bidder_code[name]
        raise UnknownPartnerError(name)

    def by_bidder_code(self, code: str) -> DemandPartner:
        if code not in self._by_bidder_code:
            raise UnknownPartnerError(code)
        return self._by_bidder_code[code]

    @property
    def partners(self) -> tuple[DemandPartner, ...]:
        return tuple(self._partners)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(partner.name for partner in self._partners)

    @property
    def domains(self) -> tuple[str, ...]:
        """Every bid-endpoint domain known to the ecosystem."""
        seen: list[str] = []
        for partner in self._partners:
            for domain in partner.domains:
                if domain not in seen:
                    seen.append(domain)
        return tuple(seen)

    # -- selections ----------------------------------------------------------
    def ad_servers(self) -> tuple[DemandPartner, ...]:
        return tuple(p for p in self._partners if p.can_serve_ads)

    def server_side_capable(self) -> tuple[DemandPartner, ...]:
        return tuple(p for p in self._partners if p.can_run_server_side)

    def subset(self, names: Sequence[str]) -> "PartnerRegistry":
        """A new registry restricted to the given partner names."""
        return PartnerRegistry([self.get(name) for name in names])

    def describe(self) -> list[dict[str, object]]:
        return [dict(partner.describe()) for partner in self._partners]


def _long_tail_partner(name: str, index: int, seed: int) -> DemandPartner:
    """Build one long-tail partner with deterministic parameter jitter."""
    rng = derive_rng(seed, "long-tail-partner", name)
    median = float(rng.uniform(250, 620))
    sigma = float(rng.uniform(0.45, 0.62))
    bid_probability = float(rng.uniform(0.16, 0.28))
    base_cpm = float(rng.uniform(0.045, 0.095))
    weight = float(rng.uniform(0.15, 0.55))
    domain = f"{slugify(name)}.com"
    return DemandPartner(
        name=name,
        kind=PartnerKind.SSP if index % 3 else PartnerKind.DSP,
        bidder_code=slugify(name).replace("-", ""),
        domains=(domain,),
        latency=LatencyModel(median, sigma),
        bidding=BidBehavior(bid_probability=bid_probability, base_cpm=base_cpm),
        popularity_weight=weight,
    )


def default_registry(seed: int = 2019, total_partners: int = 84) -> PartnerRegistry:
    """Build the default 84-partner ecosystem used throughout the paper repro.

    ``total_partners`` may be lowered for fast unit tests; it cannot drop below
    the number of named partners.
    """
    named = []
    for spec in NAMED_PARTNER_SPECS:
        if spec.name in LATE_PRONE_PARTNERS:
            spec = replace(spec, slow_response_probability=_SLOW_BURST_PROBABILITY)
        named.append(spec.build())
    if total_partners < len(named):
        return PartnerRegistry(named[:total_partners])
    remaining = total_partners - len(named)
    if remaining > len(_LONG_TAIL_NAMES):
        raise ConfigurationError(
            f"cannot build a registry of {total_partners} partners: "
            f"only {len(NAMED_PARTNER_SPECS) + len(_LONG_TAIL_NAMES)} names available"
        )
    tail = [
        _long_tail_partner(name, index, seed)
        for index, name in enumerate(_LONG_TAIL_NAMES[:remaining])
    ]
    return PartnerRegistry(named + tail)
