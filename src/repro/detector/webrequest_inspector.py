"""Web-request inspector (detection method 3 of the paper).

The extension's second vantage point is the browser's web-request interface:
every request the page sends and every response it receives, with URL and
parameters, observed passively.  The inspector matches traffic against the
curated known-partner list, extracts ``hb_*`` parameters from requests and
responses, identifies the ad-server push, and measures per-partner round-trip
latencies — all the raw material the combined detector needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.detector.parameters import HBParameterSet, extract_hb_parameters, has_hb_parameters
from repro.detector.partner_list import KnownPartnerList
from repro.models import RequestDirection, WebRequest
from repro.utils.urls import url_host

__all__ = ["WebRequestObservations", "PartnerExchange", "WebRequestInspector"]


@dataclass(frozen=True, slots=True, init=False)
class PartnerExchange:
    """One request/response pair attributed to a known HB partner."""

    partner: str
    host: str
    request_at_ms: float | None
    response_at_ms: float | None
    request_params: Mapping[str, str]
    response_params: Mapping[str, str]
    response_hb_params: HBParameterSet

    def __init__(
        self,
        partner: str,
        host: str,
        request_at_ms: float | None,
        response_at_ms: float | None,
        request_params: Mapping[str, str],
        response_params: Mapping[str, str],
        response_hb_params: HBParameterSet,
    ) -> None:
        # Hand-written for the same reason as the detection records
        # (repro.detector.records): one bound setter, no generated wrapper.
        set_ = object.__setattr__.__get__(self)
        set_("partner", partner)
        set_("host", host)
        set_("request_at_ms", request_at_ms)
        set_("response_at_ms", response_at_ms)
        set_("request_params", request_params)
        set_("response_params", response_params)
        set_("response_hb_params", response_hb_params)

    @property
    def latency_ms(self) -> float | None:
        if self.request_at_ms is None or self.response_at_ms is None:
            return None
        return max(0.0, self.response_at_ms - self.request_at_ms)

    @property
    def carries_hb_response(self) -> bool:
        return not self.response_hb_params.is_empty


@dataclass
class WebRequestObservations:
    """Everything the web-request channel observed on one page."""

    #: Exchanges with known partners, in first-contact order.
    exchanges: list[PartnerExchange] = field(default_factory=list)
    #: The outgoing ad-server push (the request carrying hb_* key-values).
    ad_server_push: WebRequest | None = None
    ad_server_push_params: HBParameterSet | None = None
    #: Response from the ad-server host after the push (if observed).
    ad_server_response_at_ms: float | None = None
    #: Whether the push went to a host on the known-partner list (hybrid /
    #: server-side) or to an unattributable host (client-side, own ad server).
    ad_server_is_known_partner: bool = False
    ad_server_partner: str | None = None
    #: First bid request to any known partner (start of the HB clock).
    first_partner_request_at_ms: float | None = None
    #: Incoming responses carrying hb_* parameters, per partner, with times.
    hb_responses: list[tuple[str, float, HBParameterSet]] = field(default_factory=list)

    @property
    def partners_contacted(self) -> tuple[str, ...]:
        seen: list[str] = []
        for exchange in self.exchanges:
            if exchange.partner not in seen:
                seen.append(exchange.partner)
        return tuple(seen)

    @property
    def partner_latencies_ms(self) -> dict[str, float]:
        """Fastest observed round trip per partner (first exchange wins)."""
        latencies: dict[str, float] = {}
        for exchange in self.exchanges:
            latency = exchange.latency_ms
            if latency is None:
                continue
            latencies.setdefault(exchange.partner, latency)
        return latencies

    @property
    def any_hb_traffic(self) -> bool:
        return bool(self.hb_responses) or self.ad_server_push is not None


class WebRequestInspector:
    """Turns a page's web-request log into :class:`WebRequestObservations`."""

    def __init__(self, known_partners: KnownPartnerList) -> None:
        self._known = known_partners

    def inspect(self, requests: Sequence[WebRequest]) -> WebRequestObservations:
        observations = WebRequestObservations()
        pending: dict[str, tuple[str, WebRequest]] = {}

        for request in requests:
            host = request.host
            partner = self._known.match_host(host)
            if request.direction is RequestDirection.OUTGOING:
                self._on_outgoing(observations, request, host, partner, pending)
            else:
                self._on_incoming(observations, request, host, partner, pending)
        return observations

    # -- direction handlers -------------------------------------------------------
    def _on_outgoing(
        self,
        observations: WebRequestObservations,
        request: WebRequest,
        host: str,
        partner: str | None,
        pending: dict[str, tuple[str, WebRequest]],
    ) -> None:
        carries_hb = has_hb_parameters(request)
        is_win_notification = request.url.endswith("/hb/win") or request.params.get("event") == "win"
        if carries_hb and not is_win_notification and observations.ad_server_push is None:
            # The key-value push to the ad server: the only *outgoing* request
            # that carries hb_* targeting parameters.
            observations.ad_server_push = request
            observations.ad_server_push_params = extract_hb_parameters(request.params)
            observations.ad_server_is_known_partner = partner is not None
            observations.ad_server_partner = partner
            return
        if partner is None:
            return
        if observations.first_partner_request_at_ms is None:
            observations.first_partner_request_at_ms = request.timestamp_ms
        pending.setdefault(host, (partner, request))

    def _on_incoming(
        self,
        observations: WebRequestObservations,
        request: WebRequest,
        host: str,
        partner: str | None,
        pending: dict[str, tuple[str, WebRequest]],
    ) -> None:
        hb_params = extract_hb_parameters(request.params)
        if observations.ad_server_push is not None:
            push_host = url_host(observations.ad_server_push.url)
            if host == push_host and request.timestamp_ms >= observations.ad_server_push.timestamp_ms:
                if observations.ad_server_response_at_ms is None:
                    observations.ad_server_response_at_ms = request.timestamp_ms
        if partner is None:
            return
        if not hb_params.is_empty:
            observations.hb_responses.append((partner, request.timestamp_ms, hb_params))
        outgoing = pending.pop(host, None)
        if outgoing is not None:
            known_partner, original = outgoing
            observations.exchanges.append(
                PartnerExchange(
                    partner=known_partner,
                    host=host,
                    request_at_ms=original.timestamp_ms,
                    response_at_ms=request.timestamp_ms,
                    request_params=dict(original.params),
                    response_params=dict(request.params),
                    response_hb_params=hb_params,
                )
            )
        else:
            observations.exchanges.append(
                PartnerExchange(
                    partner=partner,
                    host=host,
                    request_at_ms=None,
                    response_at_ms=request.timestamp_ms,
                    request_params={},
                    response_params=dict(request.params),
                    response_hb_params=hb_params,
                )
            )
