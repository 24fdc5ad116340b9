"""Tiny stdlib client for the campaign service.

``urllib.request`` only — the same zero-dependency rule as the server.  Used
by the test suite, ``examples/service_client.py`` and
``benchmarks/service.py``; handy interactively too::

    from repro.service.client import ServiceClient
    client = ServiceClient("http://127.0.0.1:8710")
    campaign = client.submit({"sites": 40, "days": 1, "seed": 7})
    client.wait(campaign["id"])
    print(client.artifact_text(campaign["id"], "table1"))

Every non-2xx response raises :class:`ServiceClientError` carrying the
status code and the server's decoded JSON error body.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterator, Mapping
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(Exception):
    """A service request failed (non-2xx status or unreachable server)."""

    def __init__(self, message: str, *, status: int | None = None, body: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class ServiceClient:
    """Thin JSON-over-HTTP wrapper around one campaign service."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        *,
        params: Mapping[str, Any] | None = None,
        body: Any = None,
        timeout: float | None = None,
    ):
        url = self.base_url + path
        if params:
            url += "?" + urlencode({k: v for k, v in params.items() if v is not None})
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = Request(url, data=data, headers=headers, method=method)
        try:
            return urlopen(request, timeout=timeout or self.timeout)
        except HTTPError as exc:
            with exc:  # an error response still holds its socket
                raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = raw.decode("utf-8", "replace")
            detail = payload.get("error", payload) if isinstance(payload, dict) else payload
            raise ServiceClientError(
                f"{method} {path} -> {exc.code}: {detail}", status=exc.code, body=payload
            ) from None
        except URLError as exc:
            raise ServiceClientError(f"{method} {path} failed: {exc.reason}") from None

    def _json(self, method: str, path: str, **kwargs: Any) -> Any:
        with self._request(method, path, **kwargs) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- campaign lifecycle -------------------------------------------------------
    def index(self) -> dict[str, Any]:
        return self._json("GET", "/")

    def submit(self, config: Mapping[str, Any]) -> dict[str, Any]:
        """POST a campaign config (field names or CLI aliases), return it."""
        return self._json("POST", "/campaigns", body=dict(config))

    def campaigns(self) -> list[dict[str, Any]]:
        return self._json("GET", "/campaigns")["campaigns"]

    def campaign(self, campaign_id: str) -> dict[str, Any]:
        return self._json("GET", f"/campaigns/{campaign_id}")

    def cancel(self, campaign_id: str) -> dict[str, Any]:
        return self._json("DELETE", f"/campaigns/{campaign_id}")

    def resume(self, campaign_id: str) -> dict[str, Any]:
        return self._json("POST", f"/campaigns/{campaign_id}/resume")

    def tick(
        self,
        campaign_id: str,
        *,
        metrics: tuple[str, ...] | list[str] | None = None,
        thresholds: tuple[str, ...] | list[str] | None = None,
        retention_days: int | None = None,
    ) -> dict[str, Any]:
        """Extend a finished campaign by one crawl day (a recrawl-daemon tick)."""
        body: dict[str, Any] = {}
        if metrics is not None:
            body["metrics"] = list(metrics)
        if thresholds is not None:
            body["thresholds"] = list(thresholds)
        if retention_days is not None:
            body["retention_days"] = retention_days
        return self._json(
            "POST", f"/campaigns/{campaign_id}/ticks", body=body or None
        )

    def wait(
        self, campaign_id: str, *, timeout: float = 120.0, interval: float = 0.1
    ) -> dict[str, Any]:
        """Poll until the campaign reaches done/failed/cancelled."""
        deadline = time.monotonic() + timeout
        while True:
            campaign = self.campaign(campaign_id)
            if campaign["state"] in ("done", "failed", "cancelled"):
                return campaign
            if time.monotonic() > deadline:
                raise ServiceClientError(
                    f"campaign {campaign_id} still {campaign['state']} after {timeout:.0f}s"
                )
            time.sleep(interval)

    # -- reads ------------------------------------------------------------------
    def detections(self, campaign_id: str, **filters: Any) -> dict[str, Any]:
        """Filtered, paginated detections (partner/facet/crawl_day/rank_bin/...)."""
        return self._json("GET", f"/campaigns/{campaign_id}/detections", params=filters)

    def iter_detections(
        self, campaign_id: str, *, page_size: int = 200, **filters: Any
    ) -> Iterator[dict[str, Any]]:
        """Walk every matching detection across pages."""
        offset = 0
        while True:
            page = self.detections(
                campaign_id, limit=page_size, offset=offset, **filters
            )
            yield from page["items"]
            offset += page["count"]
            if offset >= page["total"] or page["count"] == 0:
                return

    def artifact(self, campaign_id: str, name: str) -> dict[str, Any]:
        """A registered metric as JSON (data + rendered text)."""
        return self._json("GET", f"/campaigns/{campaign_id}/artifacts/{name}")

    def artifact_text(self, campaign_id: str, name: str) -> str:
        """A metric rendered exactly as ``hbrepro analyze`` prints it."""
        with self._request(
            "GET", f"/campaigns/{campaign_id}/artifacts/{name}", params={"format": "text"}
        ) as response:
            return response.read().decode("utf-8")

    def download(self, campaign_id: str, name: str = "detections.jsonl") -> bytes:
        """Raw artifact bytes (default: the campaign's detection sink file)."""
        with self._request("GET", f"/campaigns/{campaign_id}/artifacts/{name}") as response:
            return response.read()

    # -- events -----------------------------------------------------------------
    def events(
        self,
        campaign_id: str,
        *,
        artifacts: tuple[str, ...] = (),
        interval: float | None = None,
        timeout: float | None = None,
        keepalive: float | None = None,
        read_timeout: float = 600.0,
    ) -> Iterator[tuple[str, Any]]:
        """Iterate the campaign's SSE stream as ``(event, payload)`` pairs.

        Terminates when the server closes the stream (after the final
        ``state`` event, or a server-side ``timeout`` event).  The server's
        ``: keepalive`` comment lines are consumed silently, as the SSE spec
        prescribes.
        """
        params = [("artifact", name) for name in artifacts]
        if interval is not None:
            params.append(("interval", str(interval)))
        if timeout is not None:
            params.append(("timeout", str(timeout)))
        if keepalive is not None:
            params.append(("keepalive", str(keepalive)))
        query = "?" + urlencode(params) if params else ""
        url = f"{self.base_url}/campaigns/{campaign_id}/events{query}"
        request = Request(url, headers={"Accept": "text/event-stream"})
        try:
            stream = urlopen(request, timeout=read_timeout)
        except HTTPError as exc:
            with exc:  # an error response still holds its socket
                raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = raw.decode("utf-8", "replace")
            raise ServiceClientError(
                f"GET events -> {exc.code}: {payload}", status=exc.code, body=payload
            ) from None
        with stream:
            event: str | None = None
            data_lines: list[str] = []
            for raw_line in stream:
                line = raw_line.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: ") :]
                elif line.startswith("data: "):
                    data_lines.append(line[len("data: ") :])
                elif line == "" and event is not None:
                    payload = json.loads("\n".join(data_lines)) if data_lines else None
                    yield event, payload
                    event, data_lines = None, []

    def stream_to_completion(
        self,
        campaign_id: str,
        *,
        artifacts: tuple[str, ...] = (),
        interval: float | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Follow the SSE stream until it ends; return the collected tail.

        The result maps ``"state"`` to the final campaign dict, ``"metrics"``
        to the last metrics payload seen (the final snapshot when artifacts
        were requested), ``"progress"`` to every progress payload and
        ``"alerts"`` to every regression alert streamed.
        """
        out: dict[str, Any] = {"state": None, "metrics": None, "progress": [], "alerts": []}
        for event, payload in self.events(
            campaign_id, artifacts=artifacts, interval=interval, timeout=timeout
        ):
            if event == "progress":
                out["progress"].append(payload)
            elif event == "metrics":
                out["metrics"] = payload
            elif event == "alert":
                out["alerts"].append(payload)
            elif event == "state":
                out["state"] = payload
        return out
