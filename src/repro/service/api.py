"""The HTTP face of the crawl service.

Stdlib-only (``http.server.ThreadingHTTPServer``): one handler thread per
request, layered strictly as routes (this module: parse URL/body, serialise
JSON) → services (:class:`~repro.service.campaigns.CampaignManager`) → store
(:class:`~repro.service.store.DetectionStore`).

Routes
------
==========================================  =============================================
``POST /campaigns``                         submit an ``ExperimentConfig`` JSON body
``GET /campaigns``                          list campaigns (submission order)
``GET /campaigns/{id}``                     one campaign's state/counters/links
``DELETE /campaigns/{id}``                  cancel (leaves a resumable checkpoint)
``POST /campaigns/{id}/resume``             continue a cancelled/failed campaign
``POST /campaigns/{id}/ticks``              extend a finished campaign by one crawl
                                            day (a recrawl-daemon tick; optional JSON
                                            body with ``metrics``/``thresholds``)
``GET /campaigns/{id}/detections``          filtered + paginated detection query
``GET /campaigns/{id}/artifacts/{name}``    any registered metric (``?format=text``
                                            for the exact CLI rendering), or the file
                                            it hands out (``detections.jsonl``/``.hbc``)
``GET /campaigns/{id}/events``              server-sent events: progress + live
                                            metric snapshots while the crawl runs,
                                            ``alert`` events from the campaign's
                                            regression alert log, and ``: keepalive``
                                            comments while idle
``GET /``                                   service description
==========================================  =============================================

Every error — bad submission, unknown campaign/metric, invalid filter —
returns a JSON body ``{"error": {"type": ..., "message": ...}}`` with a 4xx
status; stack traces never cross the wire.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterator, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.analysis.registry import get_metric, metric_names
from repro.errors import (
    CampaignStateError,
    ConfigurationError,
    EmptyDatasetError,
    MetricContextError,
    ReproError,
    RequestTooLargeError,
    ServiceError,
    UnknownCampaignError,
    UnknownMetricError,
)
from repro.service.campaigns import CampaignManager, campaign_config_from_dict
from repro.service.store import DetectionQuery, compact_json
from repro.workdir import tail_jsonl

__all__ = ["ReproServiceServer", "running_server", "DEFAULT_EVENT_INTERVAL"]

#: Default SSE polling interval (seconds) between sink staleness probes.
DEFAULT_EVENT_INTERVAL = 0.5

#: Default idle interval (seconds) after which an SSE stream with nothing to
#: say writes a ``: keepalive`` comment line, so proxies and keep-alive
#: clients do not time the connection out during long gaps (a daemon-grown
#: campaign idles between crawl days).  Clients tune it with ``?keepalive=``.
DEFAULT_KEEPALIVE_INTERVAL = 15.0

#: Hard ceiling on one SSE connection's lifetime, so an abandoned stream
#: cannot pin a handler thread forever.  Clients pass ``?timeout=`` to lower it.
MAX_EVENT_SECONDS = 3600.0

#: Largest request body a POST may carry; a longer ``Content-Length`` is
#: answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20

#: Content type of every JSON response.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Artifact name that serves a JSONL campaign's exported detections —
#: byte-identical to the file a direct ``repro run --save`` writes.
RAW_SINK_ARTIFACT = "detections.jsonl"

#: Exception → HTTP status, first match wins (subclasses before bases).
_ERROR_STATUS: tuple[tuple[type[Exception], int], ...] = (
    (UnknownCampaignError, 404),
    (UnknownMetricError, 404),
    (CampaignStateError, 409),
    (EmptyDatasetError, 409),
    (MetricContextError, 400),
    (RequestTooLargeError, 413),
    (ServiceError, 400),
    (ConfigurationError, 400),
    (ReproError, 400),
)


def _error_status(exc: Exception) -> int:
    for exc_type, status in _ERROR_STATUS:
        if isinstance(exc, exc_type):
            return status
    return 500


def _offline_metric_names() -> list[str]:
    """Metrics a campaign store can serve (dataset-only requirements)."""
    return [
        name for name in metric_names() if set(get_metric(name).requires) <= {"dataset"}
    ]


class ReproServiceServer(ThreadingHTTPServer):
    """The campaign service: a threading HTTP server owning one manager."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        *,
        data_dir: str | Path,
        max_parallel: int = 1,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _ServiceHandler)
        self.manager = CampaignManager(data_dir, max_parallel=max_parallel)
        self.verbose = verbose
        self.started_at = time.time()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self, *, grace: float = 30.0) -> None:
        """Graceful teardown: checkpoint in-flight crawls, then close sockets."""
        self.manager.shutdown(timeout=grace)
        self.server_close()


class _ServiceHandler(BaseHTTPRequestHandler):
    """Route layer: URL/body parsing in, JSON out, nothing else."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, a keep-alive
    # client waits a delayed-ACK round for the body of every response.
    disable_nagle_algorithm = True
    server: ReproServiceServer  # narrowed for type checkers

    # -- plumbing ---------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_bytes(status, compact_json(payload) + b"\n", JSON_CONTENT_TYPE)

    def _send_error_json(self, status: int, exc: Exception) -> None:
        message = str(exc) if status < 500 else "internal server error"
        self._send_json(status, {"error": {"type": type(exc).__name__, "message": message}})

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body_length(self) -> int:
        """The request's ``Content-Length``, checked before any body byte is read.

        A length that is not a plain decimal integer is a 400 and one above
        :data:`MAX_BODY_BYTES` a 413.  Either way the body stays unread, so
        the connection closes after the error response.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise ServiceError(f"Content-Length must be a non-negative integer, got {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestTooLargeError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        return length

    def _read_json_body(self, *, empty: Any = None) -> Any:
        """The request body as JSON; ``empty`` (when given) stands in for no body."""
        length = self._body_length()
        if not length and empty is not None:
            return empty
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request body is empty; expected a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def _route(self) -> tuple[list[str], dict[str, list[str]]]:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        return parts, parse_qs(split.query, keep_blank_values=True)

    def _dispatch(self, handler, *args: Any) -> None:
        try:
            handler(*args)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            try:
                self._send_error_json(_error_status(exc), exc)
            except (BrokenPipeError, ConnectionResetError):
                pass

    # -- verbs ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts, params = self._route()
        if not parts:
            return self._dispatch(self._get_index)
        if parts[0] != "campaigns":
            return self._dispatch(self._not_found)
        if len(parts) == 1:
            return self._dispatch(self._get_campaigns)
        if len(parts) == 2:
            return self._dispatch(self._get_campaign, parts[1])
        if len(parts) == 3 and parts[2] == "detections":
            return self._dispatch(self._get_detections, parts[1], params)
        if len(parts) == 4 and parts[2] == "artifacts":
            return self._dispatch(self._get_artifact, parts[1], parts[3], params)
        if len(parts) == 3 and parts[2] == "events":
            return self._dispatch(self._get_events, parts[1], params)
        return self._dispatch(self._not_found)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        parts, _ = self._route()
        if parts == ["campaigns"]:
            return self._dispatch(self._post_campaign)
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "resume":
            return self._dispatch(self._post_resume, parts[1])
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "ticks":
            return self._dispatch(self._post_tick, parts[1])
        return self._dispatch(self._not_found)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        parts, _ = self._route()
        if len(parts) == 2 and parts[0] == "campaigns":
            return self._dispatch(self._delete_campaign, parts[1])
        return self._dispatch(self._not_found)

    # -- route implementations ---------------------------------------------------
    def _not_found(self) -> None:
        self._send_json(
            404, {"error": {"type": "NotFound", "message": f"no route for {self.path}"}}
        )

    def _get_index(self) -> None:
        manager = self.server.manager
        self._send_json(
            200,
            {
                "service": "hbrepro campaign service",
                "uptime_s": time.time() - self.server.started_at,
                "campaigns": manager.states(),
                "artifacts": _offline_metric_names() + [RAW_SINK_ARTIFACT],
                "endpoints": [
                    "POST /campaigns",
                    "GET /campaigns",
                    "GET /campaigns/{id}",
                    "DELETE /campaigns/{id}",
                    "POST /campaigns/{id}/resume",
                    "POST /campaigns/{id}/ticks",
                    "GET /campaigns/{id}/detections",
                    "GET /campaigns/{id}/artifacts/{name}",
                    "GET /campaigns/{id}/events",
                ],
            },
        )

    def _post_campaign(self) -> None:
        config = campaign_config_from_dict(self._read_json_body())
        campaign = self.server.manager.submit(config)
        self._send_json(201, campaign.to_dict())

    def _post_resume(self, campaign_id: str) -> None:
        campaign = self.server.manager.resume(campaign_id)
        self._send_json(202, campaign.to_dict())

    def _post_tick(self, campaign_id: str) -> None:
        """Extend a finished campaign by one crawl day (a daemon tick).

        The optional JSON body tunes the tick: ``metrics`` (watched
        dataset-only metric names), ``thresholds`` (regression rules,
        ``metric.field:kind=value``) and ``retention_days``.  Alerts the
        tick emits land in the campaign's alert log and stream over
        ``/events`` as ``alert`` events.
        """
        body = self._read_json_body(empty={})
        if not isinstance(body, Mapping):
            raise ServiceError("a tick body must be a JSON object")
        unknown = set(body) - {"metrics", "thresholds", "retention_days"}
        if unknown:
            raise ServiceError(f"unknown tick fields: {sorted(unknown)}")
        metrics = body.get("metrics", ["table1"])
        thresholds = body.get("thresholds", [])
        if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
            raise ServiceError("tick field 'metrics' must be a list of metric names")
        if not isinstance(thresholds, list) or not all(isinstance(t, str) for t in thresholds):
            raise ServiceError(
                "tick field 'thresholds' must be a list of metric.field:kind=value rules"
            )
        retention = body.get("retention_days")
        if retention is not None and (not isinstance(retention, int) or retention < 1):
            raise ServiceError("tick field 'retention_days' must be a positive integer")
        campaign, day = self.server.manager.tick(
            campaign_id,
            metrics=tuple(metrics),
            thresholds=tuple(thresholds),
            retention_days=retention,
        )
        self._send_json(202, {**campaign.to_dict(), "tick_day": day})

    def _delete_campaign(self, campaign_id: str) -> None:
        campaign = self.server.manager.cancel(campaign_id)
        self._send_json(202, campaign.to_dict())

    def _get_campaigns(self) -> None:
        campaigns = self.server.manager.list()
        self._send_json(200, {"campaigns": [c.to_dict() for c in campaigns]})

    def _get_campaign(self, campaign_id: str) -> None:
        campaign = self.server.manager.get(campaign_id)
        self._send_json(200, campaign.to_dict())

    def _get_detections(self, campaign_id: str, params: dict[str, list[str]]) -> None:
        campaign = self.server.manager.get(campaign_id)
        flat = {key: values[-1] for key, values in params.items()}
        query = DetectionQuery.from_params(flat)
        campaign.store.refresh()
        page = campaign.store.query(query)
        # ``items`` is the envelope's last key: splice the records' memoised
        # encodings into the compact envelope, the same bytes ``_send_json``
        # would write for the decoded page.
        items = page.pop("items")
        head = compact_json(page)
        body = b"".join((head[:-1], b',"items":[', b",".join(items), b"]}\n"))
        self._send_bytes(200, body, JSON_CONTENT_TYPE)

    def _get_artifact(self, campaign_id: str, name: str, params: dict[str, list[str]]) -> None:
        campaign = self.server.manager.get(campaign_id)
        # The name of the file the campaign hands out serves its bytes.
        if name == campaign.sink_path.name:
            path = campaign.sink_path
            body = path.read_bytes() if path.exists() else b""
            content_type = (
                "application/x-ndjson" if name == RAW_SINK_ARTIFACT else "application/octet-stream"
            )
            return self._send_bytes(200, body, content_type)
        fmt = params.get("format", ["json"])[-1]
        campaign.store.refresh()
        body = campaign.store.artifact(name, fmt)
        content_type = "text/plain; charset=utf-8" if fmt == "text" else JSON_CONTENT_TYPE
        self._send_bytes(200, body, content_type)

    # -- server-sent events --------------------------------------------------------
    def _get_events(self, campaign_id: str, params: dict[str, list[str]]) -> None:
        """Stream ``progress`` / ``metrics`` / ``alert`` / ``fault`` / ``state`` events.

        Each poll round probes the sink with ``size()``; when new bytes have
        been flushed, the newly-completed records are folded into the
        campaign's store (O(Δ) index upkeep, the ``analyze --watch``
        machinery) and one ``progress`` event — plus one ``metrics`` snapshot
        per requested artifact set — is emitted.  The campaign's regression
        alert log (``alerts.jsonl``, written by daemon ticks) is tailed the
        same way: every record streams exactly once per connection as an
        ``alert`` event, existing records first.  The engine's supervision
        event log (``faults.jsonl``: shard retries, pool rebuilds,
        quarantines) streams identically as ``fault`` events.  When a poll round has
        nothing to say for ``?keepalive=`` seconds, a ``: keepalive`` SSE
        comment line is written so idle streams survive proxies and client
        read timeouts.  The stream always ends with a final ``metrics``
        snapshot over the finished dataset and one ``state`` event, then
        closes.
        """
        manager = self.server.manager
        campaign = manager.get(campaign_id)
        artifact_names = params.get("artifact", [])
        for name in artifact_names:
            metric = get_metric(name)  # raises UnknownMetricError -> 404
            if not set(metric.requires) <= {"dataset"}:
                raise MetricContextError(name, tuple(set(metric.requires) - {"dataset"}))
        try:
            interval = float(params.get("interval", [str(DEFAULT_EVENT_INTERVAL)])[-1])
        except ValueError:
            raise ServiceError("query parameter 'interval' must be a number") from None
        interval = min(max(interval, 0.02), 30.0)
        try:
            timeout = float(params.get("timeout", [str(MAX_EVENT_SECONDS)])[-1])
        except ValueError:
            raise ServiceError("query parameter 'timeout' must be a number") from None
        timeout = min(max(timeout, interval), MAX_EVENT_SECONDS)
        try:
            keepalive = float(
                params.get("keepalive", [str(DEFAULT_KEEPALIVE_INTERVAL)])[-1]
            )
        except ValueError:
            raise ServiceError("query parameter 'keepalive' must be a number") from None
        keepalive = min(max(keepalive, 0.02), MAX_EVENT_SECONDS)

        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        deadline = time.monotonic() + timeout
        store = campaign.store
        # The alert log and the engine's supervision event log (retries, pool
        # rebuilds, quarantines) each stream their whole lines once.
        logs = {"alert": campaign.files.alerts, "fault": campaign.files.faults}
        offsets = dict.fromkeys(logs, 0)

        def drain_logs() -> bool:
            drained = False
            for event, path in logs.items():
                records, offsets[event] = tail_jsonl(path, offsets[event])
                for record in records:
                    self._emit(event, {"campaign": campaign.id, **record})
                drained = drained or bool(records)
            return drained

        try:
            self._emit("progress", self._progress_payload(campaign, fresh=0))
            last_emit = time.monotonic()
            while True:
                emitted = drain_logs()
                fresh = store.refresh()
                finished = campaign.terminal and store.drained()
                if fresh:
                    emitted = True
                    self._emit("progress", self._progress_payload(campaign, fresh=fresh))
                    if artifact_names and not finished:
                        self._emit("metrics", self._metrics_payload(campaign, artifact_names, final=False))
                if finished:
                    # A tick appends its last alerts just before the campaign
                    # flips terminal; drain anything that landed since the
                    # check above so no alert or fault event is lost to the
                    # close.
                    drain_logs()
                    if artifact_names:
                        self._emit("metrics", self._metrics_payload(campaign, artifact_names, final=True))
                    self._emit("state", campaign.to_dict(refresh=False))
                    return
                if time.monotonic() > deadline:
                    self._emit("timeout", {"campaign": campaign.id, "state": campaign.state})
                    return
                now = time.monotonic()
                if emitted:
                    last_emit = now
                elif now - last_emit >= keepalive:
                    # An SSE comment line: ignored by every spec-compliant
                    # client, but keeps the connection visibly alive.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    last_emit = now
                time.sleep(interval)
        except (BrokenPipeError, ConnectionResetError):
            return

    def _progress_payload(self, campaign, *, fresh: int) -> dict[str, Any]:
        return {
            "campaign": campaign.id,
            "state": campaign.state,
            "detections": campaign.store.count,
            "new": fresh,
            "sink_bytes": campaign.store.storage.size(),
        }

    def _metrics_payload(self, campaign, names: list[str], *, final: bool) -> dict[str, Any]:
        try:
            snapshot = campaign.store.snapshot(names)
        except ReproError as exc:
            return {"campaign": campaign.id, "final": final, "error": str(exc)}
        return {
            "campaign": campaign.id,
            "final": final,
            "detections": campaign.store.count,
            "artifacts": snapshot,
        }

    def _emit(self, event: str, payload: Any) -> None:
        data = json.dumps(payload, sort_keys=False)
        self.wfile.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
        self.wfile.flush()


@contextmanager
def running_server(
    data_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_parallel: int = 1,
    verbose: bool = False,
    grace: float = 30.0,
) -> Iterator[ReproServiceServer]:
    """Run a service on a background thread (tests, benchmarks, examples).

    Yields the listening server (``server.base_url`` is ready to hit); on
    exit the manager checkpoints and joins in-flight campaigns before the
    sockets close.
    """
    server = ReproServiceServer(
        (host, port), data_dir=data_dir, max_parallel=max_parallel, verbose=verbose
    )
    thread = threading.Thread(target=server.serve_forever, name="repro-service", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        server.close(grace=grace)
