"""On-disk persistence of crawl datasets.

Detections are stored as JSON Lines (one :class:`SiteDetection` per line),
which keeps the files diff-able in code review and loadable without any
third-party dependency.  JSON Lines is the canonical byte form, written only
whole: a campaign streams, checkpoints, resumes and is tailed through its
``.hbc`` working store (:mod:`repro.crawler.colstore`), and
:func:`~repro.crawler.colstore.export` writes the JSONL file from it.

:class:`DetectionSink` batches detections in memory and, every
``flush_every`` records, on :meth:`DetectionSink.flush` and on close,
serialises them through :func:`detection_to_json_line`; the bytes are
identical for every flush interval.  The buffering, retry and close
contract lives in :class:`_BufferedSink`, which the columnar sink
(:mod:`repro.crawler.colstore`) extends too.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import TracebackType
from typing import IO, Iterable, Iterator

from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.errors import StorageError
from repro.models import HBFacet

__all__ = [
    "STORE_FORMATS",
    "CrawlStorage",
    "DetectionSink",
    "detection_to_dict",
    "detection_from_dict",
    "detection_to_json_line",
]

#: Detection store backends: "jsonl" is the human-greppable reference format,
#: "columnar" (repro.crawler.colstore) the typed binary fast path.
STORE_FORMATS = ("jsonl", "columnar")


def detection_to_dict(detection: SiteDetection) -> dict:
    """Serialise one detection to plain JSON-compatible data.

    This runs once per page visit on the streaming path, so it is written as
    a single dict display with pre-bound locals — no helper calls, no
    conditional re-evaluation — rather than the more obvious nested
    comprehension over attribute chains.
    """
    facet = detection.facet
    auctions_out = []
    for auction in detection.auctions:
        bids_out = []
        for bid in auction.bids:
            bids_out.append(
                {
                    "partner": bid.partner,
                    "bidder_code": bid.bidder_code,
                    "slot_code": bid.slot_code,
                    "cpm": bid.cpm,
                    "size": bid.size,
                    "latency_ms": bid.latency_ms,
                    "late": bid.late,
                    "won": bid.won,
                    "source": bid.source,
                }
            )
        auctions_out.append(
            {
                "slot_code": auction.slot_code,
                "size": auction.size,
                "start_ms": auction.start_ms,
                "end_ms": auction.end_ms,
                "facet": auction.facet.value,
                "bids": bids_out,
            }
        )
    return {
        "domain": detection.domain,
        "rank": detection.rank,
        "hb_detected": detection.hb_detected,
        "facet": facet.value if facet is not None else None,
        "library": detection.library,
        "partners": list(detection.partners),
        "partner_latencies_ms": dict(detection.partner_latencies_ms),
        "total_latency_ms": detection.total_latency_ms,
        "detection_channels": list(detection.detection_channels),
        "crawl_day": detection.crawl_day,
        "page_load_ms": detection.page_load_ms,
        "auctions": auctions_out,
    }


def detection_to_json_line(detection: SiteDetection) -> str:
    """One detection as its canonical JSON-Lines line (newline included)."""
    return json.dumps(detection_to_dict(detection)) + "\n"


def detection_from_dict(data: dict) -> SiteDetection:
    """Rebuild a detection from its JSON form."""
    try:
        auctions = tuple(
            ObservedAuction(
                slot_code=auction["slot_code"],
                size=auction.get("size"),
                start_ms=float(auction["start_ms"]),
                end_ms=float(auction["end_ms"]),
                facet=HBFacet(auction["facet"]),
                bids=tuple(
                    ObservedBid(
                        partner=bid["partner"],
                        bidder_code=bid["bidder_code"],
                        slot_code=bid["slot_code"],
                        cpm=bid.get("cpm"),
                        size=bid.get("size"),
                        latency_ms=bid.get("latency_ms"),
                        late=bool(bid.get("late", False)),
                        won=bool(bid.get("won", False)),
                        source=bid.get("source", "client"),
                    )
                    for bid in auction.get("bids", [])
                ),
            )
            for auction in data.get("auctions", [])
        )
        return SiteDetection(
            domain=data["domain"],
            rank=int(data["rank"]),
            hb_detected=bool(data["hb_detected"]),
            facet=HBFacet(data["facet"]) if data.get("facet") else None,
            library=data.get("library"),
            partners=tuple(data.get("partners", [])),
            auctions=auctions,
            partner_latencies_ms=dict(data.get("partner_latencies_ms", {})),
            total_latency_ms=data.get("total_latency_ms"),
            detection_channels=tuple(data.get("detection_channels", [])),
            crawl_day=int(data.get("crawl_day", 0)),
            page_load_ms=data.get("page_load_ms"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise StorageError(f"malformed detection record: {exc}") from exc


class _BufferedSink:
    """The contract every detection sink keeps, whatever it encodes.

    Records are buffered as :class:`SiteDetection` objects and hit the file
    every ``flush_every`` records, on :meth:`flush` (the engine flushes at
    shard boundaries) and on :meth:`close`.  A write whose automatic flush
    fails leaves the sink as it was before the call, so a retried write
    lands the record exactly once.  :meth:`close` is idempotent and
    ``__exit__`` never masks the body's exception.  Subclasses add only
    ``_open`` (the file handle) and ``_write_records`` (encode one flush and
    write it, raising :class:`StorageError`).
    """

    #: Default number of records buffered between file writes.
    DEFAULT_FLUSH_EVERY = 64

    def __init__(self, path: str | Path, *, flush_every: int = DEFAULT_FLUSH_EVERY) -> None:
        if flush_every < 1:
            raise StorageError(f"flush_every must be a positive integer, got {flush_every}")
        self.path = Path(path)
        self.flush_every = flush_every
        self.count = 0
        #: Lifetime number of buffer-to-file flushes (for benchmarks).
        self.flushes = 0
        self._buffer: list[SiteDetection] = []
        self._handle: IO[bytes] | None = None
        self._closed = False

    def _open(self) -> IO[bytes]:
        raise NotImplementedError

    def _write_records(self, handle: IO[bytes], records: list[SiteDetection]) -> None:
        raise NotImplementedError

    def _ensure_open(self) -> IO[bytes]:
        if self._closed:
            # Reopening a fresh-mode sink would silently truncate everything
            # written before close(); refuse instead.
            raise StorageError(f"detection sink for {self.path} is closed")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._handle = self._open()
            except OSError as exc:
                raise StorageError(f"could not open detection sink {self.path}: {exc}") from exc
        return self._handle

    def write(self, detection: SiteDetection) -> None:
        """Buffer one detection (hits the file every ``flush_every`` records)."""
        if self._closed:
            raise StorageError(f"detection sink for {self.path} is closed")
        self._buffer.append(detection)
        self.count += 1
        if len(self._buffer) >= self.flush_every:
            try:
                self.flush()
            except StorageError:
                # Leave the sink as it was before this call.
                self._buffer.pop()
                self.count -= 1
                raise

    def write_many(self, detections: Iterable[SiteDetection]) -> int:
        """Buffer many detections; returns how many were written."""
        before = self.count
        for detection in detections:
            self.write(detection)
        return self.count - before

    def flush(self) -> None:
        """Encode and write the buffered records, then flush the OS buffer.

        On failure the buffer is kept, so a retried flush writes the same
        bytes.
        """
        if not self._buffer:
            return
        self._write_records(self._ensure_open(), self._buffer)
        self._buffer.clear()
        self.flushes += 1

    def close(self) -> None:
        """Flush the buffered tail and close the file.

        Idempotent: every call after the first is a no-op, including when the
        first call's flush failed mid-write — the sink still ends closed with
        the OS handle released, so cleanup paths (``finally`` blocks, context
        managers) can call it unconditionally after a mid-shard error.
        """
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        self._ensure_open()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        try:
            self.close()
        except StorageError:
            # If the body already failed, a secondary flush failure while
            # closing must not mask the original exception (the root cause);
            # a clean body still surfaces the close failure.
            if exc_type is None:
                raise


class DetectionSink(_BufferedSink):
    """Buffered writer of one whole JSON-Lines file.

    Writing detections one at a time produces byte-identical files to a
    single :meth:`CrawlStorage.save` call over the same sequence.  Records
    are encoded at flush time.  Use as a context manager (or call
    :meth:`close`), e.g.::

        with CrawlStorage("crawl.jsonl").open_sink() as sink:
            sink.write_many(detections)
    """

    format = "jsonl"
    #: A JSONL file is always written from its first byte.
    append = False
    #: Bytes flushed to the file so far.
    offset = 0

    def _open(self) -> IO[bytes]:
        return self.path.open("wb")

    def _write_records(self, handle: IO[bytes], records: list[SiteDetection]) -> None:
        payload = "".join([detection_to_json_line(detection) for detection in records]).encode("utf-8")
        try:
            handle.write(payload)
            handle.flush()
        except OSError as exc:
            raise StorageError(f"could not write {self.path}: {exc}") from exc
        self.offset += len(payload)


class CrawlStorage:
    """Writes and reads whole JSON-Lines crawl datasets."""

    format = "jsonl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def open_sink(self, *, flush_every: int = DetectionSink.DEFAULT_FLUSH_EVERY) -> DetectionSink:
        """Open a sink that writes this file from scratch, every ``flush_every`` records."""
        return DetectionSink(self.path, flush_every=flush_every)

    def save(self, detections: Iterable[SiteDetection]) -> int:
        """Write detections to the file, replacing previous content.

        Flushes at the default interval: the bytes are the same for any, and
        a small buffer keeps the memory of a large export flat.
        """
        with self.open_sink() as sink:
            return sink.write_many(detections)

    def load(self) -> list[SiteDetection]:
        """Load every detection stored in the file."""
        return list(self.iter_load())

    def iter_load(self) -> Iterator[SiteDetection]:
        """Stream detections from the file one at a time."""
        if not self.path.exists():
            raise StorageError(f"crawl dataset not found: {self.path}")
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise StorageError(
                            f"invalid JSON on line {line_number} of {self.path}: {exc}"
                        ) from exc
                    yield detection_from_dict(data)
        except OSError as exc:
            raise StorageError(f"could not read {self.path}: {exc}") from exc
