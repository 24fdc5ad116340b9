"""Typed binary columnar detection store.

JSONL (:mod:`repro.crawler.storage`) stays the reference format: it is
human-greppable and byte-stable.  At the million-site north star, though,
``json.dumps`` on every detection and an O(file) text re-parse on every
``analyze`` dominate wall-clock.  This module adds a second backend behind
the exact same seams — ``ColumnarDetectionSink`` mirrors ``DetectionSink``,
``ColumnarStorage`` mirrors ``CrawlStorage``, and ``ColumnarDataset`` *is* a
``CrawlDataset`` — that stores detections as typed numpy columns:

* fixed-width numeric columns (``<i8`` ranks, ``<f8`` latencies, presence
  bytes for nullable fields — no NaN sentinels, so floats round-trip to the
  reference JSONL bit-exactly);
* dictionary-encoded strings (domains, partners, bidder codes, slot codes,
  sizes, channels) with file-global ids carried as per-chunk deltas in
  first-occurrence order, which keeps encoding deterministic and resumed
  files byte-identical;
* offset-indexed variable-length lists (partners, latencies, channels,
  auctions, bids) as chunk-local cumulative end counters.

The file is a sequence of self-describing chunks — one per sink flush, and
the engine flushes at every shard boundary, so chunk boundaries land exactly
on the offsets the checkpointer records — followed by an optional footer
index written on close.  ``ColumnarTable`` mmaps the file and serves whole
columns as zero-copy numpy views; ``ColumnarDataset`` computes ``summary()``
(and therefore ``table1``) vectorised over those views without materialising
a single ``SiteDetection``, so cold-open on a saved campaign is milliseconds.

Layout (all integers little-endian, every region padded to 8 bytes)::

    file    := magic(8) chunk* footer?
    chunk   := "HBCK" counts(22 x u64) pad(4) dict-deltas columns
    footer  := "HBFO" n_chunks(u4) entry(offset u64 + counts)*
               footer_start(u64) "HBCOLEND"

A torn write can only truncate the tail, so readers see a valid prefix of
complete chunks; ``recover_to`` truncates to a chunk boundary exactly like
the JSONL tail recovery, and re-closing after an append rewrites a footer
identical to the one a clean run would have produced.
"""

from __future__ import annotations

import mmap
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.analysis.dataset import CrawlDataset
from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.errors import EmptyDatasetError, StorageError
from repro.models import HBFacet
from repro.crawler.storage import STORE_FORMATS, CrawlStorage, DetectionSink

__all__ = [
    "COLUMNAR_MAGIC",
    "ColumnarDataset",
    "ColumnarDetectionSink",
    "ColumnarStorage",
    "ColumnarTable",
    "sniff_format",
    "storage_for",
]

COLUMNAR_MAGIC = b"HBCOL1\r\n"
_MAGIC_LEN = len(COLUMNAR_MAGIC)
_CHUNK_MAGIC = b"HBCK"
_FOOTER_MAGIC = b"HBFO"
_TRAILER_MAGIC = b"HBCOLEND"

# Chunk header: magic + 22 u64 counts, padded to a multiple of 8.
_CHUNK_HEADER = struct.Struct("<4s22Q")
_CHUNK_HEADER_SIZE = (_CHUNK_HEADER.size + 7) & ~7
_CHUNK_HEADER_PAD = b"\x00" * (_CHUNK_HEADER_SIZE - _CHUNK_HEADER.size)
_FOOTER_HEAD = struct.Struct("<4sI")
_FOOTER_ENTRY = struct.Struct("<23Q")
_TRAILER = struct.Struct("<Q8s")

#: File-global string dictionaries, in the order their deltas appear in a chunk.
DICT_NAMES = ("domain", "library", "partner", "bidder", "slot", "size", "channel", "source")
_N_DICTS = len(DICT_NAMES)

# counts tuple: (n detections, n auctions, n bids, n partner entries,
# n latency entries, n channel entries, then (n_new, blob_len) per dict).
_COUNT_INDEX = {"n": 0, "na": 1, "nb": 2, "np": 3, "nl": 4, "nc": 5}

#: (column name, dtype, count key) — payload order after the dict deltas.
COLUMNS = (
    ("d_domain", "<u4", "n"),
    ("d_rank", "<i8", "n"),
    ("d_hb", "u1", "n"),
    ("d_facet", "i1", "n"),
    ("d_library", "<i4", "n"),
    ("d_total_latency", "<f8", "n"),
    ("d_has_total_latency", "u1", "n"),
    ("d_crawl_day", "<i8", "n"),
    ("d_page_load", "<f8", "n"),
    ("d_has_page_load", "u1", "n"),
    ("d_partners_end", "<u4", "n"),
    ("d_latencies_end", "<u4", "n"),
    ("d_channels_end", "<u4", "n"),
    ("d_auctions_end", "<u4", "n"),
    ("p_partner", "<u4", "np"),
    ("l_partner", "<u4", "nl"),
    ("l_latency", "<f8", "nl"),
    ("c_channel", "<u4", "nc"),
    ("a_slot", "<u4", "na"),
    ("a_size", "<i4", "na"),
    ("a_start", "<f8", "na"),
    ("a_end", "<f8", "na"),
    ("a_facet", "i1", "na"),
    ("a_bids_end", "<u4", "na"),
    ("b_partner", "<u4", "nb"),
    ("b_bidder", "<u4", "nb"),
    ("b_slot", "<u4", "nb"),
    ("b_cpm", "<f8", "nb"),
    ("b_has_cpm", "u1", "nb"),
    ("b_size", "<i4", "nb"),
    ("b_latency", "<f8", "nb"),
    ("b_has_latency", "u1", "nb"),
    ("b_late", "u1", "nb"),
    ("b_won", "u1", "nb"),
    ("b_source", "<u4", "nb"),
)
_ITEMSIZE = {name: np.dtype(dtype).itemsize for name, dtype, _ in COLUMNS}
_DTYPE = {name: dtype for name, dtype, _ in COLUMNS}

# End-counter columns and the count key of the flat array they index into.
_END_TARGET = {
    "d_partners_end": "np",
    "d_latencies_end": "nl",
    "d_channels_end": "nc",
    "d_auctions_end": "na",
    "a_bids_end": "nb",
}

_FACETS = tuple(HBFacet)
_FACET_INDEX = {facet: code for code, facet in enumerate(_FACETS)}

#: Suffixes that select the columnar format for files that don't exist yet.
COLUMNAR_SUFFIXES = frozenset({".hbc", ".columnar"})


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def _layout(counts: tuple[int, ...]) -> tuple[dict[str, tuple[int, int]], int]:
    """Byte layout of a chunk payload for the given counts.

    Returns ``({region: (offset, count)}, payload_size)`` — dict blob regions
    report a byte length instead of an element count.
    """
    entries: dict[str, tuple[int, int]] = {}
    pos = 0
    for i, dname in enumerate(DICT_NAMES):
        n_new = counts[6 + 2 * i]
        blob_len = counts[7 + 2 * i]
        entries[dname + ".offsets"] = (pos, n_new)
        pos += _pad8(4 * n_new)
        entries[dname + ".blob"] = (pos, blob_len)
        pos += _pad8(blob_len)
    for name, _dtype, key in COLUMNS:
        count = counts[_COUNT_INDEX[key]]
        entries[name] = (pos, count)
        pos += _pad8(count * _ITEMSIZE[name])
    return entries, pos


def _payload_size(counts: tuple[int, ...]) -> int:
    return _layout(counts)[1]


def _unpack_header(header: bytes) -> tuple[int, ...]:
    magic, *counts = _CHUNK_HEADER.unpack(header[: _CHUNK_HEADER.size])
    if magic != _CHUNK_MAGIC:
        raise StorageError("bad chunk magic")
    return tuple(counts)


def _encode_chunk(
    records: list[SiteDetection], dicts: list[dict[str, int]]
) -> tuple[bytes, tuple[int, ...], list[list[str]]]:
    """Encode one flush's worth of detections as a complete chunk.

    ``dicts`` are the file-global string tables; new strings are appended to
    them (in first-occurrence order) and also returned so a failed write can
    roll them back.
    """
    domain_d, library_d, partner_d, bidder_d, slot_d, size_d, channel_d, source_d = dicts
    added: list[list[str]] = [[] for _ in range(_N_DICTS)]

    def intern(table: dict[str, int], news: list[str], key: str) -> int:
        idx = table.get(key)
        if idx is None:
            idx = len(table)
            table[key] = idx
            news.append(key)
        return idx

    data: dict[str, list] = {name: [] for name, _, _ in COLUMNS}
    d = data  # local alias for the hot loop
    for det in records:
        d["d_domain"].append(intern(domain_d, added[0], det.domain))
        d["d_rank"].append(det.rank)
        d["d_hb"].append(1 if det.hb_detected else 0)
        facet = det.facet
        d["d_facet"].append(_FACET_INDEX[facet] if facet is not None else -1)
        library = det.library
        d["d_library"].append(intern(library_d, added[1], library) if library is not None else -1)
        total = det.total_latency_ms
        d["d_total_latency"].append(0.0 if total is None else total)
        d["d_has_total_latency"].append(0 if total is None else 1)
        d["d_crawl_day"].append(det.crawl_day)
        page_load = det.page_load_ms
        d["d_page_load"].append(0.0 if page_load is None else page_load)
        d["d_has_page_load"].append(0 if page_load is None else 1)
        for partner in det.partners:
            d["p_partner"].append(intern(partner_d, added[2], partner))
        d["d_partners_end"].append(len(d["p_partner"]))
        for partner, latency in det.partner_latencies_ms.items():
            d["l_partner"].append(intern(partner_d, added[2], partner))
            d["l_latency"].append(latency)
        d["d_latencies_end"].append(len(d["l_partner"]))
        for channel in det.detection_channels:
            d["c_channel"].append(intern(channel_d, added[6], channel))
        d["d_channels_end"].append(len(d["c_channel"]))
        for auction in det.auctions:
            d["a_slot"].append(intern(slot_d, added[4], auction.slot_code))
            size = auction.size
            d["a_size"].append(intern(size_d, added[5], size) if size is not None else -1)
            d["a_start"].append(auction.start_ms)
            d["a_end"].append(auction.end_ms)
            d["a_facet"].append(_FACET_INDEX[auction.facet])
            for bid in auction.bids:
                d["b_partner"].append(intern(partner_d, added[2], bid.partner))
                d["b_bidder"].append(intern(bidder_d, added[3], bid.bidder_code))
                d["b_slot"].append(intern(slot_d, added[4], bid.slot_code))
                cpm = bid.cpm
                d["b_cpm"].append(0.0 if cpm is None else cpm)
                d["b_has_cpm"].append(0 if cpm is None else 1)
                size = bid.size
                d["b_size"].append(intern(size_d, added[5], size) if size is not None else -1)
                latency = bid.latency_ms
                d["b_latency"].append(0.0 if latency is None else latency)
                d["b_has_latency"].append(0 if latency is None else 1)
                d["b_late"].append(1 if bid.late else 0)
                d["b_won"].append(1 if bid.won else 0)
                d["b_source"].append(intern(source_d, added[7], bid.source))
            d["a_bids_end"].append(len(d["b_partner"]))
        d["d_auctions_end"].append(len(d["a_slot"]))

    dict_regions: list[tuple[list[int], bytes]] = []
    dict_counts: list[int] = []
    for news in added:
        encoded = [s.encode("utf-8") for s in news]
        ends: list[int] = []
        total_len = 0
        for blob in encoded:
            total_len += len(blob)
            ends.append(total_len)
        joined = b"".join(encoded)
        dict_regions.append((ends, joined))
        dict_counts.extend((len(news), len(joined)))

    counts = (
        len(records),
        len(d["a_slot"]),
        len(d["b_partner"]),
        len(d["p_partner"]),
        len(d["l_partner"]),
        len(d["c_channel"]),
        *dict_counts,
    )
    layout, size = _layout(counts)
    payload = bytearray(size)
    for dname, (ends, joined) in zip(DICT_NAMES, dict_regions):
        if ends:
            off, count = layout[dname + ".offsets"]
            payload[off : off + 4 * count] = np.asarray(ends, dtype="<u4").tobytes()
            off, blob_len = layout[dname + ".blob"]
            payload[off : off + blob_len] = joined
    for name, dtype, _key in COLUMNS:
        off, count = layout[name]
        if count:
            payload[off : off + count * _ITEMSIZE[name]] = np.asarray(data[name], dtype=dtype).tobytes()

    header = _CHUNK_HEADER.pack(_CHUNK_MAGIC, *counts) + _CHUNK_HEADER_PAD
    return header + bytes(payload), counts, added


def _chunk_columns(payload, counts: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Numpy views over every column of one chunk payload (bytes or mmap slice)."""
    layout, _ = _layout(counts)
    cols: dict[str, np.ndarray] = {}
    for name, dtype, key in COLUMNS:
        off, count = layout[name]
        cols[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=off)
    return cols


def _apply_dict_deltas(payload, counts: tuple[int, ...], names: list[list[str]]) -> None:
    """Append this chunk's new dictionary strings to the global name tables."""
    layout, _ = _layout(counts)
    for i, dname in enumerate(DICT_NAMES):
        n_new = counts[6 + 2 * i]
        if not n_new:
            continue
        off, count = layout[dname + ".offsets"]
        ends = np.frombuffer(payload, dtype="<u4", count=count, offset=off)
        off, blob_len = layout[dname + ".blob"]
        blob = bytes(memoryview(payload)[off : off + blob_len])
        bucket = names[i]
        start = 0
        for end in ends.tolist():
            bucket.append(blob[start:end].decode("utf-8"))
            start = end
    return None


def _materialize_chunk(
    cols: dict[str, np.ndarray], counts: tuple[int, ...], names: list[list[str]]
) -> list[SiteDetection]:
    """Rebuild exact ``SiteDetection`` records from one chunk's columns."""
    domain_n, library_n, partner_n, bidder_n, slot_n, size_n, channel_n, source_n = names
    # .tolist() converts numpy scalars to exact Python natives in one pass.
    c = {name: cols[name].tolist() for name, _, _ in COLUMNS}
    out: list[SiteDetection] = []
    p_start = l_start = ch_start = a_start = b_start = 0
    for i in range(counts[0]):
        p_end = c["d_partners_end"][i]
        partners = tuple(partner_n[pid] for pid in c["p_partner"][p_start:p_end])
        p_start = p_end
        l_end = c["d_latencies_end"][i]
        latencies = {
            partner_n[pid]: latency
            for pid, latency in zip(c["l_partner"][l_start:l_end], c["l_latency"][l_start:l_end])
        }
        l_start = l_end
        ch_end = c["d_channels_end"][i]
        channels = tuple(channel_n[cid] for cid in c["c_channel"][ch_start:ch_end])
        ch_start = ch_end
        a_end = c["d_auctions_end"][i]
        auctions = []
        for j in range(a_start, a_end):
            b_end = c["a_bids_end"][j]
            bids = []
            for k in range(b_start, b_end):
                bids.append(
                    ObservedBid(
                        partner=partner_n[c["b_partner"][k]],
                        bidder_code=bidder_n[c["b_bidder"][k]],
                        slot_code=slot_n[c["b_slot"][k]],
                        cpm=c["b_cpm"][k] if c["b_has_cpm"][k] else None,
                        size=size_n[c["b_size"][k]] if c["b_size"][k] >= 0 else None,
                        latency_ms=c["b_latency"][k] if c["b_has_latency"][k] else None,
                        late=bool(c["b_late"][k]),
                        won=bool(c["b_won"][k]),
                        source=source_n[c["b_source"][k]],
                    )
                )
            b_start = b_end
            auctions.append(
                ObservedAuction(
                    slot_code=slot_n[c["a_slot"][j]],
                    size=size_n[c["a_size"][j]] if c["a_size"][j] >= 0 else None,
                    start_ms=c["a_start"][j],
                    end_ms=c["a_end"][j],
                    facet=_FACETS[c["a_facet"][j]],
                    bids=tuple(bids),
                )
            )
        a_start = a_end
        facet_code = c["d_facet"][i]
        out.append(
            SiteDetection(
                domain=domain_n[c["d_domain"][i]],
                rank=c["d_rank"][i],
                hb_detected=bool(c["d_hb"][i]),
                facet=_FACETS[facet_code] if facet_code >= 0 else None,
                library=library_n[c["d_library"][i]] if c["d_library"][i] >= 0 else None,
                partners=partners,
                auctions=tuple(auctions),
                partner_latencies_ms=latencies,
                total_latency_ms=c["d_total_latency"][i] if c["d_has_total_latency"][i] else None,
                detection_channels=channels,
                crawl_day=c["d_crawl_day"][i],
                page_load_ms=c["d_page_load"][i] if c["d_has_page_load"][i] else None,
            )
        )
    return out


def _check_magic(path: Path, head: bytes) -> None:
    if head == COLUMNAR_MAGIC:
        return
    if head.startswith(b"HBCOL"):
        raise StorageError(
            f"{path} uses an unsupported columnar store version "
            f"(magic {head!r}, this build reads {COLUMNAR_MAGIC!r})"
        )
    raise StorageError(f"{path} is not a columnar detection store (magic {head!r})")


class _FileIndex:
    """Result of walking a columnar file's chunk headers."""

    __slots__ = ("chunks", "data_end", "size", "tail", "footer_start")

    def __init__(self, chunks, data_end, size, tail, footer_start):
        self.chunks: list[tuple[int, tuple[int, ...]]] = chunks
        self.data_end = data_end  # end of the last complete chunk (footer excluded)
        self.size = size
        self.tail = tail  # "clean" | "footer" | "partial"
        self.footer_start = footer_start


def _complete_footer_at(handle, size: int, pos: int) -> bool:
    """True if a complete, self-consistent footer occupies [pos, size)."""
    if size - pos < _FOOTER_HEAD.size + _TRAILER.size:
        return False
    handle.seek(size - _TRAILER.size)
    footer_start, magic = _TRAILER.unpack(handle.read(_TRAILER.size))
    if magic != _TRAILER_MAGIC or footer_start != pos:
        return False
    handle.seek(pos)
    fmagic, n_chunks = _FOOTER_HEAD.unpack(handle.read(_FOOTER_HEAD.size))
    if fmagic != _FOOTER_MAGIC:
        return False
    return pos + _FOOTER_HEAD.size + n_chunks * _FOOTER_ENTRY.size + _TRAILER.size == size


def _index_file(path: Path) -> _FileIndex:
    """Walk chunk headers; tolerate a torn tail, reject mid-file garbage."""
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise StorageError(f"could not read {path}: {exc}") from exc
    with handle:
        handle.seek(0, 2)
        size = handle.tell()
        if size == 0:
            return _FileIndex([], 0, 0, "clean", None)
        handle.seek(0)
        head = handle.read(_MAGIC_LEN)
        if len(head) < _MAGIC_LEN:
            return _FileIndex([], 0, size, "partial", None)
        _check_magic(path, head)
        chunks: list[tuple[int, tuple[int, ...]]] = []
        pos = _MAGIC_LEN
        tail = "clean"
        footer_start = None
        while pos < size:
            remaining = size - pos
            handle.seek(pos)
            peek = handle.read(min(4, remaining))
            if peek == _FOOTER_MAGIC:
                if _complete_footer_at(handle, size, pos):
                    tail, footer_start = "footer", pos
                else:
                    tail = "partial"
                break
            if len(peek) < 4 or not _CHUNK_MAGIC.startswith(peek[: len(peek)]):
                if peek[: len(peek)] and not _CHUNK_MAGIC.startswith(peek) and not _FOOTER_MAGIC.startswith(peek):
                    raise StorageError(f"corrupt columnar store {path}: unrecognised bytes at offset {pos}")
                tail = "partial"
                break
            if remaining < _CHUNK_HEADER_SIZE:
                tail = "partial"
                break
            handle.seek(pos)
            counts = _unpack_header(handle.read(_CHUNK_HEADER_SIZE))
            total = _CHUNK_HEADER_SIZE + _payload_size(counts)
            if remaining < total:
                tail = "partial"
                break
            chunks.append((pos, counts))
            pos += total
        data_end = chunks[-1][0] + _CHUNK_HEADER_SIZE + _payload_size(chunks[-1][1]) if chunks else _MAGIC_LEN
        return _FileIndex(chunks, data_end, size, tail, footer_start)


def _load_names(handle, chunks: Iterable[tuple[int, tuple[int, ...]]]) -> list[list[str]]:
    """Rebuild the global string tables by reading only the dict-delta regions."""
    names: list[list[str]] = [[] for _ in range(_N_DICTS)]
    for offset, counts in chunks:
        layout, _ = _layout(counts)
        base = offset + _CHUNK_HEADER_SIZE
        for i, dname in enumerate(DICT_NAMES):
            n_new = counts[6 + 2 * i]
            if not n_new:
                continue
            off, count = layout[dname + ".offsets"]
            handle.seek(base + off)
            ends = np.frombuffer(handle.read(4 * count), dtype="<u4")
            off, blob_len = layout[dname + ".blob"]
            handle.seek(base + off)
            blob = handle.read(blob_len)
            bucket = names[i]
            start = 0
            for end in ends.tolist():
                bucket.append(blob[start:end].decode("utf-8"))
                start = end
    return names


class ColumnarDetectionSink:
    """Buffered columnar sink with the exact ``DetectionSink`` contract.

    Detections are buffered as objects and encoded one chunk per flush;
    ``offset`` reports flushed data bytes (footer excluded), so checkpoint
    offsets recorded against this sink are chunk boundaries by construction.
    ``close()`` appends the footer index; reopening in append mode strips it
    and a later close rewrites an identical one.
    """

    DEFAULT_FLUSH_EVERY = DetectionSink.DEFAULT_FLUSH_EVERY

    def __init__(self, path: str | Path, *, append: bool = False, flush_every: int = DEFAULT_FLUSH_EVERY) -> None:
        if flush_every < 1:
            raise StorageError(f"flush_every must be a positive integer, got {flush_every}")
        self.path = Path(path)
        self.append = append
        self.flush_every = flush_every
        self.count = 0
        self.flushes = 0
        self._buffer: list[SiteDetection] = []
        self._handle = None
        self._closed = False
        self._offset: int | None = None
        self._dicts: list[dict[str, int]] | None = None
        self._chunks: list[tuple[int, tuple[int, ...]]] | None = None

    @property
    def offset(self) -> int:
        """Bytes of flushed chunk data (header included, footer excluded)."""
        self._prepare()
        return self._offset  # type: ignore[return-value]

    def _prepare(self) -> None:
        if self._dicts is not None:
            return
        if self.append and self.path.exists() and self.path.stat().st_size > 0:
            index = _index_file(self.path)
            if index.tail == "partial":
                raise StorageError(
                    f"cannot append to {self.path}: the file ends in a torn write; "
                    f"recover it to a checkpointed offset first"
                )
            with self.path.open("rb") as handle:
                names = _load_names(handle, index.chunks)
            self._dicts = [{name: idx for idx, name in enumerate(bucket)} for bucket in names]
            self._chunks = list(index.chunks)
            self._offset = index.data_end
        else:
            self._dicts = [{} for _ in range(_N_DICTS)]
            self._chunks = []
            self._offset = 0

    def _ensure_open(self):
        if self._closed:
            raise StorageError(f"detection sink for {self.path} is closed")
        if self._handle is None:
            self._prepare()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                if self.append and self.path.exists():
                    handle = self.path.open("r+b")
                    handle.truncate(self._offset)  # strip any footer / torn-free tail
                    handle.seek(self._offset)  # type: ignore[arg-type]
                else:
                    handle = self.path.open("wb")
            except OSError as exc:
                raise StorageError(f"could not open detection sink {self.path}: {exc}") from exc
            self._handle = handle
        return self._handle

    def write(self, detection: SiteDetection) -> None:
        if self._closed:
            raise StorageError(f"detection sink for {self.path} is closed")
        self._buffer.append(detection)
        self.count += 1
        if len(self._buffer) >= self.flush_every:
            try:
                self.flush()
            except StorageError:
                # Leave the sink as it was before this call, so a retried
                # write lands the record exactly once.
                self._buffer.pop()
                self.count -= 1
                raise

    def write_many(self, detections: Iterable[SiteDetection]) -> int:
        before = self.count
        for detection in detections:
            self.write(detection)
        return self.count - before

    def flush(self) -> None:
        if not self._buffer:
            return
        handle = self._ensure_open()
        chunk, counts, added = _encode_chunk(self._buffer, self._dicts)  # type: ignore[arg-type]
        base = self._offset  # type: ignore[assignment]
        prefix = COLUMNAR_MAGIC if base == 0 else b""
        try:
            handle.write(prefix + chunk)
            handle.flush()
        except OSError as exc:
            # Keep the buffer and un-intern this chunk's new strings so a
            # retried flush re-encodes an identical chunk.
            for table, news in zip(self._dicts, added):  # type: ignore[arg-type]
                for name in news:
                    del table[name]
            raise StorageError(f"could not write detections to {self.path}: {exc}") from exc
        self._chunks.append((base + len(prefix), counts))  # type: ignore[union-attr]
        self._offset = base + len(prefix) + len(chunk)
        self._buffer.clear()
        self.flushes += 1

    def _write_footer(self) -> None:
        handle = self._handle
        base = self._offset or 0
        prefix = COLUMNAR_MAGIC if base == 0 else b""
        footer_start = base + len(prefix)
        chunks = self._chunks or []
        blob = (
            prefix
            + _FOOTER_HEAD.pack(_FOOTER_MAGIC, len(chunks))
            + b"".join(_FOOTER_ENTRY.pack(offset, *counts) for offset, counts in chunks)
            + _TRAILER.pack(footer_start, _TRAILER_MAGIC)
        )
        try:
            handle.write(blob)
            handle.flush()
        except OSError as exc:
            raise StorageError(f"could not finalise detection sink {self.path}: {exc}") from exc

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.flush()
            if self._handle is not None:
                self._write_footer()
        finally:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> ColumnarDetectionSink:
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.close()
        except StorageError:
            if exc_type is None:
                raise
        return False


class ColumnarStorage:
    """``CrawlStorage`` API over the columnar file format."""

    format = "columnar"
    #: Chunk size used by bulk ``save``/``append`` — few large chunks, so a
    #: converted file mmaps into near-contiguous columns.
    SAVE_CHUNK_RECORDS = 8192

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # Tailing state for read_new: dictionary contents up to _tail_offset.
        self._tail_offset = 0
        self._tail_names: list[list[str]] = [[] for _ in range(_N_DICTS)]

    def open_sink(
        self, *, append: bool = False, flush_every: int = ColumnarDetectionSink.DEFAULT_FLUSH_EVERY
    ) -> ColumnarDetectionSink:
        return ColumnarDetectionSink(self.path, append=append, flush_every=flush_every)

    def save(self, detections: Iterable[SiteDetection]) -> int:
        self._tail_offset = 0
        self._tail_names = [[] for _ in range(_N_DICTS)]
        with self.open_sink(append=False, flush_every=self.SAVE_CHUNK_RECORDS) as sink:
            written = sink.write_many(detections)
        return written

    def append(self, detections: Iterable[SiteDetection]) -> int:
        with self.open_sink(append=True, flush_every=self.SAVE_CHUNK_RECORDS) as sink:
            written = sink.write_many(detections)
        return written

    def load(self) -> list[SiteDetection]:
        return list(self.iter_load())

    def iter_load(self) -> Iterator[SiteDetection]:
        if not self.path.exists():
            raise StorageError(f"crawl dataset not found: {self.path}")
        index = _index_file(self.path)
        if index.tail == "partial":
            raise StorageError(
                f"truncated columnar store {self.path}: the file ends mid-write; "
                f"recover it to a checkpointed offset first"
            )
        names: list[list[str]] = [[] for _ in range(_N_DICTS)]
        with self.path.open("rb") as handle:
            for offset, counts in index.chunks:
                handle.seek(offset + _CHUNK_HEADER_SIZE)
                payload = handle.read(_payload_size(counts))
                _apply_dict_deltas(payload, counts, names)
                yield from _materialize_chunk(_chunk_columns(payload, counts), counts, names)

    def size(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def read_new(self, offset: int = 0) -> tuple[list[SiteDetection], int]:
        """Detections in complete chunks past ``offset``, plus the new offset.

        A trailing half-written chunk (or half-written footer) is left for the
        next call; a complete footer is consumed by advancing the offset to
        end-of-file so pollers observe the store as drained after close.
        """
        if offset < 0:
            raise StorageError(f"read offset cannot be negative, got {offset}")
        if not self.path.exists():
            return [], offset
        size = self.path.stat().st_size
        if size < offset:
            raise StorageError(
                f"detection store {self.path} shrank below read offset {offset} "
                f"(size is now {size}); it was truncated or replaced mid-read"
            )
        if offset == 0:
            names: list[list[str]] = [[] for _ in range(_N_DICTS)]
            pos = 0
        elif offset == self._tail_offset:
            names = self._tail_names
            pos = offset
        else:
            names = self._names_up_to(offset)
            pos = offset
        detections: list[SiteDetection] = []
        try:
            handle = self.path.open("rb")
        except OSError as exc:
            raise StorageError(f"could not read {self.path}: {exc}") from exc
        with handle:
            if pos == 0:
                if size < _MAGIC_LEN:
                    return [], 0
                head = handle.read(_MAGIC_LEN)
                _check_magic(self.path, head)
                pos = _MAGIC_LEN
            while pos < size:
                remaining = size - pos
                handle.seek(pos)
                peek = handle.read(min(4, remaining))
                if peek == _FOOTER_MAGIC:
                    if _complete_footer_at(handle, size, pos):
                        pos = size
                    break
                if len(peek) < 4:
                    break
                if peek != _CHUNK_MAGIC:
                    raise StorageError(f"corrupt columnar store {self.path}: unrecognised bytes at offset {pos}")
                if remaining < _CHUNK_HEADER_SIZE:
                    break
                handle.seek(pos)
                counts = _unpack_header(handle.read(_CHUNK_HEADER_SIZE))
                payload_size = _payload_size(counts)
                if remaining < _CHUNK_HEADER_SIZE + payload_size:
                    break
                payload = handle.read(payload_size)
                _apply_dict_deltas(payload, counts, names)
                detections.extend(_materialize_chunk(_chunk_columns(payload, counts), counts, names))
                pos += _CHUNK_HEADER_SIZE + payload_size
        self._tail_offset = pos
        self._tail_names = names
        return detections, pos

    def _names_up_to(self, offset: int) -> list[list[str]]:
        """Rebuild dictionary state for a reader joining at ``offset``."""
        index = _index_file(self.path)
        kept = []
        pos = _MAGIC_LEN
        for chunk_offset, counts in index.chunks:
            if chunk_offset + _CHUNK_HEADER_SIZE + _payload_size(counts) > offset:
                break
            kept.append((chunk_offset, counts))
            pos = chunk_offset + _CHUNK_HEADER_SIZE + _payload_size(counts)
        if pos != offset and not (index.tail == "footer" and offset == index.size):
            raise StorageError(
                f"read offset {offset} of {self.path} is not a chunk boundary; "
                f"nearest boundary is {pos}"
            )
        with self.path.open("rb") as handle:
            return _load_names(handle, kept)

    def recover_to(self, offset: int) -> list[SiteDetection]:
        """Validate and truncate the store to a checkpointed chunk boundary.

        Returns the kept detections (mirroring the JSONL contract) and drops
        everything past ``offset`` — post-checkpoint chunks, a torn tail, or
        a footer, all of which the resumed sink will rewrite.
        """
        if offset < 0:
            raise StorageError(f"cannot recover {self.path} to negative offset {offset}")
        if offset == 0:
            if self.path.exists():
                self._truncate(0)
            self._tail_offset = 0
            self._tail_names = [[] for _ in range(_N_DICTS)]
            return []
        if not self.path.exists():
            raise StorageError(
                f"cannot recover {self.path} to offset {offset}: the file does not exist"
            )
        size = self.path.stat().st_size
        if size < offset:
            raise StorageError(
                f"cannot recover {self.path} to offset {offset}: the file holds only {size} bytes"
            )
        if offset < _MAGIC_LEN:
            raise StorageError(
                f"cannot recover {self.path} to offset {offset}: not a chunk boundary"
            )
        detections: list[SiteDetection] = []
        names: list[list[str]] = [[] for _ in range(_N_DICTS)]
        with self.path.open("rb") as handle:
            head = handle.read(_MAGIC_LEN)
            if len(head) < _MAGIC_LEN:
                raise StorageError(f"cannot recover {self.path}: the file is too short to hold its magic")
            _check_magic(self.path, head)
            pos = _MAGIC_LEN
            while pos < offset:
                handle.seek(pos)
                header = handle.read(_CHUNK_HEADER_SIZE)
                if len(header) < _CHUNK_HEADER_SIZE or header[:4] != _CHUNK_MAGIC:
                    raise StorageError(
                        f"cannot recover {self.path} to offset {offset}: corrupt chunk header at {pos}"
                    )
                counts = _unpack_header(header)
                payload_size = _payload_size(counts)
                if pos + _CHUNK_HEADER_SIZE + payload_size > offset:
                    raise StorageError(
                        f"cannot recover {self.path} to offset {offset}: not a chunk boundary "
                        f"(a chunk starting at {pos} crosses it)"
                    )
                payload = handle.read(payload_size)
                if len(payload) < payload_size:
                    raise StorageError(
                        f"cannot recover {self.path} to offset {offset}: chunk at {pos} is truncated"
                    )
                _apply_dict_deltas(payload, counts, names)
                detections.extend(_materialize_chunk(_chunk_columns(payload, counts), counts, names))
                pos += _CHUNK_HEADER_SIZE + payload_size
        if size > offset:
            self._truncate(offset)
        self._tail_offset = offset
        self._tail_names = names
        return detections

    def _truncate(self, offset: int) -> None:
        try:
            with self.path.open("r+b") as handle:
                handle.truncate(offset)
        except OSError as exc:
            raise StorageError(f"could not truncate {self.path} to {offset} bytes: {exc}") from exc


class ColumnarTable:
    """Zero-copy reader: mmaps a columnar file and serves numpy column views.

    Uses the footer index when the file was cleanly closed (O(1) open);
    otherwise walks chunk headers, ignoring a torn tail, so a live or crashed
    file reads as its complete-chunk prefix.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise StorageError(f"crawl dataset not found: {self.path}")
        size = self.path.stat().st_size
        self._chunks: list[tuple[int, tuple[int, ...]]] = []
        self._mm: mmap.mmap | None = None
        self._columns: dict[str, np.ndarray] = {}
        self._ends: dict[str, np.ndarray] = {}
        self._layouts: dict[int, dict[str, tuple[int, int]]] = {}
        self._names: list[list[str]] | None = None
        self.n_records = 0
        if size == 0:
            return
        if size < _MAGIC_LEN:
            raise StorageError(f"{self.path} is too short to be a columnar detection store")
        with self.path.open("rb") as handle:
            _check_magic(self.path, handle.read(_MAGIC_LEN))
            self._chunks = self._chunks_from_footer(handle, size)
            if self._chunks is None:
                self._chunks = _index_file(self.path).chunks
            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.n_records = sum(counts[0] for _, counts in self._chunks)

    def _chunks_from_footer(self, handle, size: int):
        """Parse the footer index; return None to fall back to a header walk."""
        if size < _MAGIC_LEN + _FOOTER_HEAD.size + _TRAILER.size:
            return None
        handle.seek(size - _TRAILER.size)
        footer_start, magic = _TRAILER.unpack(handle.read(_TRAILER.size))
        if magic != _TRAILER_MAGIC or not (_MAGIC_LEN <= footer_start <= size - _FOOTER_HEAD.size - _TRAILER.size):
            return None
        handle.seek(footer_start)
        fmagic, n_chunks = _FOOTER_HEAD.unpack(handle.read(_FOOTER_HEAD.size))
        if fmagic != _FOOTER_MAGIC:
            return None
        if footer_start + _FOOTER_HEAD.size + n_chunks * _FOOTER_ENTRY.size + _TRAILER.size != size:
            return None
        raw = handle.read(n_chunks * _FOOTER_ENTRY.size)
        chunks: list[tuple[int, tuple[int, ...]]] = []
        expected = _MAGIC_LEN
        for i in range(n_chunks):
            entry = _FOOTER_ENTRY.unpack_from(raw, i * _FOOTER_ENTRY.size)
            offset, counts = entry[0], entry[1:]
            if offset != expected:
                raise StorageError(f"corrupt footer index in {self.path}: chunk {i} offset mismatch")
            chunks.append((offset, counts))
            expected = offset + _CHUNK_HEADER_SIZE + _payload_size(counts)
        if expected != footer_start:
            raise StorageError(f"corrupt footer index in {self.path}: chunk sizes do not reach the footer")
        return chunks

    def _chunk_layout(self, chunk: tuple[int, tuple[int, ...]]) -> dict[str, tuple[int, int]]:
        # Memoised per chunk: reading ~10 columns over a few hundred chunks
        # would otherwise recompute the full 51-region layout thousands of
        # times, dominating the cold open this format exists to make cheap.
        offset, counts = chunk
        layout = self._layouts.get(offset)
        if layout is None:
            layout = _layout(counts)[0]
            self._layouts[offset] = layout
        return layout

    def _chunk_view(self, chunk: tuple[int, tuple[int, ...]], name: str) -> np.ndarray:
        offset, counts = chunk
        off, count = self._chunk_layout(chunk)[name]
        return np.frombuffer(
            self._mm, dtype=_DTYPE[name], count=count, offset=offset + _CHUNK_HEADER_SIZE + off
        )

    def column(self, name: str) -> np.ndarray:
        """The named column concatenated across chunks (a view if one chunk)."""
        arr = self._columns.get(name)
        if arr is None:
            if not self._chunks:
                arr = np.empty(0, dtype=_DTYPE[name])
            elif len(self._chunks) == 1:
                arr = self._chunk_view(self._chunks[0], name)
            else:
                arr = np.concatenate([self._chunk_view(chunk, name) for chunk in self._chunks])
            self._columns[name] = arr
        return arr

    def ends(self, name: str) -> np.ndarray:
        """A chunk-local end-counter column rebased to global int64 offsets."""
        arr = self._ends.get(name)
        if arr is None:
            target = _COUNT_INDEX[_END_TARGET[name]]
            parts = []
            base = 0
            for chunk in self._chunks:
                parts.append(self._chunk_view(chunk, name).astype(np.int64) + base)
                base += chunk[1][target]
            arr = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            self._ends[name] = arr
        return arr

    def names(self) -> list[list[str]]:
        """Per-dictionary id → string tables, decoded lazily once."""
        if self._names is None:
            names: list[list[str]] = [[] for _ in range(_N_DICTS)]
            mv = memoryview(self._mm) if self._mm is not None else None
            for offset, counts in self._chunks:
                base = offset + _CHUNK_HEADER_SIZE
                payload = mv[base : base + _payload_size(counts)]
                _apply_dict_deltas(payload, counts, names)
            self._names = names
        return self._names

    def materialize(self) -> list[SiteDetection]:
        """Exact ``SiteDetection`` records, chunk by chunk."""
        names = self.names()
        out: list[SiteDetection] = []
        mv = memoryview(self._mm) if self._mm is not None else None
        for offset, counts in self._chunks:
            base = offset + _CHUNK_HEADER_SIZE
            payload = mv[base : base + _payload_size(counts)]
            out.extend(_materialize_chunk(_chunk_columns(payload, counts), counts, names))
        return out


class ColumnarDataset(CrawlDataset):
    """A ``CrawlDataset`` over an mmapped :class:`ColumnarTable`.

    ``summary()`` (and hence ``table1``) is computed vectorised over the raw
    column arrays without building any ``SiteDetection``; metrics that walk
    records trigger a one-time lazy materialisation, after which the dataset
    behaves exactly like its JSONL twin (same indices, same ``extend``).
    """

    def __init__(self, table: ColumnarTable, *, label: str = "crawl") -> None:
        # Set before super().__init__: the generated dataclass __init__
        # assigns self.detections (hitting our setter) before _lock exists.
        self._table = table
        self._records: list[SiteDetection] | None = None
        super().__init__(detections=[], label=label)

    @classmethod
    def open(cls, path: str | Path, *, label: str | None = None) -> ColumnarDataset:
        path = Path(path)
        return cls(ColumnarTable(path), label=label if label is not None else path.stem)

    @property  # type: ignore[override]
    def detections(self) -> list[SiteDetection]:
        records = self._records
        if records is None:
            with self._lock:
                if self._records is None:
                    self._records = self._table.materialize()
                records = self._records
        return records

    @detections.setter
    def detections(self, value) -> None:
        records = list(value)
        # The dataclass __init__ assigns an empty list; keep laziness then.
        if records or getattr(self, "_table", None) is None:
            self._records = records

    def __len__(self) -> int:
        records = self._records
        return len(records) if records is not None else self._table.n_records

    def _require_non_empty(self) -> None:
        if len(self) == 0:
            raise EmptyDatasetError("the crawl dataset is empty")

    def crawl_days(self) -> tuple[int, ...]:
        if self._records is not None:
            return super().crawl_days()
        return self._index(
            ("columnar", "crawl_days"),
            lambda: tuple(int(day) for day in np.unique(self._table.column("d_crawl_day"))),
        )

    def summary(self) -> dict:
        if self._records is not None:
            return super().summary()
        self._require_non_empty()
        return dict(self._index(("columnar", "summary"), self._columnar_summary))

    def _columnar_summary(self) -> dict:
        table = self._table
        domain = table.column("d_domain")
        hb_rows = np.flatnonzero(table.column("d_hb"))
        n_sites = int(np.unique(domain).size)
        uniq_hb, first_seen = np.unique(domain[hb_rows], return_index=True)
        n_hb = int(uniq_hb.size)
        auction_end = table.ends("d_auctions_end")
        auction_cum = np.concatenate(([0], auction_end))
        n_auctions = int((auction_cum[hb_rows + 1] - auction_cum[hb_rows]).sum())
        bid_cum = np.concatenate(([0], table.ends("a_bids_end")))
        n_bids = int((bid_cum[auction_cum[hb_rows + 1]] - bid_cum[auction_cum[hb_rows]]).sum())
        # Partners over each HB domain's first visit, matching hb_sites().
        first_rows = hb_rows[first_seen]
        partner_cum = np.concatenate(([0], table.ends("d_partners_end")))
        starts = partner_cum[first_rows]
        sizes = partner_cum[first_rows + 1] - starts
        total = int(sizes.sum())
        if total:
            shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
            flat_idx = np.repeat(starts, sizes) + (np.arange(total) - shift)
            n_partners = int(np.unique(table.column("p_partner")[flat_idx]).size)
        else:
            n_partners = 0
        n_days = int(np.unique(table.column("d_crawl_day")).size)
        return {
            "websites_crawled": n_sites,
            "websites_with_hb": n_hb,
            "adoption_rate": n_hb / n_sites if n_sites else 0.0,
            "auctions_detected": n_auctions,
            "bids_detected": n_bids,
            "competing_demand_partners": n_partners,
            "crawl_days": n_days,
            "crawl_weeks": max(1, round(n_days / 7)) if n_days else 0,
            "page_visits": table.n_records,
        }


def sniff_format(path: str | Path) -> str:
    """Detect a detection store's format by magic bytes, or extension if empty.

    Raises :class:`StorageError` (a ``ReproError``) for files that are
    neither JSONL nor a columnar store, instead of letting a parser blow up
    later with a stack trace.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        size = 0
    if size:
        try:
            with path.open("rb") as handle:
                head = handle.read(_MAGIC_LEN)
        except OSError as exc:
            raise StorageError(f"could not read {path}: {exc}") from exc
        if head.startswith(b"HBCOL") or b"HBCOL".startswith(head):
            return "columnar"
        stripped = head.lstrip()
        if not stripped or stripped.startswith(b"{"):
            return "jsonl"
        raise StorageError(
            f"{path} is not a recognised detection store: expected JSON-Lines "
            f"(a '{{' record) or the columnar magic {COLUMNAR_MAGIC!r}, found {head!r}"
        )
    return "columnar" if path.suffix.lower() in COLUMNAR_SUFFIXES else "jsonl"


def storage_for(path: str | Path, format: str | None = None) -> CrawlStorage | ColumnarStorage:
    """Build the right storage backend for ``path``.

    With ``format=None`` the file is sniffed (falling back to the extension
    for files that don't exist yet, so tooling can create either kind).
    """
    fmt = format if format is not None else sniff_format(path)
    if fmt == "jsonl":
        return CrawlStorage(path)
    if fmt == "columnar":
        return ColumnarStorage(path)
    raise StorageError(f"unknown detection store format {fmt!r}; expected one of: {', '.join(STORE_FORMATS)}")
