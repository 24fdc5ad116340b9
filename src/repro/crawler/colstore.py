"""Typed binary columnar detection store: every campaign's working store.

JSONL (:mod:`repro.crawler.storage`) stays the canonical byte form, written
only whole.  A campaign streams, checkpoints, resumes and is tailed through
an ``.hbc`` file instead (:func:`campaign_store`), and :func:`export` writes
its JSONL file.  ``ColumnarDetectionSink`` and ``DetectionSink`` extend the
one sink contract (``storage._BufferedSink``), ``ColumnarStorage`` mirrors
``CrawlStorage``, and ``ColumnarDataset`` *is* a ``CrawlDataset``.
Detections are stored as typed numpy columns:

* fixed-width numeric columns (``<i8`` ranks, ``<f8`` latencies, presence
  bytes for nullable fields — no NaN sentinels, so floats round-trip to the
  reference JSONL bit-exactly);
* dictionary-encoded strings (domains, partners, bidder codes, slot codes,
  sizes, channels) with file-global ids carried as per-chunk deltas in
  first-occurrence order, which keeps encoding deterministic and resumed
  files byte-identical;
* offset-indexed variable-length lists (partners, latencies, channels,
  auctions, bids) as chunk-local cumulative end counters.

The file is its magic and a sequence of self-describing chunks, and nothing
else — one chunk per sink flush, and the engine flushes at every shard
boundary, so chunk boundaries land exactly on the offsets the checkpointer
records.  The file is append-only: a closed store is a byte prefix of any
store appended to it, so a sink's offset, a checkpoint's ``sink_offset`` and
every tailing reader's offset are the same chunk boundary.  ``ColumnarTable``
mmaps the file and serves whole columns as zero-copy numpy views;
``ColumnarDataset`` computes ``summary()`` (and therefore ``table1``)
vectorised over those views without materialising a single
``SiteDetection``, so cold-open on a saved campaign is milliseconds.

Layout (all integers little-endian, every region padded to 8 bytes)::

    file    := magic(8) chunk*
    chunk   := "HBCK" counts(22 x u64) pad(4) dict-deltas columns

Records are written by one encoder and one packer.  :func:`_encode` turns
records into columns over their own string tables, interning in
first-occurrence order: a :class:`ColumnBatch`, which pickles as one chunk
whose dictionaries are its own: process-pool workers encode their
shard, so a shard crosses the pool as one ``bytes`` object.  :func:`_pack`
cuts a stream of batches into chunks of the sink's ``flush_every`` records
and maps each onto the file's dictionaries (one ``np.take`` per id column,
new strings interned in local-id order, which is first-occurrence order).
The serial path buffers records and encodes each flush's buffer as a batch
for the packer, so the chunk bytes do not depend on how the stream arrived
or how it was split into batches.

Every reader reaches chunks through two functions.  :func:`_list_chunks`
lists a file's complete chunks by one walk of chunk headers between a start
and a stop offset, reporting whether a torn chunk follows them.
:func:`_decode` turns chunk payloads into dictionary state and
``SiteDetection`` records, raising :class:`StorageError` with the chunk
offset on any damage.  A torn write can only truncate the tail, and each
reader applies one policy to the lister's tail result:

* ``ColumnarStorage.read_new`` and ``ColumnarTable`` read the
  complete-chunk prefix (a live or crashed file reads as the chunks
  written so far);
* ``ColumnarStorage.iter_load``/``load`` and an append-open
  ``ColumnarDetectionSink`` refuse a torn tail;
* ``ColumnarStorage.recover_to`` requires an exact chunk boundary and
  truncates to it, dropping whatever a crashed run wrote past its last
  checkpoint.
"""

from __future__ import annotations

import bisect
import io
import mmap
import os
import signal
import struct
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.analysis.dataset import CrawlDataset
from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.errors import EmptyDatasetError, StorageError
from repro.models import HBFacet
from repro.crawler.storage import STORE_FORMATS, CrawlStorage, _BufferedSink

__all__ = [
    "COLUMNAR_MAGIC",
    "ColumnBatch",
    "ColumnarDataset",
    "ColumnarDetectionSink",
    "ColumnarStorage",
    "ColumnarTable",
    "campaign_store",
    "export",
    "sniff_format",
    "storage_for",
]

#: Records per flush for a bulk ``save``/``append``: few large chunks, which
#: mmap into near-contiguous columns.
SAVE_CHUNK_RECORDS = 8192

COLUMNAR_MAGIC = b"HBCOL2\r\n"
_MAGIC_LEN = len(COLUMNAR_MAGIC)
_CHUNK_MAGIC = b"HBCK"

# Chunk header: magic + 22 u64 counts, padded to a multiple of 8.
_CHUNK_HEADER = struct.Struct("<4s22Q")
_CHUNK_HEADER_SIZE = (_CHUNK_HEADER.size + 7) & ~7

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

# Id columns: (column, index into DICT_NAMES or None for the facet table,
# whether -1 marks an absent value).
_ID_COLUMNS = (
    ("d_domain", 0, False),
    ("d_facet", None, True),
    ("d_library", 1, True),
    ("p_partner", 2, False),
    ("l_partner", 2, False),
    ("c_channel", 6, False),
    ("a_slot", 4, False),
    ("a_size", 5, True),
    ("a_facet", None, False),
    ("b_partner", 2, False),
    ("b_bidder", 3, False),
    ("b_slot", 4, False),
    ("b_size", 5, True),
    ("b_source", 7, False),
)

_FACETS = tuple(HBFacet)
_FACET_INDEX = {facet: code for code, facet in enumerate(_FACETS)}

#: Suffixes that select the columnar format for files that don't exist yet.
COLUMNAR_SUFFIXES = frozenset({".hbc", ".columnar"})


# Region names and sizes in payload order, precomputed for _layout.
_DICT_REGIONS = tuple((dname + ".offsets", dname + ".blob") for dname in DICT_NAMES)
_COLUMN_REGIONS = tuple((name, _COUNT_INDEX[key], _ITEMSIZE[name]) for name, _dtype, key in COLUMNS)
# The columns grouped by (count index, itemsize), with how many share each.
_SIZE_GROUPS = tuple(
    (index, itemsize, sum(1 for _, i, s in _COLUMN_REGIONS if (i, s) == (index, itemsize)))
    for index, itemsize in sorted({(i, s) for _, i, s in _COLUMN_REGIONS})
)


def _dict_layout(counts: tuple[int, ...]) -> tuple[list[tuple[int, int, int, int]], int]:
    """Where the dictionary deltas lie in a chunk payload.

    Returns ``([(offsets_offset, n_new, blob_offset, blob_len)] per
    dictionary, end of the last one)``; the columns follow.
    """
    regions = []
    pos = 0
    for i in range(6, 6 + 2 * _N_DICTS, 2):
        n_new, blob_len = counts[i], counts[i + 1]
        blob_pos = pos + ((4 * n_new + 7) & ~7)
        regions.append((pos, n_new, blob_pos, blob_len))
        pos = blob_pos + ((blob_len + 7) & ~7)
    return regions, pos


def _layout(counts: tuple[int, ...]) -> tuple[dict[str, tuple[int, int]], int]:
    """Byte layout of a chunk payload for the given counts.

    Returns ``({region: (offset, count)}, payload_size)`` — dict blob regions
    report a byte length instead of an element count.  Every region is
    padded to 8 bytes.
    """
    entries: dict[str, tuple[int, int]] = {}
    regions, pos = _dict_layout(counts)
    for (offsets_region, blob_region), (off, n_new, blob_off, blob_len) in zip(_DICT_REGIONS, regions):
        entries[offsets_region] = (off, n_new)
        entries[blob_region] = (blob_off, blob_len)
    for name, index, itemsize in _COLUMN_REGIONS:
        count = counts[index]
        entries[name] = (pos, count)
        pos += (count * itemsize + 7) & ~7
    return entries, pos


def _payload_size(counts: tuple[int, ...]) -> int:
    """``_layout(counts)[1]`` without building the layout: the header walk's step."""
    size = 0
    for i in range(6, 6 + 2 * _N_DICTS, 2):
        size += ((4 * counts[i] + 7) & ~7) + ((counts[i + 1] + 7) & ~7)
    for index, itemsize, n_columns in _SIZE_GROUPS:
        size += n_columns * ((counts[index] * itemsize + 7) & ~7)
    return size


class _Interner(dict):
    """One string table: ``table[s]`` is ``s``'s id.

    A string missing from the table gets the next id and is recorded in
    ``added`` (first-occurrence order).  The packer starts ``added`` empty
    for each chunk, so a failed write can roll the chunk's new strings back.  Hits
    are plain dict lookups.
    """

    __slots__ = ("added",)

    def __init__(self, names: list[str]) -> None:
        super().__init__(zip(names, range(len(names))))
        self.added: list[str] = []

    def __missing__(self, key: str) -> int:
        idx = self[key] = len(self)
        self.added.append(key)
        return idx


def _encode(records: list[SiteDetection]) -> tuple[list[list[str]], dict[str, list]]:
    """The encoder: ``records`` as columns over their own string tables.

    Each string gets the next id of its table on first occurrence.  Returns
    the tables (strings in id order) and the columns (lists of values): a
    :class:`ColumnBatch`'s encoding.
    """
    dicts = [_Interner([]) for _ in range(_N_DICTS)]
    domain_d, library_d, partner_d, bidder_d, slot_d, size_d, channel_d, source_d = dicts

    data: dict[str, list] = {name: [] for name, _, _ in COLUMNS}
    # One bound append per column, in COLUMNS order.
    (
        d_domain, d_rank, d_hb, d_facet, d_library, d_total_latency, d_has_total_latency,
        d_crawl_day, d_page_load, d_has_page_load, d_partners_end, d_latencies_end,
        d_channels_end, d_auctions_end, p_partner, l_partner, l_latency, c_channel,
        a_slot, a_size, a_start, a_end, a_facet, a_bids_end,
        b_partner, b_bidder, b_slot, b_cpm, b_has_cpm, b_size, b_latency, b_has_latency,
        b_late, b_won, b_source,
    ) = [column.append for column in data.values()]
    n_partners = n_latencies = n_channels = n_auctions = n_bids = 0
    facet_index = _FACET_INDEX
    for det in records:
        d_domain(domain_d[det.domain])
        d_rank(det.rank)
        d_hb(1 if det.hb_detected else 0)
        facet = det.facet
        d_facet(-1 if facet is None else facet_index[facet])
        library = det.library
        d_library(-1 if library is None else library_d[library])
        total = det.total_latency_ms
        d_total_latency(0.0 if total is None else total)
        d_has_total_latency(0 if total is None else 1)
        d_crawl_day(det.crawl_day)
        page_load = det.page_load_ms
        d_page_load(0.0 if page_load is None else page_load)
        d_has_page_load(0 if page_load is None else 1)
        partners = det.partners
        for partner in partners:
            p_partner(partner_d[partner])
        n_partners += len(partners)
        d_partners_end(n_partners)
        latencies = det.partner_latencies_ms
        for partner, latency in latencies.items():
            l_partner(partner_d[partner])
            l_latency(latency)
        n_latencies += len(latencies)
        d_latencies_end(n_latencies)
        channels = det.detection_channels
        for channel in channels:
            c_channel(channel_d[channel])
        n_channels += len(channels)
        d_channels_end(n_channels)
        auctions = det.auctions
        for auction in auctions:
            a_slot(slot_d[auction.slot_code])
            size = auction.size
            a_size(-1 if size is None else size_d[size])
            a_start(auction.start_ms)
            a_end(auction.end_ms)
            a_facet(facet_index[auction.facet])
            bids = auction.bids
            for bid in bids:
                b_partner(partner_d[bid.partner])
                b_bidder(bidder_d[bid.bidder_code])
                b_slot(slot_d[bid.slot_code])
                cpm = bid.cpm
                b_cpm(0.0 if cpm is None else cpm)
                b_has_cpm(0 if cpm is None else 1)
                size = bid.size
                b_size(-1 if size is None else size_d[size])
                latency = bid.latency_ms
                b_latency(0.0 if latency is None else latency)
                b_has_latency(0 if latency is None else 1)
                b_late(1 if bid.late else 0)
                b_won(1 if bid.won else 0)
                b_source(source_d[bid.source])
            n_bids += len(bids)
            a_bids_end(n_bids)
        n_auctions += len(auctions)
        d_auctions_end(n_auctions)
    return [table.added for table in dicts], data


def _chunk_bytes(sizes: tuple[int, ...], added: list[list[str]], columns: dict) -> bytes:
    """Lay out one chunk: header, the dictionary deltas ``added``, ``columns``.

    ``sizes`` are the element counts ``(n, na, nb, np, nl, nc)``; ``columns``
    maps every column name to a list or array of its values.
    """
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

    counts = (*sizes, *dict_counts)
    layout, size = _layout(counts)
    chunk = bytearray(_CHUNK_HEADER_SIZE + size)
    _CHUNK_HEADER.pack_into(chunk, 0, _CHUNK_MAGIC, *counts)
    payload = memoryview(chunk)[_CHUNK_HEADER_SIZE:]
    for dname, (ends, joined) in zip(DICT_NAMES, dict_regions):
        if ends:
            off, count = layout[dname + ".offsets"]
            payload[off : off + 4 * count] = np.asarray(ends, dtype="<u4").tobytes()
            off, blob_len = layout[dname + ".blob"]
            payload[off : off + blob_len] = joined
    for name, dtype, _key in COLUMNS:
        off, count = layout[name]
        if count:
            payload[off : off + count * _ITEMSIZE[name]] = np.asarray(columns[name], dtype=dtype).tobytes()
    return bytes(chunk)


class ColumnBatch:
    """Detections encoded once: columns over batch-local dictionaries.

    A process-pool shard returns its records as a batch.  It pickles as one
    chunk in the ``.hbc`` layout whose dictionary deltas are the batch's
    dictionaries, so a shard crosses the pool as one ``bytes`` object
    instead of a ``SiteDetection`` tree.  :func:`_pack` maps a batch onto a
    file's dictionaries, and :meth:`records` decodes it, once, for a reader
    that needs the objects.  A batch encoded in this process keeps its
    columns, names and records, and builds its chunk only to pickle.
    """

    __slots__ = ("_chunk", "_names", "_columns", "_records")

    def __init__(
        self,
        chunk: bytes | None = None,
        *,
        names: list[list[str]] | None = None,
        columns: dict[str, np.ndarray] | None = None,
        records: list[SiteDetection] | None = None,
    ) -> None:
        self._chunk = chunk
        self._names = names
        self._columns = columns
        self._records = records

    @classmethod
    def encode(cls, records: list[SiteDetection]) -> ColumnBatch:
        """The records over batch-local dictionaries, in first-occurrence order."""
        names, data = _encode(records)
        columns = {name: np.asarray(data[name], dtype=dtype) for name, dtype, _key in COLUMNS}
        return cls(names=names, columns=columns, records=records)

    def chunk(self) -> bytes:
        if self._chunk is None:
            columns = self._columns
            sizes = tuple(len(columns[name]) for name in _SIZE_COLUMNS)  # type: ignore[index]
            self._chunk = _chunk_bytes(sizes, self._names, columns)  # type: ignore[arg-type]
        return self._chunk

    def __reduce__(self):
        return ColumnBatch, (self.chunk(),)

    def __len__(self) -> int:
        return len(self.columns()["d_domain"])

    def _listing(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(0, _CHUNK_HEADER.unpack_from(self._chunk)[1:])]  # type: ignore[arg-type]

    def names(self) -> list[list[str]]:
        """The batch-local dictionaries, indexed like ``DICT_NAMES``."""
        if self._names is None:
            names = _new_names()
            _decode(io.BytesIO(self._chunk), self._listing(), names, records=False)  # type: ignore[arg-type]
            self._names = names
        return self._names

    def columns(self) -> dict[str, np.ndarray]:
        """Every column as a numpy array; ids are batch-local."""
        if self._columns is None:
            counts = self._listing()[0][1]
            layout = _layout(counts)[0]
            self._columns = {
                name: np.frombuffer(
                    self._chunk, dtype=dtype, count=layout[name][1],  # type: ignore[arg-type]
                    offset=_CHUNK_HEADER_SIZE + layout[name][0],
                )
                for name, dtype, _key in COLUMNS
            }
        return self._columns

    def records(self) -> list[SiteDetection]:
        if self._records is None:
            self._records = _decode(io.BytesIO(self.chunk()), self._listing(), _new_names())
        return self._records

    def hb_domains(self) -> list[str]:
        """Domains of the HB pages, from the ``d_hb`` and ``d_domain`` columns."""
        cols = self.columns()
        domains = self.names()[0]
        return [domains[i] for i in cols["d_domain"][cols["d_hb"] != 0].tolist()]


#: One column per element count, in count order: (n, na, nb, np, nl, nc).
_SIZE_COLUMNS = tuple(
    next(name for name, _dtype, key in COLUMNS if _COUNT_INDEX[key] == index) for index in range(6)
)
# Id columns of each dictionary, and each column's end-counter column (if it
# is one) with the count index of the flat array it indexes into.
_DICT_COLUMNS = tuple(
    tuple(name for name, space, _nullable in _ID_COLUMNS if space == index) for index in range(_N_DICTS)
)
_ID_SPACE = {name: space for name, space, _nullable in _ID_COLUMNS if space is not None}
_END_INDEX = {name: _COUNT_INDEX[key] for name, key in _END_TARGET.items()}


def _pack(pieces: list[tuple[ColumnBatch, int, int]], dicts: list[_Interner], flush_every: int):
    """The packer: the records of ``pieces`` as chunks over ``dicts``.

    ``pieces`` are ``(batch, start, stop)`` record ranges in stream order and
    ``dicts`` a file's dictionaries.  Yields ``(chunk, added, n)`` for every
    chunk of ``flush_every`` records, then for the rest.  A chunk maps its
    batch-local ids to file ids with one ``np.take`` per id column, and
    interns the strings it is first to use in local-id order.  Local ids
    follow first occurrence, so those are the strings, in the order, that
    encoding the records one chunk at a time would intern: the bytes are
    the same for any split of the stream into batches.
    """
    maps: dict = {}
    group: list[tuple[ColumnBatch, int, int]] = []
    room = flush_every
    for batch, start, stop in pieces:
        while start < stop:
            take = min(room, stop - start)
            group.append((batch, start, start + take))
            start += take
            room -= take
            if not room:
                yield _pack_chunk(group, dicts, maps)
                group, room = [], flush_every
    if group:
        yield _pack_chunk(group, dicts, maps)


def _pack_chunk(group, dicts: list[_Interner], maps: dict) -> tuple[bytes, list[list[str]], int]:
    for table in dicts:
        table.added = []
    sizes = [0] * 6
    parts: dict[str, list[np.ndarray]] = {name: [] for name, _, _ in COLUMNS}
    for batch, start, stop in group:
        cols = batch.columns()
        names = batch.names()
        state = maps.get(id(batch))
        if state is None:
            # Local id -> file id (-1: not interned yet), plus a trailing -1
            # that absent values (-1) take to; and which dictionaries still
            # have local strings to intern.
            mapping = [
                np.fromiter(chain(map(table.get, bucket, repeat(-1)), (-1,)), np.int64, len(bucket) + 1)
                for table, bucket in zip(dicts, names)
            ]
            state = maps[id(batch)] = (mapping, [bool((local[:-1] < 0).any()) for local in mapping])
        mapping, unresolved = state

        def end(name: str, i: int) -> int:
            return int(cols[name][i - 1]) if i else 0

        a0, a1 = end("d_auctions_end", start), end("d_auctions_end", stop)
        ranges = (
            (start, stop),
            (a0, a1),
            (end("a_bids_end", a0), end("a_bids_end", a1)),
            (end("d_partners_end", start), end("d_partners_end", stop)),
            (end("d_latencies_end", start), end("d_latencies_end", stop)),
            (end("d_channels_end", start), end("d_channels_end", stop)),
        )
        segs = {name: cols[name][slice(*ranges[index])] for name, index, _size in _COLUMN_REGIONS}
        for space, columns in enumerate(_DICT_COLUMNS):
            if not unresolved[space]:
                continue
            top = max((int(segs[name].max()) + 1 for name in columns if segs[name].size), default=0)
            local = mapping[space]
            unresolved[space] = top < len(local) - 1
            unmapped = np.flatnonzero(local[:top] < 0).tolist()
            if unmapped:
                # Intern in local-id order: the strings not in the table yet
                # take the next ids, as one at a time would give them.
                table, bucket = dicts[space], names[space]
                strings = [bucket[k] for k in unmapped]
                new = [s for s in strings if s not in table]
                table.update(zip(new, range(len(table), len(table) + len(new))))
                table.added.extend(new)
                local[unmapped] = [table[s] for s in strings]
        for name, seg in segs.items():
            space = _ID_SPACE.get(name)
            if space is not None:
                seg = np.take(mapping[space], seg)
            elif name in _END_INDEX:
                target = _END_INDEX[name]
                seg = seg.astype(np.int64) + (sizes[target] - ranges[target][0])
            parts[name].append(seg)
        for index, (lo, hi) in enumerate(ranges):
            sizes[index] += hi - lo
    columns = {name: seg[0] if len(seg) == 1 else np.concatenate(seg) for name, seg in parts.items()}
    added = [table.added for table in dicts]
    return _chunk_bytes(tuple(sizes), added, columns), added, sizes[0]


def _new_names() -> list[list[str]]:
    return [[] for _ in range(_N_DICTS)]


def _decode(source, chunks, names: list[list[str]], *, records: bool = True) -> list[SiteDetection]:
    """The one chunk decoder: dictionary deltas into ``names``, columns into records.

    ``source`` is a binary file handle or an mmap (both ``seek``/``read``);
    ``chunks`` are ``(offset, counts)`` pairs from :func:`_list_chunks`, in
    file order from the first chunk ``names`` does not cover yet.  Each
    chunk's new strings are appended to ``names`` before its records are
    rebuilt, so ids always resolve against the dictionaries as written.  With
    ``records=False`` only each chunk's header and dictionary region are read
    and nothing is returned.

    Damage raises :class:`StorageError` naming the chunk offset: a header
    that disagrees with the listing, a short read, dictionary deltas whose
    ends run backwards or are not UTF-8, an id outside its dictionary, or
    end counters that are not monotone or do not reach the chunk's counts.
    """
    out: list[SiteDetection] = []
    for offset, counts in chunks:
        regions, dict_end = _dict_layout(counts)
        length = _CHUNK_HEADER_SIZE + (_payload_size(counts) if records else dict_end)
        source.seek(offset)
        buf = source.read(length)
        if len(buf) < length:
            raise StorageError(f"columnar chunk at offset {offset} is truncated")
        if buf[: _CHUNK_HEADER.size] != _CHUNK_HEADER.pack(_CHUNK_MAGIC, *counts):
            raise StorageError(f"columnar chunk at offset {offset} has a header that disagrees with its index")
        payload = memoryview(buf)[_CHUNK_HEADER_SIZE:]
        for i, (dname, (off, n_new, blob_off, blob_len)) in enumerate(zip(DICT_NAMES, regions)):
            if not n_new:
                continue
            blob = bytes(payload[blob_off : blob_off + blob_len])
            ends = np.frombuffer(payload, dtype="<u4", count=n_new, offset=off)
            if ends[-1] != blob_len or (ends[1:] < ends[:-1]).any():
                raise StorageError(f"columnar chunk at offset {offset}: {dname} dictionary ends are inconsistent")
            ends = ends.tolist()
            try:
                names[i].extend([blob[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)])
            except UnicodeDecodeError:
                raise StorageError(f"columnar chunk at offset {offset}: {dname} dictionary is not UTF-8") from None
        if not records:
            continue
        layout = _layout(counts)[0]
        cols = {
            name: np.frombuffer(payload, dtype=dtype, count=layout[name][1], offset=layout[name][0])
            for name, dtype, _key in COLUMNS
        }
        for name, space, nullable in _ID_COLUMNS:
            col = cols[name]
            bound = len(_FACETS) if space is None else len(names[space])
            lowest = -1 if nullable else 0
            if col.size and (col.max() >= bound or (col.dtype.kind == "i" and col.min() < lowest)):
                raise StorageError(f"columnar chunk at offset {offset}: {name} id out of range")
        for name, key in _END_TARGET.items():
            ends = cols[name]
            last = int(ends[-1]) if ends.size else 0
            if last != counts[_COUNT_INDEX[key]] or bool((ends[1:] < ends[:-1]).any()):
                raise StorageError(f"columnar chunk at offset {offset}: {name} counters are inconsistent")
        out.extend(_materialize_chunk(cols, counts, names))
    return out


def _materialize_chunk(
    cols: dict[str, np.ndarray], counts: tuple[int, ...], names: list[list[str]]
) -> list[SiteDetection]:
    """Rebuild exact ``SiteDetection`` records from one chunk's columns."""
    domain_n, library_n, partner_n, bidder_n, slot_n, size_n, channel_n, source_n = names
    # .tolist() converts numpy scalars to exact Python natives in one pass.
    (
        d_domain, d_rank, d_hb, d_facet, d_library, d_total_latency, d_has_total_latency,
        d_crawl_day, d_page_load, d_has_page_load, d_partners_end, d_latencies_end,
        d_channels_end, d_auctions_end, p_partner, l_partner, l_latency, c_channel,
        a_slot, a_size, a_start, a_end, a_facet, a_bids_end,
        b_partner, b_bidder, b_slot, b_cpm, b_has_cpm, b_size, b_latency, b_has_latency,
        b_late, b_won, b_source,
    ) = [cols[name].tolist() for name, _, _ in COLUMNS]
    facets = _FACETS
    out: list[SiteDetection] = []
    p_start = l_start = ch_start = a_start_i = b_start = 0
    # Positional constructor calls, in each record's field order.
    for i in range(counts[0]):
        p_end = d_partners_end[i]
        partners = tuple([partner_n[pid] for pid in p_partner[p_start:p_end]])
        p_start = p_end
        l_end = d_latencies_end[i]
        latencies = {
            partner_n[pid]: latency
            for pid, latency in zip(l_partner[l_start:l_end], l_latency[l_start:l_end])
        }
        l_start = l_end
        ch_end = d_channels_end[i]
        channels = tuple([channel_n[cid] for cid in c_channel[ch_start:ch_end]])
        ch_start = ch_end
        a_end_i = d_auctions_end[i]
        auctions = []
        for j in range(a_start_i, a_end_i):
            b_end = a_bids_end[j]
            bids = tuple([
                ObservedBid(
                    partner_n[b_partner[k]],
                    bidder_n[b_bidder[k]],
                    slot_n[b_slot[k]],
                    b_cpm[k] if b_has_cpm[k] else None,
                    size_n[b_size[k]] if b_size[k] >= 0 else None,
                    b_latency[k] if b_has_latency[k] else None,
                    bool(b_late[k]),
                    bool(b_won[k]),
                    source_n[b_source[k]],
                )
                for k in range(b_start, b_end)
            ])
            b_start = b_end
            auctions.append(
                ObservedAuction(
                    slot_n[a_slot[j]],
                    size_n[a_size[j]] if a_size[j] >= 0 else None,
                    bids,
                    a_start[j],
                    a_end[j],
                    facets[a_facet[j]],
                )
            )
        a_start_i = a_end_i
        facet_code = d_facet[i]
        out.append(
            SiteDetection(
                domain_n[d_domain[i]],
                d_rank[i],
                bool(d_hb[i]),
                facets[facet_code] if facet_code >= 0 else None,
                library_n[d_library[i]] if d_library[i] >= 0 else None,
                partners,
                tuple(auctions),
                latencies,
                d_total_latency[i] if d_has_total_latency[i] else None,
                channels,
                d_crawl_day[i],
                d_page_load[i] if d_has_page_load[i] else None,
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


class _Listing(NamedTuple):
    """A columnar file's complete chunks and whether a torn chunk follows them."""

    chunks: list[tuple[int, tuple[int, ...]]]
    #: End of the last complete chunk.
    data_end: int
    #: Whether a torn chunk (or one crossing ``stop``) follows ``data_end``.
    torn: bool


def _list_chunks(handle, path: Path, size: int, start: int = _MAGIC_LEN, stop: int | None = None) -> _Listing:
    """The one chunk lister: every complete chunk of ``handle`` in ``[start, stop)``.

    ``size`` is the file size the caller observed (a live file may grow
    past it; nothing beyond it is read).  One walk of chunk headers runs
    from ``start`` (a chunk boundary) to ``stop`` (default: ``size``), one
    ``pread`` of a header per chunk (no seek, no read-ahead), the step to
    the next from :func:`_payload_size`.
    Bytes that cannot begin a chunk raise :class:`StorageError`; each reader
    applies its own torn-tail policy to the returned ``torn``.
    """
    limit = size if stop is None else min(stop, size)
    if start == _MAGIC_LEN:
        handle.seek(0)
        head = handle.read(min(_MAGIC_LEN, limit))
        if len(head) < _MAGIC_LEN and COLUMNAR_MAGIC.startswith(head):
            return _Listing([], 0, bool(head))
        _check_magic(path, head)
    chunks, pos = [], start
    fd = handle.fileno()
    while pos < limit:
        header = os.pread(fd, min(_CHUNK_HEADER_SIZE, limit - pos), pos)
        if not _CHUNK_MAGIC.startswith(header[:4]):
            raise StorageError(f"corrupt columnar store {path}: unrecognised bytes at offset {pos}")
        if len(header) < _CHUNK_HEADER_SIZE:
            return _Listing(chunks, pos, True)
        counts = _CHUNK_HEADER.unpack_from(header)[1:]
        end = pos + _CHUNK_HEADER_SIZE + _payload_size(counts)
        if end > limit:
            return _Listing(chunks, pos, True)
        chunks.append((pos, counts))
        pos = end
    return _Listing(chunks, pos, False)


def _open_for_read(path: Path):
    try:
        return path.open("rb")
    except OSError as exc:
        raise StorageError(f"could not read {path}: {exc}") from exc


def _stamp(path: Path) -> tuple[int, int, int] | None:
    try:
        st = path.stat()
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


class ColumnarDetectionSink(_BufferedSink):
    """The columnar detection sink, on the shared ``_BufferedSink`` contract.

    Records written one at a time are buffered as objects; whole shards
    arrive as :class:`ColumnBatch` es through :meth:`write_batch`.  Either
    way the pending stream is cut into chunks of ``flush_every`` records
    by the one packer, so the bytes do not depend on how it arrived.
    ``offset`` is the file's size as flushed, so checkpoint offsets
    recorded against this sink are chunk boundaries by construction and a
    closed file ends at its last chunk.  Reopening in append mode reads the
    file's dictionaries through the one lister and decoder, refuses a torn
    tail, and continues the file where it ends (or where an earlier sink
    left it, see :meth:`continue_from`).
    """

    format = "columnar"
    _offset: int | None = None
    _dicts: list[_Interner] | None = None
    #: ``(inode, size, mtime)`` of the file when this sink closed cleanly.
    _end_stamp: tuple[int, int, int] | None = None

    def __init__(
        self,
        path: str | Path,
        *,
        append: bool = False,
        flush_every: int = _BufferedSink.DEFAULT_FLUSH_EVERY,
        export_to: Path | None = None,
    ) -> None:
        super().__init__(path, flush_every=flush_every)
        self.append = append
        #: Where a successful close exports the whole file as JSONL.
        self.export_to = export_to
        #: Batches queued by write_batch: ``(batch, start, stop)``, ahead of the buffer.
        self._pieces: list[tuple[ColumnBatch, int, int]] = []
        # A fresh sink's own writes are the whole file, exported from memory.
        self._written: list[SiteDetection] | None = [] if export_to is not None and not append else None

    @property
    def offset(self) -> int:
        """Bytes of flushed chunk data, the magic included."""
        self._prepare()
        return self._offset  # type: ignore[return-value]

    def continue_from(self, previous: ColumnarDetectionSink) -> None:
        """Append where ``previous``, an earlier sink of this file, closed it.

        Takes that sink's dictionaries and offset instead of listing and
        decoding the file, if the file still has the inode, size and mtime
        that sink closed it with; otherwise the append-open reads the file
        as usual.  Call it before the sink opens (``with`` or a first write).
        """
        stamp = previous._end_stamp
        if self.append and self._dicts is None and stamp is not None and stamp == _stamp(self.path):
            self._dicts, self._offset = previous._dicts, previous._offset

    def _prepare(self) -> None:
        if self._dicts is not None:
            return
        names, data_end = _new_names(), 0
        if self.append and self.path.exists():
            with _open_for_read(self.path) as handle:
                listing = _list_chunks(handle, self.path, os.fstat(handle.fileno()).st_size)
                if listing.torn:
                    raise StorageError(
                        f"cannot append to {self.path}: the file ends in a torn write; "
                        f"recover it to a checkpointed offset first"
                    )
                _decode(handle, listing.chunks, names, records=False)
            data_end = listing.data_end
        self._dicts = [_Interner(bucket) for bucket in names]
        self._offset = data_end

    def _open(self):
        self._prepare()
        if self.append and self.path.exists():
            handle = self.path.open("r+b")
            handle.seek(self._offset)  # type: ignore[arg-type]
            return handle
        return self.path.open("wb")

    def write_batch(self, batch: ColumnBatch) -> None:
        """Queue a whole batch; it reaches the file at the next flush.

        The chunks are the ones writing its records one by one would give:
        records written after it fill up its last chunk first.
        """
        if self._closed:
            raise StorageError(f"detection sink for {self.path} is closed")
        if self._buffer:
            self._pieces.append((ColumnBatch.encode(self._buffer), 0, len(self._buffer)))
            self._buffer = []
        self._pieces.append((batch, 0, len(batch)))
        self.count += len(batch)
        queued = sum(stop - start for _, start, stop in self._pieces)
        self._room = self.flush_every - queued % self.flush_every

    def flush(self) -> None:
        """Write every pending record, in chunks of ``flush_every``.

        Each chunk is committed on its own: a failed write leaves that chunk
        and everything after it pending, so a retried flush writes the same
        bytes.
        """
        if self._pieces or self._buffer:
            self._write_chunks()
            self._room = self.flush_every

    def _write_chunks(self) -> None:
        """Write the pending records: the queued batches, then the buffer as one."""
        handle = self._ensure_open()
        pieces = list(self._pieces)
        if self._buffer:
            pieces.append((ColumnBatch.encode(self._buffer), 0, len(self._buffer)))
        for chunk, added, n in _pack(pieces, self._dicts, self.flush_every):  # type: ignore[arg-type]
            prefix = COLUMNAR_MAGIC if self._offset == 0 else b""
            try:
                handle.write(prefix + chunk)
                handle.flush()
            except OSError as exc:
                # Un-intern this chunk's new strings so a retried flush
                # re-encodes an identical chunk.
                for table, news in zip(self._dicts, added):  # type: ignore[arg-type]
                    for name in news:
                        del table[name]
                raise StorageError(f"could not write detections to {self.path}: {exc}") from exc
            self._offset += len(prefix) + len(chunk)  # type: ignore[operator]
            self.flushes += 1
            self._advance(n)

    def _advance(self, n: int) -> None:
        """Drop the ``n`` records just written from the front of the pending
        stream: the queued batches, then the buffer."""
        written = self._written
        while n and self._pieces:
            batch, start, stop = self._pieces[0]
            take = min(n, stop - start)
            if written is not None:
                written.extend(batch.records()[start : start + take])
            if start + take < stop:
                self._pieces[0] = (batch, start + take, stop)
            else:
                del self._pieces[0]
            n -= take
        if written is not None:
            written.extend(self._buffer[:n])
        del self._buffer[:n]

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        if self._dicts is not None:
            self._end_stamp = _stamp(self.path)
            if self._end_stamp is not None and self._end_stamp[1] != self._offset:
                self._end_stamp = None
        if self.export_to is not None and self.path.exists():
            records, self._written = self._written, None
            export(self.path, self.export_to, "jsonl", records=records)


class ColumnarStorage:
    """``CrawlStorage`` API over the columnar file format; with ``export_to``,
    the working store of a JSONL campaign (see :func:`campaign_store`)."""

    format = "columnar"

    def __init__(self, path: str | Path, *, export_to: Path | None = None) -> None:
        self.path = Path(path)
        self.export_to = export_to
        # Tailing state for read_new: dictionary contents up to _tail_offset.
        self._tail_offset = 0
        self._tail_names: list[list[str]] = _new_names()

    def open_sink(
        self, *, append: bool = False, flush_every: int = ColumnarDetectionSink.DEFAULT_FLUSH_EVERY
    ) -> ColumnarDetectionSink:
        return ColumnarDetectionSink(
            self.path, append=append, flush_every=flush_every, export_to=self.export_to
        )

    def save(self, detections: Iterable[SiteDetection]) -> int:
        self._tail_offset, self._tail_names = 0, _new_names()
        with self.open_sink(flush_every=SAVE_CHUNK_RECORDS) as sink:
            return sink.write_many(detections)

    def append(self, detections: Iterable[SiteDetection]) -> int:
        with self.open_sink(append=True, flush_every=SAVE_CHUNK_RECORDS) as sink:
            return sink.write_many(detections)

    def load(self) -> list[SiteDetection]:
        return list(self.iter_load())

    def iter_load(self) -> Iterator[SiteDetection]:
        """Stream every record, chunk by chunk; a torn tail is refused."""
        if not self.path.exists():
            raise StorageError(f"crawl dataset not found: {self.path}")
        with _open_for_read(self.path) as handle:
            listing = _list_chunks(handle, self.path, os.fstat(handle.fileno()).st_size)
            if listing.torn:
                raise StorageError(
                    f"truncated columnar store {self.path}: the file ends mid-write; "
                    f"recover it to a checkpointed offset first"
                )
            names = _new_names()
            for chunk in listing.chunks:
                yield from _decode(handle, [chunk], names)

    def size(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def read_new(self, offset: int = 0) -> tuple[list[SiteDetection], int]:
        """Detections in complete chunks past ``offset``, plus the new offset.

        The new offset is the end of the last complete chunk, so a trailing
        half-written chunk is left for the next call, and on a closed file it
        is the file size: pollers see the store as drained, and an append
        continues from it.  A reader continuing from its last returned
        offset lists only the new chunks; one joining elsewhere lists the
        whole file and rebuilds the dictionaries up to ``offset``, which must
        be a chunk boundary.
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
        resumed = offset != 0 and offset == self._tail_offset
        names = self._tail_names if resumed else _new_names()
        self._tail_offset = -1  # the cached dictionaries are stale until this read completes
        with _open_for_read(self.path) as handle:
            listing = _list_chunks(handle, self.path, size, start=offset if resumed else _MAGIC_LEN)
            first = 0
            if offset and not resumed:
                boundaries = [chunk_offset for chunk_offset, _ in listing.chunks] + [listing.data_end]
                first = bisect.bisect_left(boundaries, offset)
                if first == len(boundaries) or boundaries[first] != offset:
                    raise StorageError(f"read offset {offset} of {self.path} is not a chunk boundary")
                _decode(handle, listing.chunks[:first], names, records=False)
            detections = _decode(handle, listing.chunks[first:], names)
        self._tail_offset, self._tail_names = listing.data_end, names
        return detections, listing.data_end

    def recover_to(self, offset: int) -> list[SiteDetection]:
        """Validate and truncate the store to a checkpointed chunk boundary.

        Returns the kept detections and drops everything past ``offset`` —
        post-checkpoint chunks or a torn tail, both of which the resumed sink
        will rewrite.
        """
        if offset < 0:
            raise StorageError(f"cannot recover {self.path} to negative offset {offset}")
        self._tail_offset, self._tail_names = 0, _new_names()
        if offset == 0:
            if self.path.exists():
                self._truncate(0)
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
        names = _new_names()
        with _open_for_read(self.path) as handle:
            listing = _list_chunks(handle, self.path, size, stop=offset)
            if listing.torn:
                raise StorageError(
                    f"cannot recover {self.path} to offset {offset}: not a chunk boundary "
                    f"(the complete chunks before it end at {listing.data_end})"
                )
            detections = _decode(handle, listing.chunks, names)
        if size > offset:
            self._truncate(offset)
        self._tail_offset, self._tail_names = offset, names
        return detections

    def _truncate(self, offset: int) -> None:
        try:
            with self.path.open("r+b") as handle:
                handle.truncate(offset)
        except OSError as exc:
            raise StorageError(f"could not truncate {self.path} to {offset} bytes: {exc}") from exc


class ColumnarTable:
    """Zero-copy reader: mmaps a columnar file and serves numpy column views.

    Lists the file through :func:`_list_chunks` (one walk of chunk headers)
    and keeps the complete-chunk prefix, so a live or crashed file reads as
    the chunks written so far.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise StorageError(f"crawl dataset not found: {self.path}")
        self._chunks: list[tuple[int, tuple[int, ...]]] = []
        self._mm: mmap.mmap | None = None
        self._columns: dict[str, np.ndarray] = {}
        self._ends: dict[str, np.ndarray] = {}
        self._layouts: dict[int, dict[str, tuple[int, int]]] = {}
        with _open_for_read(self.path) as handle:
            size = os.fstat(handle.fileno()).st_size
            if size:
                self._chunks = _list_chunks(handle, self.path, size).chunks
                self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.n_records = sum(counts[0] for _, counts in self._chunks)

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

    def materialize(self) -> list[SiteDetection]:
        """Exact ``SiteDetection`` records, chunk by chunk."""
        if self._mm is None:
            return []
        return _decode(self._mm, self._chunks, _new_names())


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


def campaign_store(path: str | Path, format: str) -> ColumnarStorage:
    """The ``.hbc`` working store of a campaign that hands out ``path`` as ``format``.

    A columnar campaign streams into ``path`` itself.  A JSONL campaign
    streams into ``<path>.hbc``, and every close of its sink (a finished,
    degraded, cancelled or interrupted run) exports ``path`` whole.
    """
    path = Path(path)
    if format == "jsonl":
        return ColumnarStorage(path.with_name(path.name + ".hbc"), export_to=path)
    return storage_for(path, format)  # type: ignore[return-value]


def export(
    src: str | Path, dst: str | Path, format: str, *, records: list[SiteDetection] | None = None
) -> int:
    """Write the store at ``src`` to ``dst`` as ``format``; returns the record count.

    The one writer of whole converted files (``hbrepro convert`` and every
    JSONL campaign).  It writes a sibling temp file, fsyncs it and renames
    it into place, so a crash never leaves a torn file where a valid one
    stood, and a first SIGINT/SIGTERM waits for the rename.  ``records``,
    when the caller holds every record of ``src`` in file order (a fresh
    sink's own writes), are written instead of decoding ``src`` again.
    """
    src, dst = Path(src), Path(dst)
    tmp = dst.with_name(dst.name + ".export-tmp")
    if src.resolve() in (dst.resolve(), tmp.resolve()):
        raise StorageError("an export needs distinct source and destination paths")
    source = records if records is not None else storage_for(src).iter_load()
    with _signals_held():
        try:
            count = storage_for(tmp, format=format).save(source)
            with tmp.open("rb") as handle:
                os.fsync(handle.fileno())
            os.replace(tmp, dst)
        except OSError as exc:
            raise StorageError(f"could not write {dst}: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
    return count


_HELD_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@contextmanager
def _signals_held():
    """Hold a first SIGINT or SIGTERM until the block ends, then deliver it.

    An export takes a moment at scale, and a stop request (Ctrl-C, ``kill``)
    landing in it would otherwise abort it and leave a finished campaign
    with only its ``.hbc``.  The held signal is delivered when the block
    ends, whether it finished or raised; a second signal aborts the block at
    once with ``KeyboardInterrupt``, which answers both.  A signal the
    process ignores stays ignored.  Signal handlers belong to the main
    thread; elsewhere the block runs as is.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held: list[int] = []

    def hold(signum, frame) -> None:
        if held:
            held.clear()
            raise KeyboardInterrupt
        held.append(signum)

    previous = {
        signum: signal.signal(signum, hold)
        for signum in _HELD_SIGNALS
        if signal.getsignal(signum) is not signal.SIG_IGN
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler if handler is not None else signal.SIG_DFL)
        if held:
            signal.raise_signal(held[0])
