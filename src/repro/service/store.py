"""The service's queryable detection store.

One :class:`DetectionStore` wraps a campaign's ``.hbc`` working store (the
file its sink streams into) and keeps an incrementally-maintained
:class:`~repro.analysis.dataset.CrawlDataset` over it: :meth:`refresh` tails
the file through :meth:`~repro.crawler.colstore.ColumnarStorage.read_new`
(guarded by one cheap :meth:`~repro.crawler.colstore.ColumnarStorage.size`
probe) and folds the new records into the dataset's O(Δ) indices.  It is the
one tail loop: every HTTP request thread shares it, and ``hbrepro analyze
--watch`` runs on it.  A JSONL file, written only whole, is refused.

Beside the dataset the store keeps a small column view of the same records:
numpy arrays of ``hb_detected``, ``crawl_day``, ``rank`` and a facet code,
one posting list of record indices per demand partner, and the domains.
``refresh`` extends it from the new records only.  A
:class:`DetectionQuery` (parsed from URL query parameters by the route
layer) is answered by ANDing one boolean mask per active filter; the
matching indices keep dataset order, and only the records of the requested
page are looked up.

Reads are served from memoised encodings.  Each record's compact JSON is
encoded the first time a page returns it and kept beside its columns, so a
query hands back ready-made item fragments.  Each rendered artifact body
(a metric's JSON or its CLI text) is kept for the store's current
*generation*, a counter that every :meth:`DetectionStore.refresh` bumps when
it absorbs records or restarts; a finished campaign renders each body once.

All store operations run under one re-entrant lock, so detection queries,
metric snapshots and tail refreshes from concurrent service threads never
observe an index mid-update.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import get_metric
from repro.crawler.colstore import storage_for
from repro.crawler.storage import detection_to_dict
from repro.detector.records import SiteDetection
from repro.errors import ServiceError, StorageError
from repro.models import HBFacet

__all__ = ["DetectionQuery", "DetectionStore", "MAX_PAGE_SIZE", "compact_json"]

#: Hard cap on one detections page; larger ``limit`` values are rejected so a
#: single request cannot serialise a million-detection campaign in one body.
MAX_PAGE_SIZE = 500

#: Default rank-bin width for the ``rank_bin`` filter (matches the Figure 13
#: default of 100-rank buckets at test scale).
DEFAULT_RANK_BIN_SIZE = 100

#: Facet code of the column view; records without a facet get -1.
_FACET_CODES = {facet: code for code, facet in enumerate(HBFacet)}

#: Exact types ``json`` encodes as they are (subclasses such as enums excluded).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def compact_json(value: Any) -> bytes:
    """``value`` as compact JSON bytes: every JSON response body, and each
    record's memoised item, is this encoding, so spliced pages stay exact.

    Compact separators and no indent keep ``json.dumps`` on its C encoder.
    """
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _jsonable(value: Any) -> Any:
    """Recursively coerce a metric payload into JSON-encodable data.

    Metric ``data`` mappings are free to use enum keys (facets), tuples,
    dataclasses (an ``Ecdf``) and numpy scalars/arrays; JSON allows none of
    those, so they are flattened here — enum → value, dataclass → an object
    of its fields, numpy → ``item()``/``tolist()``, any other object →
    ``str``.
    """
    if isinstance(value, enum.Enum):
        return _jsonable(value.value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {_json_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        if all(type(v) in _JSON_SCALARS for v in value):
            # Long runs of plain numbers (an ECDF's values) skip the per-item call.
            return list(value)
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonable(tolist())
    return str(value)


def _json_key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        key = key.value
    return key if isinstance(key, str) else str(key)


def _parse_int(raw: str, name: str, *, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ServiceError(f"query parameter {name!r} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ServiceError(f"query parameter {name!r} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class DetectionQuery:
    """One filtered, paginated read over a campaign's detections."""

    #: Keep only detections naming this demand partner.
    partner: str | None = None
    #: Keep only detections classified as this HB facet.
    facet: HBFacet | None = None
    #: Keep only detections from this crawl day (0 = the discovery pass).
    crawl_day: int | None = None
    #: Keep only detections whose site rank falls in this bin (0-based,
    #: ``bin_size`` ranks per bin — bin ``b`` covers ranks
    #: ``b*bin_size+1 .. (b+1)*bin_size``).
    rank_bin: int | None = None
    bin_size: int = DEFAULT_RANK_BIN_SIZE
    #: Keep only detections whose domain contains this substring.
    site: str | None = None
    #: Keep only HB / only non-HB detections (``None`` keeps both).
    hb: bool | None = None
    limit: int = 50
    offset: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.limit <= MAX_PAGE_SIZE:
            raise ServiceError(f"limit must be in [1, {MAX_PAGE_SIZE}], got {self.limit}")
        if self.offset < 0:
            raise ServiceError(f"offset cannot be negative, got {self.offset}")
        if self.bin_size < 1:
            raise ServiceError(f"bin_size must be >= 1, got {self.bin_size}")

    @classmethod
    def from_params(cls, params: Mapping[str, str]) -> "DetectionQuery":
        """Build a query from flat URL parameters, loudly on anything bogus."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ServiceError(
                f"unknown detection filter(s): {', '.join(unknown)}; "
                f"expected any of {', '.join(sorted(known))}"
            )
        kwargs: dict[str, Any] = {}
        if "partner" in params:
            kwargs["partner"] = params["partner"]
        if "facet" in params:
            try:
                kwargs["facet"] = HBFacet(params["facet"])
            except ValueError:
                raise ServiceError(
                    f"unknown facet {params['facet']!r}; expected one of "
                    f"{', '.join(f.value for f in HBFacet)}"
                ) from None
        if "crawl_day" in params:
            kwargs["crawl_day"] = _parse_int(params["crawl_day"], "crawl_day", minimum=0)
        if "rank_bin" in params:
            kwargs["rank_bin"] = _parse_int(params["rank_bin"], "rank_bin", minimum=0)
        if "bin_size" in params:
            kwargs["bin_size"] = _parse_int(params["bin_size"], "bin_size", minimum=1)
        if "site" in params:
            kwargs["site"] = params["site"]
        if "hb" in params:
            raw = params["hb"].lower()
            if raw not in ("true", "false", "1", "0"):
                raise ServiceError(f"query parameter 'hb' must be true/false, got {params['hb']!r}")
            kwargs["hb"] = raw in ("true", "1")
        if "limit" in params:
            kwargs["limit"] = _parse_int(params["limit"], "limit", minimum=1)
        if "offset" in params:
            kwargs["offset"] = _parse_int(params["offset"], "offset", minimum=0)
        return cls(**kwargs)

    def describe(self) -> dict[str, Any]:
        """The active filters, JSON-shaped (for echoing back in responses)."""
        out: dict[str, Any] = {}
        for name in ("partner", "crawl_day", "rank_bin", "site", "hb"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.facet is not None:
            out["facet"] = self.facet.value
        if self.rank_bin is not None:
            out["bin_size"] = self.bin_size
        return out


class _Columns:
    """The query columns over a store's records, grown in place.

    The numpy columns double their capacity when full, so an
    :meth:`extend` costs O(Δ) amortised, like ``CrawlDataset.extend``.
    ``encoded`` holds each record's compact JSON once a page has returned
    it (``None`` until then).
    """

    def __init__(self) -> None:
        self.size = 0
        self.hb = np.zeros(0, dtype=bool)
        self.day = np.zeros(0, dtype=np.int64)
        self.rank = np.zeros(0, dtype=np.int64)
        self.facet = np.zeros(0, dtype=np.int8)
        self.partners: dict[str, list[int]] = {}
        self.domains: list[str] = []
        self.encoded: list[bytes | None] = []

    def extend(self, records: Sequence[SiteDetection]) -> None:
        start = self.size
        end = start + len(records)
        if end > len(self.hb):
            capacity = max(end, 2 * len(self.hb))
            for name in ("hb", "day", "rank", "facet"):
                grown = np.empty(capacity, dtype=getattr(self, name).dtype)
                grown[:start] = getattr(self, name)[:start]
                setattr(self, name, grown)
        self.hb[start:end] = [d.hb_detected for d in records]
        self.day[start:end] = [d.crawl_day for d in records]
        self.rank[start:end] = [d.rank for d in records]
        self.facet[start:end] = [-1 if d.facet is None else _FACET_CODES[d.facet] for d in records]
        for index, d in enumerate(records, start):
            for partner in d.partners:
                self.partners.setdefault(partner, []).append(index)
        self.domains.extend(d.domain for d in records)
        self.encoded.extend([None] * len(records))
        self.size = end

    def select(self, query: DetectionQuery) -> np.ndarray:
        """Indices of the records ``query`` keeps, in dataset order."""
        n = self.size
        hb = self.hb[:n]
        masks = []
        if query.hb is not None:
            masks.append(hb if query.hb else ~hb)
        if query.partner is not None or query.facet is not None:
            # Partner and facet filters only ever match HB detections.
            masks.append(hb)
        if query.partner is not None:
            posted = np.zeros(n, dtype=bool)
            posted[self.partners.get(query.partner, [])] = True
            masks.append(posted)
        if query.facet is not None:
            masks.append(self.facet[:n] == _FACET_CODES[query.facet])
        if query.crawl_day is not None:
            masks.append(self.day[:n] == query.crawl_day)
        if query.rank_bin is not None:
            # Bin b covers ranks b*bin_size+1 .. (b+1)*bin_size.
            first = query.rank_bin * query.bin_size + 1
            rank = self.rank[:n]
            masks.append((rank >= first) & (rank < first + query.bin_size))
        indices = np.flatnonzero(np.logical_and.reduce(masks)) if masks else np.arange(n)
        if query.site is not None:
            site, domains = query.site, self.domains
            indices = indices[np.array([site in domains[i] for i in indices.tolist()], dtype=bool)]
        return indices


class DetectionStore:
    """Thread-safe live view over one campaign's detection sink.

    The store owns the campaign-side reader state: the sink byte offset,
    the incrementally-indexed dataset, the memoised encodings, and the lock
    serialising refreshes against queries.  It is deliberately ignorant of
    HTTP — the route layer parses parameters into :class:`DetectionQuery`
    objects and frames the encoded pages and bodies this class returns.
    """

    def __init__(self, source, *, label: str | None = None) -> None:
        # A path is sniffed by magic bytes (extension for files not yet
        # created); a storage backend is tailed as given.
        self.storage = storage_for(source) if isinstance(source, (str, Path)) else source
        if self.storage.format != "columnar":
            raise StorageError(
                f"{self.storage.path} is JSONL, written only whole; a live campaign "
                f"streams into its working store {self.storage.path}.hbc"
            )
        self._label = label or self.storage.path.stem
        self._dataset = CrawlDataset(label=self._label)
        self._columns = _Columns()
        self._offset = 0
        #: How many times the sink shrank or changed under the store, each
        #: restarting it from byte zero.
        self.restarts = 0
        #: Bumped whenever a refresh absorbs records or restarts; rendered
        #: artifact bodies are kept for the current generation only.
        self.generation = 0
        self._rendered: dict[tuple[str, str], bytes] = {}
        self._lock = threading.RLock()

    # -- tailing ---------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Byte offset of the last fully-read record boundary."""
        with self._lock:
            return self._offset

    @property
    def count(self) -> int:
        """Detections currently indexed (call :meth:`refresh` first)."""
        with self._lock:
            return len(self._dataset)

    def refresh(self) -> int:
        """Fold any newly-flushed sink records into the dataset.

        Returns how many new detections were absorbed.  Cheap when nothing
        changed: the ``size()`` probe skips the file open entirely.  If the
        file shrank below the read offset or changed under it (a resume
        truncated its tail, or the campaign restarted), the store restarts
        and reads the file from byte zero in the same call.
        """
        with self._lock:
            size = self.storage.size()
            if size == self._offset:
                return 0
            new = None
            if size > self._offset:
                try:
                    new, self._offset = self.storage.read_new(self._offset)
                except StorageError:
                    if self._offset == 0:
                        raise
            if new is None:  # the file shrank or changed under the store
                self._reset()
                new, self._offset = self.storage.read_new(0)
            if new:
                self._dataset.extend(new)
                self._columns.extend(new)
                self._next_generation()
            return len(new)

    def _reset(self) -> None:
        self._dataset = CrawlDataset(label=self._label)
        self._columns = _Columns()
        self._offset = 0
        self.restarts += 1
        self._next_generation()

    def _next_generation(self) -> None:
        self.generation += 1
        self._rendered = {}

    def drained(self) -> bool:
        """Whether every byte currently in the sink has been indexed."""
        with self._lock:
            return self.storage.size() == self._offset

    # -- queries ---------------------------------------------------------------
    def query(self, query: DetectionQuery) -> dict[str, Any]:
        """Answer one filtered, paginated detections read.

        The column view yields the indices of every matching record in
        dataset order (only a ``site`` filter tests records one by one, and
        only those the other filters kept); only the
        ``offset:offset+limit`` slice of them is looked up.  ``items`` is
        the last key and holds each returned record's compact JSON bytes,
        exactly ``json.dumps(detection_to_dict(d), separators=(",", ":"))``,
        encoded on the record's first serve and reused after.  All of it
        runs inside the lock — a concurrent refresh cannot grow the columns
        mid-pagination.
        """
        with self._lock:
            columns = self._columns
            indices = columns.select(query)
            page = indices[query.offset : query.offset + query.limit].tolist()
            encoded, detections = columns.encoded, self._dataset.detections
            items = []
            for i in page:
                item = encoded[i]
                if item is None:
                    item = encoded[i] = compact_json(detection_to_dict(detections[i]))
                items.append(item)
            return {
                "total": len(indices),
                "offset": query.offset,
                "limit": query.limit,
                "count": len(page),
                "filters": query.describe(),
                "items": items,
            }

    # -- metrics ---------------------------------------------------------------
    def compute_artifact(self, name: str, **overrides: Any):
        """Compute one registered metric over the current dataset.

        Raises :class:`~repro.errors.UnknownMetricError` for names not in the
        registry and :class:`~repro.errors.MetricContextError` for metrics
        needing more than the dataset (the store is an offline context).
        """
        metric = get_metric(name)
        with self._lock:
            return metric.compute(AnalysisContext.offline(self._dataset), **overrides)

    def artifact(self, name: str, fmt: str = "json") -> bytes:
        """One registered metric's rendered body, newline-terminated.

        ``"text"`` is the exact ``repro analyze`` rendering; ``"json"`` is
        the compact JSON object of the result (``campaign`` is the store's
        label).  Each ``(name, fmt)`` body is computed and encoded once per
        :attr:`generation` and served from memory until a refresh absorbs
        records or restarts.
        """
        if fmt not in ("json", "text"):
            raise ServiceError(f"unknown artifact format {fmt!r}; expected json or text")
        with self._lock:
            body = self._rendered.get((name, fmt))
            if body is None:
                result = self.compute_artifact(name)
                if fmt == "text":
                    body = result.text.encode("utf-8")
                else:
                    body = compact_json(
                        {
                            "campaign": self._label,
                            "name": result.name,
                            "title": result.title,
                            "ref": result.ref,
                            "params": _jsonable(result.params),
                            "data": _jsonable(result.data),
                            "text": result.text,
                        }
                    )
                body = self._rendered[(name, fmt)] = body + b"\n"
            return body

    def snapshot(self, names: Sequence[str]) -> dict[str, str]:
        """Render several metrics' text at one consistent dataset state.

        The lock spans all of them, so a snapshot taken while a crawl
        streams in is internally consistent — the same guarantee one
        ``analyze --watch`` refresh gives.  The texts come from the same
        per-generation bodies ``artifact(name, "text")`` serves.
        """
        with self._lock:
            return {name: self.artifact(name, "text")[:-1].decode("utf-8") for name in names}

    def summary(self) -> dict[str, Any] | None:
        """The Table-1 style dataset summary (``None`` while still empty)."""
        with self._lock:
            if not len(self._dataset):
                return None
            return self._dataset.summary()
