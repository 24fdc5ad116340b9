"""The small files of a campaign directory, and the one way each is written and read.

A campaign directory (a recrawl daemon's ``--dir``, or one service campaign
under ``--data-dir``) holds the detection store (:mod:`repro.crawler.colstore`)
and the small files :class:`CampaignDir` names: ``crawl.ckpt``,
``daemon.json``, ``campaign.json``, the daemon's per-day snapshots
``metrics/day-00002.json`` (beside its partitions ``partitions/day-00002.hbc``),
and the ``alerts.jsonl`` and ``faults.jsonl`` logs.  This module writes and
reads the small files through three operations:

* :func:`write_json` replaces a whole JSON file atomically: a temp file
  beside it, written, fsynced, then renamed over it (and removed if any
  step fails), so a crash leaves the old file or the new one.
* :func:`append_jsonl` appends key-sorted JSON lines to a log, then flushes
  and fsyncs.  A torn last line (a writer killed mid-append) is terminated
  first, so it stays one corrupt line and the new records stay whole.
* :func:`read_json` and :func:`tail_jsonl` share one decode policy: a record
  is UTF-8 JSON whose top level is an object.  A whole file that cannot be
  opened or is not a record raises :class:`StorageError`.  In a log each
  newline-terminated line is decoded alone: a corrupt one is skipped and the
  offset moves past it; a torn last line is not a record yet, so the offset
  stops before it.

Each caller decides what a damaged file costs: an unreadable checkpoint
refuses the resume, an unreadable snapshot is re-derived, an unreadable
``campaign.json`` is rewritten from memory, and a log loses only its
corrupt lines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import StorageError

__all__ = ["CampaignDir", "append_jsonl", "read_json", "tail_jsonl", "write_json"]


class CampaignDir:
    """The paths of one campaign directory's files."""

    def __init__(self, root: str | Path, store_format: str) -> None:
        self.root = Path(root)
        #: The suffix of the detections a campaign hands out, and of its partitions.
        self.suffix = "hbc" if store_format == "columnar" else "jsonl"
        self.sink = self.root / f"detections.{self.suffix}"
        self.checkpoint = self.root / "crawl.ckpt"
        self.manifest = self.root / "daemon.json"
        self.record = self.root / "campaign.json"
        self.metrics = self.root / "metrics"
        self.partitions = self.root / "partitions"
        self.alerts = self.root / "alerts.jsonl"
        self.faults = self.root / "faults.jsonl"

    def snapshot(self, day: int) -> Path:
        return self.metrics / f"day-{day:05d}.json"

    def partition(self, day: int) -> Path:
        return self.partitions / f"day-{day:05d}.{self.suffix}"


def write_json(path: str | Path, record: Mapping) -> None:
    """Replace ``path`` atomically with ``record``; raises ``OSError``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    payload = json.dumps(record, sort_keys=True, indent=2).encode("utf-8")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def append_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """Append ``records`` to the log at ``path``, one line each; raises ``OSError``."""
    payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode("utf-8")
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end and os.pread(handle.fileno(), 1, end - 1) != b"\n":
            payload = b"\n" + payload
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def _decode(raw: bytes) -> dict:
    """One record under the decode policy; ``ValueError`` (or ``RecursionError``) if not."""
    record = json.loads(raw.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError(f"the top level is a JSON {type(record).__name__}, not an object")
    return record


def read_json(path: str | Path) -> dict:
    """The record in the file at ``path``; :class:`StorageError` if unreadable."""
    try:
        return _decode(Path(path).read_bytes())
    except (OSError, ValueError, RecursionError) as exc:
        raise StorageError(f"could not read {path}: {exc}") from exc


def tail_jsonl(path: str | Path, offset: int = 0) -> tuple[list[dict], int]:
    """The log's records in whole lines past ``offset``, and the offset after them.

    A log that cannot be opened has no records yet.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    end = chunk.rfind(b"\n") + 1
    records = []
    for line in chunk[:end].split(b"\n"):
        try:
            records.append(_decode(line))
        except (ValueError, RecursionError):
            continue  # blank, corrupt, or not an object
    return records, offset + end
