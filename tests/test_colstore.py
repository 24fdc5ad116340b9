"""Columnar detection store: format, round-trips, parity, crash recovery.

The contract under test is the one the JSONL reference storage defines:
``ColumnarDetectionSink`` / ``ColumnarStorage`` must behave observably like
``DetectionSink`` / ``CrawlStorage`` (same offsets-at-boundaries, tailing,
recovery and resume semantics), and every read-side artefact must be
indistinguishable across the two backends.  JSONL stays canonical for bytes:
converting a columnar campaign to JSONL must reproduce the exact bytes a
direct JSONL run would have written.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import available_metrics, compute_metric
from repro.crawler.colstore import (
    ColumnarDataset,
    ColumnarDetectionSink,
    ColumnarStorage,
    ColumnarTable,
    sniff_format,
    storage_for,
)
from repro.crawler.crawler import CrawlConfig
from repro.crawler.storage import STORE_FORMATS, CrawlStorage
from repro.errors import ConfigurationError, EmptyDatasetError, ReproError, StorageError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner

from repro.testing import interrupted_then_resumed, uninterrupted_baseline


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One test-scale campaign streamed through both storage backends.

    ``jsonl`` and ``columnar`` hold byte-for-byte what a real ``run --save``
    writes with each ``--store-format``; ``detections`` is the shared record
    list both files encode.
    """
    tmp = tmp_path_factory.mktemp("colstore-campaign")
    config = ExperimentConfig.test_scale()
    jsonl = CrawlStorage(tmp / "campaign.jsonl")
    ExperimentRunner(config).run(use_cache=False, storage=jsonl)
    columnar = ColumnarStorage(tmp / "campaign.hbc")
    ExperimentRunner(replace(config, store_format="columnar")).run(
        use_cache=False, storage=columnar
    )
    return SimpleNamespace(
        dir=tmp, jsonl=jsonl, columnar=columnar, detections=jsonl.load()
    )


@pytest.fixture
def records(campaign):
    return campaign.detections


# ---------------------------------------------------------------------------
# Format detection and from_path dispatch


class TestFormatDetection:
    def test_sniffs_by_magic_bytes(self, campaign):
        assert sniff_format(campaign.jsonl.path) == "jsonl"
        assert sniff_format(campaign.columnar.path) == "columnar"

    def test_extension_is_ignored_when_the_file_has_content(self, campaign, tmp_path):
        disguised = tmp_path / "actually-columnar.jsonl"
        disguised.write_bytes(campaign.columnar.path.read_bytes())
        assert sniff_format(disguised) == "columnar"

    def test_missing_or_empty_file_falls_back_to_extension(self, tmp_path):
        assert sniff_format(tmp_path / "new.jsonl") == "jsonl"
        assert sniff_format(tmp_path / "new.hbc") == "columnar"
        (tmp_path / "empty.hbc").write_bytes(b"")
        assert sniff_format(tmp_path / "empty.hbc") == "columnar"

    def test_unrecognised_content_raises_a_repro_error(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"\x89PNG\r\n\x1a\nnot a store")
        with pytest.raises(StorageError, match="not a recognised detection store"):
            sniff_format(bogus)
        assert issubclass(StorageError, ReproError)

    def test_unknown_columnar_version_raises_clearly(self, tmp_path):
        future = tmp_path / "future.hbc"
        future.write_bytes(b"HBCOL9\r\n" + b"\x00" * 64)
        assert sniff_format(future) == "columnar"
        with pytest.raises(StorageError, match="unsupported columnar store version"):
            ColumnarTable(future)
        with pytest.raises(StorageError, match="unsupported columnar store version"):
            ColumnarStorage(future).load()

    def test_from_path_dispatches_to_the_right_dataset(self, campaign):
        plain = CrawlDataset.from_path(campaign.jsonl.path)
        lazy = CrawlDataset.from_path(campaign.columnar.path)
        assert type(plain) is CrawlDataset
        assert isinstance(lazy, ColumnarDataset)
        assert len(plain) == len(lazy) == len(campaign.detections)

    def test_from_path_on_a_corrupt_file_raises_a_repro_error(self, tmp_path):
        bogus = tmp_path / "bogus.dat"
        bogus.write_bytes(b"\x00\x01\x02 definitely not a store")
        with pytest.raises(ReproError):
            CrawlDataset.from_path(bogus)

    def test_storage_for_builds_the_matching_backend(self, tmp_path):
        assert isinstance(storage_for(tmp_path / "a.jsonl"), CrawlStorage)
        assert isinstance(storage_for(tmp_path / "a.hbc"), ColumnarStorage)
        assert isinstance(storage_for(tmp_path / "x.jsonl", format="columnar"), ColumnarStorage)
        with pytest.raises(StorageError, match="unknown detection store format"):
            storage_for(tmp_path / "a.jsonl", format="parquet")


# ---------------------------------------------------------------------------
# Round-trip equivalence: JSONL is canonical for bytes


class TestRoundTrips:
    def test_columnar_to_jsonl_matches_a_direct_jsonl_run(self, campaign, tmp_path):
        """The headline contract: convert(columnar campaign) == jsonl campaign."""
        out = CrawlStorage(tmp_path / "converted.jsonl")
        out.save(campaign.columnar.iter_load())
        assert out.path.read_bytes() == campaign.jsonl.path.read_bytes()

    def test_jsonl_to_columnar_and_back_restores_exact_bytes(self, campaign, tmp_path):
        middle = ColumnarStorage(tmp_path / "middle.hbc")
        middle.save(campaign.jsonl.iter_load())
        back = CrawlStorage(tmp_path / "back.jsonl")
        back.save(middle.iter_load())
        assert back.path.read_bytes() == campaign.jsonl.path.read_bytes()

    def test_save_load_round_trip(self, records, tmp_path):
        storage = ColumnarStorage(tmp_path / "rt.hbc")
        assert storage.save(records) == len(records)
        assert storage.load() == records

    def test_iter_load_streams_the_same_records(self, records, tmp_path):
        storage = ColumnarStorage(tmp_path / "rt.hbc")
        storage.save(records)
        assert list(storage.iter_load()) == records

    def test_append_extends_previous_content(self, records, tmp_path):
        storage = ColumnarStorage(tmp_path / "rt.hbc")
        storage.save(records[:100])
        assert storage.append(records[100:]) == len(records) - 100
        assert storage.load() == records

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError, match="not found"):
            ColumnarStorage(tmp_path / "absent.hbc").load()

    def test_empty_file_is_an_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.hbc"
        path.write_bytes(b"")
        assert ColumnarStorage(path).load() == []
        dataset = CrawlDataset.from_path(path)
        assert len(dataset) == 0
        with pytest.raises(EmptyDatasetError):
            dataset.summary()

    def test_chunking_does_not_change_the_records(self, records, tmp_path):
        """Columnar bytes depend on the flush interval (unlike JSONL); the
        decoded records and the converted JSONL bytes must not."""
        blobs = []
        for flush_every in (1, 7, 64):
            path = tmp_path / f"chunked-{flush_every}.hbc"
            with ColumnarDetectionSink(path, flush_every=flush_every) as sink:
                sink.write_many(records[:50])
            assert ColumnarStorage(path).load() == records[:50]
            blobs.append(path.read_bytes())
        assert blobs[0] != blobs[1]  # chunk boundaries genuinely differ


# ---------------------------------------------------------------------------
# Metric parity: every offline artefact identical across backends


class TestMetricParity:
    def test_every_offline_metric_renders_identically(self, campaign):
        plain = AnalysisContext.offline(CrawlDataset.from_path(campaign.jsonl.path))
        lazy = AnalysisContext.offline(CrawlDataset.from_path(campaign.columnar.path))
        names = sorted(available_metrics(frozenset({"dataset"})))
        assert names, "no offline metrics registered?"
        for name in names:
            assert (
                compute_metric(name, plain).text == compute_metric(name, lazy).text
            ), f"metric {name} diverged between storage backends"

    def test_summary_is_computed_without_materialising(self, campaign):
        reference = CrawlDataset.from_path(campaign.jsonl.path).summary()
        dataset = ColumnarDataset.open(campaign.columnar.path)
        assert dataset.summary() == reference
        assert dataset.crawl_days() == CrawlDataset.from_path(campaign.jsonl.path).crawl_days()
        assert dataset._records is None, "summary() must stay on the columnar fast path"
        assert len(dataset) == len(campaign.detections)

    def test_materialised_records_are_exact(self, campaign):
        dataset = ColumnarDataset.open(campaign.columnar.path)
        assert dataset.detections == campaign.detections
        # and the summary still matches after switching to the generic path
        assert dataset.summary() == CrawlDataset.from_path(campaign.jsonl.path).summary()

    def test_extend_after_open_keeps_indices_consistent(self, campaign, records):
        dataset = ColumnarDataset.open(campaign.columnar.path)
        before = dataset.summary()
        dataset.extend(records[:3])
        after = dataset.summary()
        assert after["page_visits"] == before["page_visits"] + 3
        twin = CrawlDataset.from_detections(records + records[:3])
        assert after == twin.summary()


# ---------------------------------------------------------------------------
# Sink contract (mirrors TestDetectionSink / TestBufferedSink)


class TestColumnarSink:
    def test_fresh_sink_truncates_previous_content(self, records, tmp_path):
        path = tmp_path / "sink.hbc"
        ColumnarStorage(path).save(records[:20])
        with ColumnarDetectionSink(path) as sink:
            sink.write_many(records[:5])
        assert ColumnarStorage(path).load() == records[:5]

    def test_offset_is_zero_before_the_first_flush(self, records, tmp_path):
        with ColumnarDetectionSink(tmp_path / "sink.hbc", flush_every=64) as sink:
            assert sink.offset == 0
            sink.write(records[0])
            assert sink.offset == 0  # buffered, nothing flushed yet
            sink.flush()
            assert sink.offset == (tmp_path / "sink.hbc").stat().st_size

    def test_offset_excludes_the_footer(self, records, tmp_path):
        path = tmp_path / "sink.hbc"
        with ColumnarDetectionSink(path) as sink:
            sink.write_many(records[:10])
            sink.flush()
            data_end = sink.offset
        assert path.stat().st_size > data_end  # footer follows the data

    def test_writes_are_buffered_until_the_flush_interval(self, records, tmp_path):
        path = tmp_path / "sink.hbc"
        with ColumnarDetectionSink(path, flush_every=5) as sink:
            for detection in records[:4]:
                sink.write(detection)
            assert path.stat().st_size == 0
            sink.write(records[4])
            assert path.stat().st_size > 0
            assert sink.flushes == 1

    def test_close_flushes_the_tail_and_writes_the_footer(self, records, tmp_path):
        path = tmp_path / "sink.hbc"
        sink = ColumnarDetectionSink(path, flush_every=100)
        sink.write_many(records[:7])
        sink.close()
        table = ColumnarTable(path)
        assert table.n_records == 7
        # A footer-indexed open and a header-walk open agree.
        assert ColumnarStorage(path).load() == records[:7]

    def test_write_after_close_raises(self, records, tmp_path):
        sink = ColumnarDetectionSink(tmp_path / "sink.hbc")
        sink.write(records[0])
        sink.close()
        with pytest.raises(StorageError, match="closed"):
            sink.write(records[1])

    def test_invalid_flush_interval_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="flush_every"):
            ColumnarDetectionSink(tmp_path / "sink.hbc", flush_every=0)

    def test_entering_sink_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "sink.hbc"
        with ColumnarDetectionSink(path):
            pass
        assert path.exists()

    def test_noop_append_reopen_restores_identical_bytes(self, records, tmp_path):
        path = tmp_path / "sink.hbc"
        with ColumnarDetectionSink(path, flush_every=3) as sink:
            sink.write_many(records[:10])
        before = path.read_bytes()
        with ColumnarDetectionSink(path, append=True, flush_every=3):
            pass
        assert path.read_bytes() == before

    def test_append_resumes_the_dictionary_state(self, records, tmp_path):
        """Strings interned before the reopen must not be re-emitted after."""
        path = tmp_path / "sink.hbc"
        one_shot = tmp_path / "oneshot.hbc"
        with ColumnarDetectionSink(path, flush_every=3) as sink:
            sink.write_many(records[:9])
        with ColumnarDetectionSink(path, append=True, flush_every=3) as sink:
            sink.write_many(records[9:20])
        with ColumnarDetectionSink(one_shot, flush_every=3) as sink:
            sink.write_many(records[:20])
        assert path.read_bytes() == one_shot.read_bytes()

    def test_exit_does_not_mask_the_body_exception(self, records, tmp_path):
        with pytest.raises(ValueError, match="boom"):
            with ColumnarDetectionSink(tmp_path / "sink.hbc") as sink:
                sink.write(records[0])
                raise ValueError("boom")
        # the sink still closed cleanly behind the exception
        assert ColumnarStorage(tmp_path / "sink.hbc").load() == records[:1]

    def test_append_to_a_torn_file_refuses_loudly(self, records, tmp_path):
        path = tmp_path / "torn.hbc"
        with ColumnarDetectionSink(path, flush_every=5) as sink:
            sink.write_many(records[:10])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])  # tear the footer
        with pytest.raises(StorageError, match="torn write"):
            ColumnarDetectionSink(path, append=True).offset


# ---------------------------------------------------------------------------
# read_new tailing contract (mirrors TestReadNew)


class TestColumnarReadNew:
    def test_tail_reads_resume_from_the_returned_offset(self, records, tmp_path):
        path = tmp_path / "tail.hbc"
        storage = ColumnarStorage(path)
        with storage.open_sink(flush_every=4) as sink:
            sink.write_many(records[:4])
            sink.flush()
            first, offset = storage.read_new(0)
            assert first == records[:4]
            sink.write_many(records[4:12])
            sink.flush()
            second, offset = storage.read_new(offset)
            assert second == records[4:12]

    def test_partial_trailing_chunk_is_left_for_the_next_read(self, records, tmp_path):
        path = tmp_path / "tail.hbc"
        storage = ColumnarStorage(path)
        with storage.open_sink(flush_every=4) as sink:
            sink.write_many(records[:4])
            sink.flush()
            _, offset = storage.read_new(0)
            sink.write_many(records[4:8])
            sink.flush()
        complete = path.read_bytes()
        path.write_bytes(complete[: offset + 11])  # mid-second-chunk tear
        deferred, offset2 = storage.read_new(offset)
        assert deferred == [] and offset2 == offset
        path.write_bytes(complete)
        rest, _ = storage.read_new(offset2)
        assert rest == records[4:8]

    def test_footer_is_consumed_so_the_store_drains(self, records, tmp_path):
        path = tmp_path / "tail.hbc"
        storage = ColumnarStorage(path)
        with storage.open_sink(flush_every=4) as sink:
            sink.write_many(records[:8])
        got, offset = storage.read_new(0)
        assert got == records[:8]
        assert offset == path.stat().st_size
        again, offset2 = storage.read_new(offset)
        assert again == [] and offset2 == offset

    def test_a_fresh_reader_can_join_at_any_chunk_boundary(self, records, tmp_path):
        path = tmp_path / "tail.hbc"
        writer = ColumnarStorage(path)
        with writer.open_sink(flush_every=4) as sink:
            sink.write_many(records[:4])
            sink.flush()
            boundary = sink.offset
            sink.write_many(records[4:8])
            sink.flush()
            late_reader = ColumnarStorage(path)
            got, _ = late_reader.read_new(boundary)
            assert got == records[4:8]

    def test_off_boundary_offset_fails_loudly(self, records, tmp_path):
        path = tmp_path / "tail.hbc"
        ColumnarStorage(path).save(records[:8])
        with pytest.raises(StorageError, match="not a chunk boundary"):
            ColumnarStorage(path).read_new(17)

    def test_missing_file_yields_nothing(self, tmp_path):
        assert ColumnarStorage(tmp_path / "absent.hbc").read_new(0) == ([], 0)

    def test_negative_offset_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="negative"):
            ColumnarStorage(tmp_path / "tail.hbc").read_new(-1)

    def test_shrunken_file_fails_loudly(self, records, tmp_path):
        path = tmp_path / "tail.hbc"
        storage = ColumnarStorage(path)
        storage.save(records[:8])
        _, offset = storage.read_new(0)
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="shrank"):
            storage.read_new(offset)

    def test_garbage_file_fails_at_offset_zero(self, tmp_path):
        path = tmp_path / "tail.hbc"
        path.write_bytes(b"this is not a columnar store at all")
        with pytest.raises(StorageError):
            ColumnarStorage(path).read_new(0)

    def test_concurrent_writer_and_tailing_reader(self, records, tmp_path):
        """One thread streams through the sink while another tails the file;
        the reader must assemble exactly the written sequence."""
        path = tmp_path / "live.hbc"
        storage = ColumnarStorage(path)
        seen: list = []
        errors: list = []
        done = threading.Event()

        def tail():
            reader = ColumnarStorage(path)
            offset = 0
            try:
                while True:
                    new, offset = reader.read_new(offset)
                    seen.extend(new)
                    if done.is_set() and offset == reader.size():
                        return
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)

        thread = threading.Thread(target=tail)
        thread.start()
        try:
            with storage.open_sink(flush_every=3) as sink:
                for detection in records[:60]:
                    sink.write(detection)
                    time.sleep(0.0005)
        finally:
            done.set()
            thread.join(timeout=30)
        assert not errors
        assert seen == records[:60]


# ---------------------------------------------------------------------------
# recover_to contract (mirrors TestRecoverTo)


class TestColumnarRecoverTo:
    def _file_with_boundary(self, records, tmp_path):
        path = tmp_path / "rec.hbc"
        storage = ColumnarStorage(path)
        with storage.open_sink(flush_every=4) as sink:
            sink.write_many(records[:4])
            sink.flush()
            boundary = sink.offset
            sink.write_many(records[4:12])
        return path, storage, boundary

    def test_recovers_prefix_and_truncates_the_tail(self, records, tmp_path):
        path, storage, boundary = self._file_with_boundary(records, tmp_path)
        kept = storage.recover_to(boundary)
        assert kept == records[:4]
        assert path.stat().st_size == boundary
        assert storage.load() == records[:4]

    def test_mid_chunk_offset_fails_loudly(self, records, tmp_path):
        _, storage, boundary = self._file_with_boundary(records, tmp_path)
        with pytest.raises(StorageError, match="not a chunk boundary"):
            storage.recover_to(boundary + 3)

    def test_offset_zero_empties_the_file(self, records, tmp_path):
        path, storage, _ = self._file_with_boundary(records, tmp_path)
        assert storage.recover_to(0) == []
        assert path.stat().st_size == 0

    def test_offset_zero_on_a_missing_file_is_a_fresh_start(self, tmp_path):
        assert ColumnarStorage(tmp_path / "absent.hbc").recover_to(0) == []

    def test_missing_file_with_recorded_bytes_fails_loudly(self, tmp_path):
        with pytest.raises(StorageError, match="does not exist"):
            ColumnarStorage(tmp_path / "absent.hbc").recover_to(128)

    def test_file_truncated_below_offset_fails_loudly(self, records, tmp_path):
        path, storage, boundary = self._file_with_boundary(records, tmp_path)
        path.write_bytes(path.read_bytes()[: boundary // 2])
        with pytest.raises(StorageError, match="holds only"):
            storage.recover_to(boundary)

    def test_recovery_drops_a_torn_tail(self, records, tmp_path):
        path, storage, boundary = self._file_with_boundary(records, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: boundary + 13])  # torn write past the boundary
        kept = storage.recover_to(boundary)
        assert kept == records[:4]
        assert path.stat().st_size == boundary
        # a resumed sink can append cleanly after recovery
        with storage.open_sink(append=True, flush_every=4) as sink:
            assert sink.offset == boundary
            sink.write_many(records[4:8])
        assert storage.load() == records[:8]


# ---------------------------------------------------------------------------
# Crash injection: columnar resume byte-identity


class TestColumnarCrashResume:
    @pytest.mark.parametrize("backend_name,workers", [
        ("serial", 4), ("process", 2), ("process", 4),
    ])
    def test_resumed_columnar_equals_one_shot_byte_for_byte(
        self, environment, detector, crash_sites, tmp_path, backend_name, workers
    ):
        config = CrawlConfig(seed=5, workers=workers, backend=backend_name)
        expected, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, store_format="columnar",
        )
        result, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=2, store_format="columnar",
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()
        assert result.detections == expected.detections

    def test_resumed_columnar_converts_to_the_jsonl_baseline(
        self, environment, detector, crash_sites, tmp_path
    ):
        """End to end: crash + resume on the columnar sink, then convert —
        the JSONL bytes must equal a direct JSONL crawl's."""
        config = CrawlConfig(seed=5, workers=3, backend="process")
        _, jsonl_baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path / "jsonl",
        )
        _, columnar = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path / "col", fail_after=2, store_format="columnar",
        )
        converted = CrawlStorage(tmp_path / "converted.jsonl")
        converted.save(columnar.iter_load())
        assert converted.path.read_bytes() == jsonl_baseline.path.read_bytes()


# ---------------------------------------------------------------------------
# Config / runner threading


class TestStoreFormatConfig:
    def test_store_formats_constant(self):
        assert STORE_FORMATS == ("jsonl", "columnar")
        assert CrawlStorage.format == "jsonl"
        assert ColumnarStorage.format == "columnar"

    def test_invalid_store_format_rejected(self):
        with pytest.raises(ConfigurationError, match="store_format"):
            ExperimentConfig(store_format="parquet")

    def test_fingerprint_records_only_non_default_formats(self, small_population):
        plain = ExperimentRunner(ExperimentConfig.test_scale())
        fingerprint = plain.campaign_fingerprint(small_population)
        assert "store_format" not in fingerprint  # old jsonl checkpoints keep resuming
        columnar = ExperimentRunner(
            replace(ExperimentConfig.test_scale(), store_format="columnar")
        )
        assert columnar.campaign_fingerprint(small_population)["store_format"] == "columnar"

    def test_runner_rejects_a_mismatched_storage(self, tmp_path):
        config = replace(ExperimentConfig.test_scale(), store_format="columnar")
        with pytest.raises(ConfigurationError, match="store_format"):
            ExperimentRunner(config).run(
                use_cache=False, storage=CrawlStorage(tmp_path / "a.jsonl")
            )
        with pytest.raises(ConfigurationError, match="store_format"):
            ExperimentRunner(ExperimentConfig.test_scale()).run(
                use_cache=False, storage=ColumnarStorage(tmp_path / "a.hbc")
            )
