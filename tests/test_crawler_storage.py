"""Unit tests for crawl dataset persistence."""

import json

import pytest

from repro.crawler.colstore import storage_for
from repro.crawler.storage import STORE_FORMATS, CrawlStorage, detection_from_dict, detection_to_dict
from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.errors import StorageError
from repro.models import HBFacet


def sample_detection(domain="pub.example", day=0):
    bid = ObservedBid(partner="AppNexus", bidder_code="appnexus", slot_code="s1",
                      cpm=0.31, size="300x250", latency_ms=210.0, won=True)
    auction = ObservedAuction(slot_code="s1", size="300x250", bids=(bid,),
                              start_ms=100.0, end_ms=650.0, facet=HBFacet.HYBRID)
    return SiteDetection(
        domain=domain, rank=42, hb_detected=True, facet=HBFacet.HYBRID, library="prebid.js",
        partners=("DFP", "AppNexus"), auctions=(auction,),
        partner_latencies_ms={"AppNexus": 210.0}, total_latency_ms=550.0,
        detection_channels=("dom-events", "web-requests"), crawl_day=day, page_load_ms=4200.0,
    )


@pytest.fixture(params=STORE_FORMATS)
def any_storage(request, tmp_path):
    """An empty dataset file in each store format: the sink contract is shared."""
    suffix = "hbc" if request.param == "columnar" else "jsonl"
    return storage_for(tmp_path / f"crawl.{suffix}", format=request.param)


class FlakyHandle:
    """A sink file handle whose first write fails, then passes through."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False

    def write(self, data):
        if not self.failed:
            self.failed = True
            raise OSError("transient disk error")
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestSerialisation:
    def test_round_trip_preserves_everything(self):
        original = sample_detection()
        restored = detection_from_dict(detection_to_dict(original))
        assert restored == original

    def test_non_hb_detection_round_trips(self):
        original = SiteDetection(domain="plain.example", rank=7, hb_detected=False)
        assert detection_from_dict(detection_to_dict(original)) == original

    def test_malformed_record_raises_storage_error(self):
        with pytest.raises(StorageError):
            detection_from_dict({"domain": "x.example"})


class TestCrawlStorage:
    def test_save_and_load_round_trip(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        storage = CrawlStorage(path)
        detections = [sample_detection(), sample_detection("other.example", day=3)]
        assert storage.save(detections) == 2
        loaded = storage.load()
        assert loaded == detections

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        storage = CrawlStorage(path)
        storage.save([sample_detection()])
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        assert len(storage.load()) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            CrawlStorage(tmp_path / "missing.jsonl").load()

    def test_invalid_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        path.write_text('{"domain": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(StorageError):
            CrawlStorage(path).load()

    def test_saved_file_is_valid_json_lines(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        CrawlStorage(path).save([sample_detection()])
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)


class TestEdgeCaseRoundTrips:
    def test_timed_out_page_round_trips(self, tmp_path):
        """A killed-at-60s page: nothing observed, only the load bookkeeping."""
        detection = SiteDetection(
            domain="slow.example", rank=9_001, hb_detected=False,
            crawl_day=3, page_load_ms=61_204.5,
        )
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        storage.save([detection])
        assert storage.load() == [detection]

    def test_hb_detection_with_no_auctions_or_partners_round_trips(self, tmp_path):
        """DOM events alone can flag HB before any auction/partner is seen."""
        detection = SiteDetection(
            domain="quiet.example", rank=12, hb_detected=True, facet=HBFacet.CLIENT_SIDE,
            library="prebid.js", partners=(), auctions=(),
            detection_channels=("dom-events",),
        )
        restored = detection_from_dict(detection_to_dict(detection))
        assert restored == detection
        assert restored.partners == ()
        assert restored.auctions == ()
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        storage.save([detection])
        assert storage.load() == [detection]

    def test_auction_with_no_bids_round_trips(self, tmp_path):
        auction = ObservedAuction(slot_code="s1", size=None, bids=(),
                                  start_ms=10.0, end_ms=20.0, facet=HBFacet.CLIENT_SIDE)
        detection = SiteDetection(
            domain="nobids.example", rank=5, hb_detected=True, facet=HBFacet.CLIENT_SIDE,
            auctions=(auction,),
        )
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        storage.save([detection])
        assert storage.load() == [detection]


class TestDetectionSink:
    def detections(self):
        return [sample_detection(f"site{i}.example", day=i) for i in range(6)]

    def test_chunked_writes_equal_one_shot_save(self, tmp_path):
        detections = self.detections()
        chunked_path = tmp_path / "chunked.jsonl"
        with CrawlStorage(chunked_path).open_sink() as sink:
            sink.write_many(detections[:2])
            sink.write(detections[2])
            sink.write_many(detections[3:])
        at_once_path = tmp_path / "at_once.jsonl"
        CrawlStorage(at_once_path).save(detections)
        assert chunked_path.read_bytes() == at_once_path.read_bytes()

    def test_sink_counts_written_records(self, tmp_path):
        detections = self.detections()
        with CrawlStorage(tmp_path / "crawl.jsonl").open_sink() as sink:
            assert sink.write_many(detections[:4]) == 4
            sink.write(detections[4])
            assert sink.count == 5

    def test_fresh_sink_truncates_previous_content(self, tmp_path):
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        storage.save(self.detections())
        with storage.open_sink() as sink:
            sink.write(sample_detection())
        assert len(storage.load()) == 1

    def test_entering_sink_creates_parent_directories(self, tmp_path):
        nested = tmp_path / "deep" / "run" / "crawl.jsonl"
        with CrawlStorage(nested).open_sink() as sink:
            pass
        assert nested.exists()
        assert sink.count == 0

    def test_write_after_close_raises_instead_of_truncating(self, any_storage):
        sink = any_storage.open_sink()
        sink.write(sample_detection())
        sink.close()
        with pytest.raises(StorageError, match="closed"):
            sink.write(sample_detection("late.example"))
        assert any_storage.load() == [sample_detection()]


class TestBufferedSink:
    def detections(self, n=6):
        return [sample_detection(f"site{i}.example", day=i) for i in range(n)]

    def test_writes_are_buffered_until_the_flush_interval(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        with CrawlStorage(path).open_sink(flush_every=4) as sink:
            for detection in self.detections(3):
                sink.write(detection)
            assert path.read_text(encoding="utf-8") == ""  # still in memory
            assert sink.flushes == 0
            sink.write(self.detections(4)[3])  # 4th record crosses the interval
            assert sink.flushes == 1
            assert len(path.read_text(encoding="utf-8").splitlines()) == 4
        assert len(CrawlStorage(path).load()) == 4

    def test_flush_interval_does_not_change_the_bytes(self, tmp_path):
        detections = self.detections(11)
        paths = []
        for flush_every in (1, 3, 64):
            path = tmp_path / f"flush{flush_every}.jsonl"
            with CrawlStorage(path).open_sink(flush_every=flush_every) as sink:
                sink.write_many(detections)
            paths.append(path)
        reference = paths[0].read_bytes()
        assert all(path.read_bytes() == reference for path in paths[1:])

    def test_close_flushes_the_tail(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        sink = CrawlStorage(path).open_sink(flush_every=100)
        sink.write_many(self.detections(5))
        sink.close()
        assert len(CrawlStorage(path).load()) == 5
        sink.close()  # idempotent

    def test_explicit_flush_mid_stream(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        with CrawlStorage(path).open_sink(flush_every=100) as sink:
            sink.write_many(self.detections(2))
            sink.flush()
            assert len(CrawlStorage(path).load()) == 2
            sink.flush()  # nothing buffered: no-op
            assert sink.flushes == 1

    def test_flush_every_one_is_unbuffered(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        with CrawlStorage(path).open_sink(flush_every=1) as sink:
            sink.write(sample_detection())
            assert sink.flushes == 1
            assert len(CrawlStorage(path).load()) == 1

    def test_invalid_flush_interval_rejected(self, any_storage):
        with pytest.raises(StorageError, match="flush_every"):
            any_storage.open_sink(flush_every=0)

    def test_retried_write_after_a_failed_auto_flush_lands_once(self, any_storage, tmp_path):
        """A write whose automatic flush fails leaves the sink as it was, so
        retrying the same record writes it exactly once."""
        detections = self.detections(4)
        with any_storage.open_sink(flush_every=2) as sink:
            sink._handle = FlakyHandle(sink._handle)
            sink.write(detections[0])
            with pytest.raises(StorageError, match="transient"):
                sink.write(detections[1])
            assert sink.count == 1 and sink.flushes == 0
            sink.write_many(detections[1:])
        assert sink.count == 4 and sink.flushes == 2
        clean = storage_for(tmp_path / f"clean{any_storage.path.suffix}", format=any_storage.format)
        with clean.open_sink(flush_every=2) as clean_sink:
            clean_sink.write_many(detections)
        assert any_storage.path.read_bytes() == clean.path.read_bytes()
        assert any_storage.load() == detections


class TestSinkOffset:
    def detections(self, n=6):
        return [sample_detection(f"site{i}.example", day=i) for i in range(n)]

    def test_offset_tracks_flushed_bytes_only(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        with CrawlStorage(path).open_sink(flush_every=3) as sink:
            assert sink.offset == 0
            sink.write_many(self.detections(2))
            assert sink.offset == 0  # still buffered
            sink.write(self.detections(3)[2])  # crosses the interval
            assert sink.offset == path.stat().st_size > 0
            sink.write(self.detections(4)[3])
            buffered_at = sink.offset
            sink.flush()
            assert sink.offset == path.stat().st_size > buffered_at

    def test_fresh_sink_offset_ignores_stale_content(self, tmp_path):
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        storage.save(self.detections(2))
        sink = storage.open_sink()  # "w" mode will truncate on open
        assert sink.offset == 0
        sink.close()


class TestSinkCloseSafety:
    """close() stays idempotent and never masks a mid-crawl error."""

    class ExplodingHandle:
        """Fails every write; closing it still releases the real file."""

        def __init__(self, inner):
            self.inner = inner
            self.closed = False

        def write(self, data):
            raise OSError("disk full")

        def flush(self):  # pragma: no cover - never reached past write
            pass

        def close(self):
            self.closed = True
            self.inner.close()

    def explode(self, sink):
        handle = self.ExplodingHandle(sink._ensure_open())
        sink._handle = handle
        return handle

    def test_close_twice_after_a_flush_failure(self, any_storage):
        sink = any_storage.open_sink(flush_every=100)
        sink.write(sample_detection())
        handle = self.explode(sink)
        with pytest.raises(StorageError, match="disk full"):
            sink.close()
        assert handle.closed  # the OS handle was released despite the failure
        sink.close()  # second close after the error: clean no-op
        with pytest.raises(StorageError):
            sink.write(sample_detection())  # and the sink stays closed

    def test_exit_does_not_mask_the_body_exception(self, any_storage):
        """A crawl error inside `with sink:` must surface even when the final
        close-flush fails too (e.g. the disk that killed the crawl is full)."""
        with pytest.raises(ZeroDivisionError):
            with any_storage.open_sink(flush_every=100) as sink:
                sink.write(sample_detection())
                self.explode(sink)
                1 / 0
        assert sink._closed

    def test_exit_still_raises_close_failures_on_a_clean_body(self, any_storage):
        with pytest.raises(StorageError, match="disk full"):
            with any_storage.open_sink(flush_every=100) as sink:
                sink.write(sample_detection())
                self.explode(sink)

    def test_engine_close_does_not_mask_a_crawl_error(self):
        """Crawler.__exit__ swallows teardown failures while an exception
        is unwinding, and surfaces them on a clean exit."""
        from repro.crawler.crawler import Crawler

        class ExplodingBackend:
            name = "exploding"
            streams_inline = True

            def prepare(self, context):
                pass

            def execute(self, shards, crawl_day, on_detection):
                return iter(())

            def shutdown(self):
                raise RuntimeError("pool teardown failed")

        engine = Crawler.__new__(Crawler)
        engine.backend = ExplodingBackend()
        with pytest.raises(ZeroDivisionError):
            with engine:
                1 / 0
        with pytest.raises(RuntimeError, match="teardown"):
            with engine:
                pass


class TestWholeFileOnly:
    """JSONL is written only whole: tailing, recovery and append live on ``.hbc``."""

    @pytest.mark.parametrize("name", ["read_new", "recover_to", "size", "append"])
    def test_live_store_api_is_columnar_only(self, name):
        from repro.crawler.colstore import ColumnarStorage

        assert not hasattr(CrawlStorage, name)
        assert hasattr(ColumnarStorage, name)

    def test_jsonl_sink_always_starts_a_fresh_file(self, tmp_path):
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        storage.save([sample_detection("old.example")])
        with storage.open_sink() as sink:
            assert sink.append is False
            sink.write(sample_detection())
        assert storage.load() == [sample_detection()]
        with pytest.raises(TypeError):
            storage.open_sink(append=True)
