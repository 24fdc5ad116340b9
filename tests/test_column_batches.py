"""Worker-encoded column batches: one encoder, one packer, the same bytes.

A process-pool shard crosses back to the parent as a ``ColumnBatch`` (one
chunk over batch-local dictionaries) and the sink packs it onto the file's
dictionaries; the serial path streams records,
and the sink encodes each flush's buffer as a batch for the same packer.
Every test here holds the bytes to what the per-record encoder wrote before
batches existed: digests recorded with it, or the per-record path itself.
"""

import hashlib
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.crawler.colstore as colstore
import repro.daemon as daemon_mod
from repro.cli import main as cli_main
from repro.crawler.colstore import (
    ColumnarDetectionSink,
    ColumnarStorage,
    ColumnBatch,
    _layout,
    _payload_size,
)
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.storage import CrawlStorage
from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.errors import StorageError
from repro.experiments.config import ExperimentConfig
from repro.models import HBFacet
from repro.testing import parse_fault_plan

SRC = Path(__file__).resolve().parents[1] / "src"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Random records and shard plans


def random_records(seed: int, n: int) -> list[SiteDetection]:
    """Records whose strings keep appearing for the first time mid-stream.

    Every string pool grows with the record index, so new partners, slots,
    bidders and sizes turn up in the middle of shards and chunks; domains
    repeat now and then; libraries, facets, sizes, CPMs and latencies are
    sometimes ``None``, and some records have no partners at all (empty
    dictionary deltas).
    """
    rng = random.Random(seed)
    facets = list(HBFacet)
    out = []
    for i in range(n):
        pool = 2 + i // 5
        domain = f"site{rng.randrange(i + 1) if rng.random() < 0.1 else i}.example"
        partners = tuple(sorted({f"partner{rng.randrange(pool)}" for _ in range(rng.randrange(4))}))
        hb = bool(partners) and rng.random() < 0.8
        auctions = []
        for _ in range(rng.randrange(3) if hb else 0):
            slot = f"slot-{rng.randrange(pool * 2)}"
            bids = tuple(
                ObservedBid(
                    rng.choice(partners),
                    f"bidder{rng.randrange(pool)}",
                    slot,
                    None if rng.random() < 0.3 else round(rng.uniform(0, 5), 3),
                    None if rng.random() < 0.4 else f"{rng.choice((300, 728, 160))}x{rng.randrange(50, 120)}",
                    None if rng.random() < 0.2 else rng.uniform(10, 3000),
                    rng.random() < 0.3,
                    rng.random() < 0.2,
                    rng.choice(("client", "server")),
                )
                for _ in range(rng.randrange(4))
            )
            start = rng.uniform(0, 500)
            auctions.append(ObservedAuction(
                slot, None if rng.random() < 0.5 else f"{rng.randrange(100, 999)}x90",
                bids, start, start + rng.uniform(0, 900), rng.choice(facets),
            ))
        out.append(SiteDetection(
            domain,
            i + 1,
            hb,
            rng.choice(facets) if hb else None,
            None if rng.random() < 0.5 else f"lib{rng.randrange(3)}",
            partners,
            tuple(auctions),
            {p: rng.uniform(1, 900) for p in partners if rng.random() < 0.7},
            None if rng.random() < 0.4 else rng.uniform(0, 2000),
            tuple(sorted({f"channel{rng.randrange(pool)}" for _ in range(rng.randrange(3))})),
            rng.randrange(3),
            None if rng.random() < 0.2 else rng.uniform(100, 9000),
        ))
    return out


def random_shards(seed: int, records: list) -> list[list]:
    rng = random.Random(seed * 7919)
    cuts = sorted(rng.sample(range(1, len(records)), rng.randrange(1, 9)))
    return [records[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]


def write_inline(path: Path, shards, flush_every: int) -> bytes:
    """The serial path: records one by one, a flush at every shard boundary."""
    with ColumnarDetectionSink(path, flush_every=flush_every) as sink:
        for shard in shards:
            for record in shard:
                sink.write(record)
            sink.flush()
    return path.read_bytes()


def write_batches(path: Path, shards, flush_every: int) -> bytes:
    """The pool path: each shard's batch, pickled across, then a flush."""
    with ColumnarDetectionSink(path, flush_every=flush_every) as sink:
        for shard in shards:
            sink.write_batch(pickle.loads(pickle.dumps(ColumnBatch.encode(shard))))
            sink.flush()
    return path.read_bytes()


#: sha256 of ``write_inline`` for (seed, flush_every), as the per-record
#: encoder wrote it before batches existed.
RECORDED = {
    (1, 1): "c95375698fd7802efec8207131fba3ead079047c7dd9835f1e65f2da31e90b3a",
    (1, 7): "7e716030e09fe40a851f0768801736b5ea62c7aa7a78a6dd0cac0b7ecfe7a62d",
    (1, 64): "d6b39da9cd03671fc1e402b9b888336660198f8280764ac96e5e81da8e73b61a",
    (2, 1): "bdd0b8d1b2fd76e471ceef05e1641c4e4417d0e961dd4c05cd55caee122f2d1f",
    (2, 7): "34c56e20e22c2fceb810ade53efd2a23648b7860bf3c7a26b3ae078e92598223",
    (2, 64): "a638e3f43aae60835b92c7b0735a2dead1b0ccc96f4151099cd64db8966dba2c",
}


class TestPacker:
    @pytest.mark.parametrize("seed,flush_every", sorted(RECORDED))
    def test_both_paths_give_the_recorded_bytes(self, tmp_path, seed, flush_every):
        shards = random_shards(seed, random_records(seed, 300))
        inline = write_inline(tmp_path / "inline.hbc", shards, flush_every)
        batched = write_batches(tmp_path / "batched.hbc", shards, flush_every)
        assert hashlib.sha256(inline).hexdigest() == RECORDED[seed, flush_every]
        assert batched == inline

    @pytest.mark.parametrize("seed", range(3, 15))
    @pytest.mark.parametrize("flush_every", [1, 7, 64])
    def test_pool_and_inline_paths_agree(self, tmp_path, seed, flush_every):
        shards = random_shards(seed, random_records(seed, 120 + 17 * seed))
        inline = write_inline(tmp_path / "inline.hbc", shards, flush_every)
        assert write_batches(tmp_path / "batched.hbc", shards, flush_every) == inline
        assert ColumnarStorage(tmp_path / "batched.hbc").load() == [r for s in shards for r in s]

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_mixed_with_records_cut_where_records_alone_would(self, tmp_path, seed):
        """Chunks never depend on how the stream arrived: records, batches
        and flushes in any interleaving cut at the same record counts."""
        rng = random.Random(seed)
        records = random_records(seed + 100, 200)
        with ColumnarDetectionSink(tmp_path / "mixed.hbc", flush_every=7) as mixed, \
                ColumnarDetectionSink(tmp_path / "plain.hbc", flush_every=7) as plain:
            i = 0
            while i < len(records):
                piece = records[i : i + rng.randrange(1, 30)]
                i += len(piece)
                if rng.random() < 0.5:
                    mixed.write_batch(ColumnBatch.encode(piece))
                else:
                    mixed.write_many(piece)
                plain.write_many(piece)
                if rng.random() < 0.2:
                    mixed.flush()
                    plain.flush()
            assert mixed.count == plain.count == len(records)
        assert (tmp_path / "mixed.hbc").read_bytes() == (tmp_path / "plain.hbc").read_bytes()

    def test_batch_decodes_to_its_records_and_hb_domains(self):
        records = random_records(5, 80)
        batch = pickle.loads(pickle.dumps(ColumnBatch.encode(records)))
        assert len(batch) == 80
        assert batch.records() == records
        assert batch.hb_domains() == [r.domain for r in records if r.hb_detected]

    def test_payload_size_is_the_layouts(self):
        rng = random.Random(3)
        for _ in range(500):
            counts = tuple(rng.randrange(0, 300) for _ in range(22))
            assert _payload_size(counts) == _layout(counts)[1]


def count_listings(monkeypatch, path: Path) -> list:
    """The whole-file listings of ``path`` from now on, one entry each."""
    listed = []
    real = colstore._list_chunks

    def listing(handle, listed_path, *args, **kwargs):
        if Path(listed_path) == path:
            listed.append(1)
        return real(handle, listed_path, *args, **kwargs)

    monkeypatch.setattr(colstore, "_list_chunks", listing)
    return listed


class TestAppendOpen:
    def test_continued_sink_skips_the_listing_and_matches_a_full_reopen(self, tmp_path, monkeypatch):
        records = random_records(9, 150)
        path = tmp_path / "store.hbc"
        with ColumnarDetectionSink(path, flush_every=16) as first:
            first.write_many(records[:50])
        listed = count_listings(monkeypatch, path)
        second = ColumnarDetectionSink(path, append=True, flush_every=16)
        second.continue_from(first)
        with second:
            second.write_many(records[50:100])
        assert listed == []
        # Another writer moves the file: a sink continuing ``second`` lists it.
        with ColumnarDetectionSink(path, append=True, flush_every=16) as other:
            other.write_many(records[100:120])
        assert len(listed) == 1
        third = ColumnarDetectionSink(path, append=True, flush_every=16)
        third.continue_from(second)
        with third:
            third.write_many(records[120:])
        assert len(listed) == 2
        with ColumnarDetectionSink(tmp_path / "oneshot.hbc", flush_every=16) as sink:
            for part in (records[:50], records[50:100], records[100:120], records[120:]):
                sink.write_many(part)
                sink.flush()
        assert path.read_bytes() == (tmp_path / "oneshot.hbc").read_bytes()

    def test_other_append_callers_read_the_file(self, tmp_path, monkeypatch):
        storage = ColumnarStorage(tmp_path / "store.hbc")
        records = random_records(4, 40)
        storage.save(records[:20])
        listed = count_listings(monkeypatch, storage.path)
        storage.append(records[20:])
        assert listed == [1]
        assert storage.load() == records

    def test_warm_ticks_continue_the_last_warm_ticks_sink(self, tmp_path, monkeypatch):
        config = ExperimentConfig(total_sites=400, seed=7, store_format="columnar")
        with daemon_mod.RecrawlDaemon(tmp_path / "d", config) as rig:
            rig.tick()
            listed = count_listings(monkeypatch, rig.working_path)
            rig.tick()
            # The first warm tick follows a cold one, whose sink it never saw.
            assert len(listed) == 1
            for _ in range(3):
                rig.tick()
            assert len(listed) == 1
        ColumnarStorage(rig.working_path).load()

    def test_a_jsonl_daemon_exports_after_every_warm_tick(self, tmp_path):
        config = ExperimentConfig(
            total_sites=400, seed=7, store_format="jsonl", workers=2, crawl_backend="process",
        )
        with daemon_mod.RecrawlDaemon(tmp_path / "d", config) as rig:
            for day in range(4):
                report = rig.tick()
                assert report.day == day
                exported = CrawlStorage(rig.sink_path).load()
                assert len(exported) == report.detections
                assert exported == ColumnarStorage(rig.working_path).load()


# ---------------------------------------------------------------------------
# Campaign bytes recorded before batches existed


class TestRecordedCampaignBytes:
    def test_process_run_working_store(self, tmp_path):
        save = tmp_path / "run.hbc"
        assert cli_main([
            "run", "--sites", "2000", "--days", "2", "--workers", "2", "--backend", "process",
            "--store-format", "columnar", "--save", str(save), "--figures", "table1",
        ]) == 0
        assert sha256(save) == "454fba7f36e6a2886a6188e92637097021083ceaaa9cb4d5823e2537460dc95b"

    def test_process_daemon_store_partitions_and_snapshots(self, tmp_path):
        workdir = tmp_path / "d"
        assert cli_main([
            "daemon", "--dir", str(workdir), "--sites", "600", "--seed", "5", "--days", "2",
            "--interval", "0", "--backend", "process", "--workers", "2",
        ]) == 0
        digests = {
            "detections.hbc": "23d7005e751cd4938ee8c079dcde5f30829a36cc0f411a3dfb6f0e1187ecbf14",
            "partitions/day-00000.hbc": "66322ce9c3a67a7ed876eede88ec433b5ff6b180d90aece608e1e13e7e5d4bc4",
            "partitions/day-00001.hbc": "df61ad176f648b638376d9f541e1fc6fe85f5cf6f2112a2882f371edf21859fd",
            "partitions/day-00002.hbc": "d845fe7d95412ea11c59aed47fa8fa34ee2f641c28eb8ed92d6536cac794f459",
            "metrics/day-00000.json": "3b93bd34bbef396d28098b0146283d545f716ad413f7772d20dfe3283ae58b07",
            "metrics/day-00001.json": "6ceeba7f7deb5baba7830b94ae7f931b9a45df1677e4ef373a0e6994f58a8cdf",
            "metrics/day-00002.json": "71b1119f19c1a563c054e826ec5705097c85356810ffc3cef51a8823075f11bb",
        }
        assert {name: sha256(workdir / name) for name in digests} == digests


# ---------------------------------------------------------------------------
# The pool path end to end


def test_warm_process_tick_builds_no_site_detection_in_the_parent(tmp_path, monkeypatch):
    config = ExperimentConfig(
        total_sites=600, seed=5, store_format="columnar", workers=2, crawl_backend="process",
    )
    with daemon_mod.RecrawlDaemon(tmp_path / "d", config) as rig:
        assert rig.tick().status == "bootstrapped"
        built = []
        init = SiteDetection.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        # The pool's workers are running already: only the parent counts.
        monkeypatch.setattr(SiteDetection, "__init__", counting)
        for day in (1, 2):
            report = rig.tick()
            assert (report.status, report.day) == ("advanced", day)
        assert built == []
    assert sha256(tmp_path / "d" / "detections.hbc") == (
        "23d7005e751cd4938ee8c079dcde5f30829a36cc0f411a3dfb6f0e1187ecbf14"
    )


@pytest.mark.parametrize("spec", ["sink@count=0x2", "sink@count=100x2", "sink@count=300x1"])
def test_sink_count_faults_fire_on_batch_writes(environment, detector, small_population, tmp_path, spec):
    sites = list(small_population)[:400]
    config = CrawlConfig(seed=2019, backend="process", workers=2, retry_backoff=0.0)

    def crawl(name, plan=None):
        storage = ColumnarStorage(tmp_path / f"{name}.hbc")
        with Crawler(environment, detector, config, fault_plan=plan) as crawler:
            with storage.open_sink(flush_every=16) as sink:
                result = crawler.crawl(sites, sink=sink)
        return result, storage.path.read_bytes()

    _, clean = crawl("clean")
    plan = parse_fault_plan(spec)
    result, faulty = crawl("faulty", plan)
    assert result.sink_retries == plan.total_fired == plan.faults[0].times
    assert faulty == clean


# ---------------------------------------------------------------------------
# A stop request during the closing export


SLOW_EXPORT = """
import sys, time
from repro.crawler import storage

write = storage.DetectionSink._write_records

def slow(self, handle, records):
    if not getattr(slow, "told", False):
        slow.told = True
        print("EXPORTING", flush=True)
    time.sleep(0.2)
    write(self, handle, records)

storage.DetectionSink._write_records = slow
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_sigterm_during_the_export_waits_for_the_rename(tmp_path):
    save = tmp_path / "run.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-c", SLOW_EXPORT, "run", "--sites", "400", "--days", "1",
         "--save", str(save), "--figures", "table1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    with proc:
        assert proc.stdout.readline().strip() == "EXPORTING"
        proc.terminate()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert "interrupted" in err
    assert not save.with_name(save.name + ".export-tmp").exists()
    # The export finished whole: the JSONL file is an uninterrupted run's.
    clean = tmp_path / "clean.jsonl"
    assert cli_main(["run", "--sites", "400", "--days", "1", "--save", str(clean), "--figures", "table1"]) == 0
    assert save.read_bytes() == clean.read_bytes()


def test_a_signal_held_by_a_failing_export_is_still_delivered(tmp_path, monkeypatch):
    src = tmp_path / "store.hbc"
    ColumnarStorage(src).save(random_records(6, 30))
    delivered = []
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: delivered.append(signum))

    def failing_replace(a, b):
        signal.raise_signal(signal.SIGTERM)
        assert delivered == []  # held until the export ends
        raise OSError("disk full")

    monkeypatch.setattr(colstore.os, "replace", failing_replace)
    try:
        with pytest.raises(StorageError, match="disk full"):
            colstore.export(src, tmp_path / "out.jsonl", "jsonl")
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert delivered == [signal.SIGTERM]
    assert not (tmp_path / "out.jsonl.export-tmp").exists()


def test_an_ignored_signal_stays_ignored_during_the_export(tmp_path, monkeypatch):
    src = tmp_path / "store.hbc"
    records = random_records(6, 30)
    ColumnarStorage(src).save(records)
    replace = os.replace

    def signalled_replace(a, b):
        signal.raise_signal(signal.SIGINT)
        signal.raise_signal(signal.SIGINT)
        replace(a, b)

    monkeypatch.setattr(colstore.os, "replace", signalled_replace)
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        assert colstore.export(src, tmp_path / "out.jsonl", "jsonl") == len(records)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert CrawlStorage(tmp_path / "out.jsonl").load() == records


def test_second_signal_aborts_the_export(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", SLOW_EXPORT, "run", "--sites", "400", "--days", "1",
         "--save", str(tmp_path / "run.jsonl"), "--figures", "table1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    with proc:
        assert proc.stdout.readline().strip() == "EXPORTING"
        proc.terminate()
        time.sleep(0.1)
        proc.terminate()
        proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert not (tmp_path / "run.jsonl").exists()
    assert not (tmp_path / "run.jsonl.export-tmp").exists()
