"""Tests for the hbrepro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.sites == 2_000
        assert args.days == 1
        assert "table1" in args.figures

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--figures", "fig99"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_artifact_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12" in out

    def test_run_prints_requested_artifacts(self, capsys):
        exit_code = main(["run", "--sites", "400", "--days", "0", "--seed", "7",
                          "--figures", "table1", "facet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Facet breakdown" in out

    def test_historical_prints_adoption_series(self, capsys):
        exit_code = main(["historical", "--sites", "150", "--seed", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "2019" in out


class TestParallelCli:
    def test_parallel_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--workers", "4", "--backend", "process", "--save", "out.jsonl"])
        assert args.workers == 4
        assert args.backend == "process"
        assert args.save == "out.jsonl"
        defaults = build_parser().parse_args(["run"])
        assert (defaults.workers, defaults.backend, defaults.save) == (1, "serial", None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "gpu"])

    def test_removed_thread_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--backend", "thread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_parallel_run_with_save_streams_detections(self, capsys, tmp_path):
        out = tmp_path / "crawl.jsonl"
        exit_code = main(["run", "--sites", "400", "--days", "0", "--seed", "7",
                          "--workers", "2", "--backend", "process",
                          "--save", str(out), "--figures", "table1"])
        assert exit_code == 0
        assert "Streamed" in capsys.readouterr().out

        from repro.crawler.storage import CrawlStorage
        detections = CrawlStorage(out).load()
        assert len(detections) == 400


class TestWatchCli:
    def test_watch_flags_parse(self):
        args = build_parser().parse_args(
            ["analyze", "crawl.jsonl", "--watch", "--interval", "0.5", "--watch-rounds", "3"])
        assert args.watch is True
        assert args.interval == 0.5
        assert args.watch_rounds == 3
        defaults = build_parser().parse_args(["analyze", "crawl.jsonl"])
        assert (defaults.watch, defaults.interval, defaults.watch_rounds) == (False, 2.0, None)

    def test_flush_every_parses_and_threads_through(self):
        args = build_parser().parse_args(["run", "--flush-every", "1"])
        assert args.flush_every == 1
        assert build_parser().parse_args(["run"]).flush_every == 64

    def test_watch_renders_same_artifacts_as_plain_analyze(self, capsys, tmp_path):
        out = tmp_path / "crawl.jsonl"
        assert main(["run", "--sites", "400", "--days", "0", "--seed", "7",
                     "--save", str(out), "--figures", "table1"]) == 0
        capsys.readouterr()

        assert main(["analyze", str(out), "--artifact", "table1", "adoption"]) == 0
        plain = capsys.readouterr().out
        # The run streamed into its working store, which is what --watch tails.
        working = tmp_path / "crawl.jsonl.hbc"
        assert main(["analyze", str(working), "--watch", "--interval", "0.01",
                     "--watch-rounds", "2", "--artifact", "table1", "adoption"]) == 0
        watched = capsys.readouterr().out
        # One render (round 2 sees no new data), preceded by a progress header.
        assert watched.count("=== crawl.jsonl.hbc: 400 detections (+400) ===") == 1
        assert watched.endswith(plain)

    def test_watch_refuses_a_jsonl_file(self, capsys, tmp_path):
        """JSONL is written only whole; the error names the store to tail."""
        out = tmp_path / "crawl.jsonl"
        assert main(["run", "--sites", "400", "--days", "0", "--seed", "7",
                     "--save", str(out), "--figures", "table1"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--watch", "--interval", "0.01",
                     "--watch-rounds", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(tmp_path / "crawl.jsonl.hbc") in captured.err

    def test_watch_tails_a_growing_file(self, capsys, tmp_path):
        """New detections appended between polls trigger a fresh render."""
        import threading
        import time as time_mod

        from repro.crawler.colstore import ColumnarStorage
        from tests.test_crawler_storage import sample_detection

        path = tmp_path / "crawl.hbc"
        storage = ColumnarStorage(path)
        storage.save([sample_detection("first.example")])

        def late_append():
            time_mod.sleep(0.25)
            storage.append([sample_detection("second.example", day=1)])

        writer = threading.Thread(target=late_append)
        writer.start()
        try:
            assert main(["analyze", str(path), "--watch", "--interval", "0.1",
                         "--watch-rounds", "12", "--artifact", "table1"]) == 0
        finally:
            writer.join()
        out = capsys.readouterr().out
        assert "1 detections (+1)" in out
        # A closed .hbc store is a prefix of the store appended to it, so the
        # watch continues and reads only the appended record.
        assert "file changed, restarting watch" not in out
        assert "2 detections (+1)" in out

    def test_watch_on_missing_file_waits_quietly(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.jsonl.hbc"), "--watch",
                     "--interval", "0.01", "--watch-rounds", "2"]) == 0
        assert capsys.readouterr().out == ""

    def test_watch_restarts_when_the_file_is_truncated(self, capsys, tmp_path):
        """A crawl restarted with a fresh sink resets the watch dataset."""
        import threading
        import time as time_mod

        from repro.crawler.colstore import ColumnarStorage
        from tests.test_crawler_storage import sample_detection

        path = tmp_path / "crawl.hbc"
        storage = ColumnarStorage(path)
        storage.save([sample_detection(f"old{i}.example") for i in range(3)])

        def restart_crawl():
            time_mod.sleep(0.25)
            storage.save([sample_detection("new.example")])  # truncating rewrite

        writer = threading.Thread(target=restart_crawl)
        writer.start()
        try:
            assert main(["analyze", str(path), "--watch", "--interval", "0.1",
                         "--watch-rounds", "12", "--artifact", "table1"]) == 0
        finally:
            writer.join()
        out = capsys.readouterr().out
        assert "3 detections (+3)" in out
        assert "file changed, restarting watch" in out
        assert "1 detections (+1)" in out

    def test_invalid_numeric_flags_fail_cleanly(self):
        for argv in (["run", "--flush-every", "0"],
                     ["analyze", "x.jsonl", "--watch", "--interval", "-1"],
                     ["analyze", "x.jsonl", "--watch", "--watch-rounds", "0"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestCheckpointCli:
    RUN = ["run", "--sites", "400", "--days", "0", "--seed", "7", "--figures", "table1"]

    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--save", "out.jsonl", "--checkpoint", "cp.json", "--resume"])
        assert args.checkpoint == "cp.json"
        assert args.resume is True
        defaults = build_parser().parse_args(["run"])
        assert (defaults.checkpoint, defaults.resume) == (None, False)

    def test_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit):
            main(self.RUN + ["--resume"])
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_requires_save(self, capsys):
        with pytest.raises(SystemExit):
            main(self.RUN + ["--checkpoint", "cp.json"])
        assert "--checkpoint requires --save" in capsys.readouterr().err

    def test_checkpointed_run_then_noop_resume_is_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "crawl.jsonl"
        checkpoint = tmp_path / "cp.json"
        argv = self.RUN + ["--workers", "2", "--backend", "process",
                           "--save", str(out), "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert "Streamed 400 detections" in first_out
        assert checkpoint.exists()
        first_bytes = out.read_bytes()

        # Resuming the completed campaign replays it from the sink: same
        # bytes on disk, same artefacts printed, no re-crawling drift.
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first_out
        assert out.read_bytes() == first_bytes

    def test_resume_with_mismatched_config_fails_cleanly(self, capsys, tmp_path):
        out = tmp_path / "crawl.jsonl"
        checkpoint = tmp_path / "cp.json"
        assert main(self.RUN + ["--save", str(out), "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["run", "--sites", "400", "--days", "0", "--seed", "8",
                     "--figures", "table1", "--save", str(out),
                     "--checkpoint", str(checkpoint), "--resume"]) == 1
        assert "refusing to resume" in capsys.readouterr().err

    def test_resume_of_a_version_1_checkpoint_fails_on_the_version(self, capsys, tmp_path):
        """A checkpoint from before the .hbc working store recorded JSONL
        offsets; resuming it is refused by version, not by a missing file."""
        import json

        out = tmp_path / "crawl.jsonl"
        checkpoint = tmp_path / "cp.json"
        assert main(self.RUN + ["--save", str(out), "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        (tmp_path / "crawl.jsonl.hbc").unlink()
        data = json.loads(checkpoint.read_text(encoding="utf-8"))
        data["version"] = 1
        data["sink_offset"] = out.stat().st_size
        checkpoint.write_text(json.dumps(data), encoding="utf-8")
        assert main(self.RUN + ["--save", str(out), "--checkpoint", str(checkpoint),
                                "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint format version 1 is not supported")

    def test_resume_without_a_checkpoint_file_fails_cleanly(self, capsys, tmp_path):
        assert main(self.RUN + ["--save", str(tmp_path / "out.jsonl"),
                    "--checkpoint", str(tmp_path / "nope.json"), "--resume"]) == 1
        assert "no checkpoint to resume" in capsys.readouterr().err


#: sha256 of ``run --save x.jsonl`` for the test-scale campaign (400 sites,
#: one re-crawl day), recorded before campaigns streamed into ``.hbc``.
RUN_SAVE_SHA256 = {
    1: "a9be4eab208dd08570d52f13a04feaf00bd32b52eb159bd54de135a196682946",
    2: "d9144e2f0ca3daf432d8ace99388ebedcc9a89a809919d07fe26499b8c619506",
}


class TestRunSaveBytes:
    @pytest.mark.parametrize("seed", sorted(RUN_SAVE_SHA256))
    @pytest.mark.parametrize("parallel", [[], ["--workers", "2", "--backend", "process"]],
                             ids=["serial", "process-2"])
    def test_exported_jsonl_keeps_its_recorded_bytes(self, capsys, tmp_path, seed, parallel):
        import hashlib

        out = tmp_path / "x.jsonl"
        assert main(["run", "--sites", "400", "--days", "1", "--seed", str(seed),
                     *parallel, "--save", str(out), "--figures", "table1"]) == 0
        assert f"to {out}\n" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SAVE_SHA256[seed]
        assert (tmp_path / "x.jsonl.hbc").exists()  # the working store it came from


class TestWatchProbe:
    """The size() staleness probe: an idle watch never opens the file."""

    class _CountingStorage:
        format = "columnar"

        def __init__(self, inner):
            self._inner = inner
            self.path = inner.path
            self.size_calls = 0
            self.read_new_calls = 0

        def size(self):
            self.size_calls += 1
            return self._inner.size()

        def read_new(self, offset):
            self.read_new_calls += 1
            return self._inner.read_new(offset)

    def _seeded_storage(self, tmp_path, n=3):
        from repro.crawler.colstore import ColumnarStorage
        from tests.test_crawler_storage import sample_detection

        storage = ColumnarStorage(tmp_path / "crawl.hbc")
        storage.save([sample_detection(domain=f"site{i}.example") for i in range(1, n + 1)])
        return storage

    def test_idle_watch_reads_once_then_only_stats(self, capsys, tmp_path):
        from repro.cli import _watch

        counting = self._CountingStorage(self._seeded_storage(tmp_path))
        assert _watch(counting, [], interval=0, rounds=5) == 0
        assert counting.read_new_calls == 1  # the initial catch-up read
        assert counting.size_calls == 5  # one cheap stat per poll
        assert "3 detections (+3)" in capsys.readouterr().out

    def test_watch_on_empty_file_never_opens_it(self, tmp_path):
        from repro.cli import _watch

        storage = self._seeded_storage(tmp_path, n=0)
        storage.path.write_bytes(b"")  # a sink opened but not yet flushed
        counting = self._CountingStorage(storage)
        assert _watch(counting, [], interval=0, rounds=4) == 0
        assert counting.read_new_calls == 0
        assert counting.size_calls == 4

    def test_shrunk_file_restarts_via_the_probe(self, capsys, tmp_path):
        from repro.cli import _watch
        from tests.test_crawler_storage import sample_detection

        storage = self._seeded_storage(tmp_path)

        class _ShrinkAfterRead(self._CountingStorage):
            def read_new(self, offset):
                new, new_offset = super().read_new(offset)
                if self.read_new_calls == 1:
                    # Replace the sink with a shorter one behind the watcher.
                    self._inner.path.unlink()
                    self._inner.save([sample_detection(domain="solo.example")])
                return new, new_offset

        counting = _ShrinkAfterRead(storage)
        assert _watch(counting, [], interval=0, rounds=4) == 0
        out = capsys.readouterr().out
        assert "file changed, restarting watch" in out
        assert "1 detections (+1)" in out


class TestConvertCli:
    def _crawl(self, tmp_path, name="crawl.jsonl"):
        out = tmp_path / name
        assert main(["run", "--sites", "400", "--days", "0", "--seed", "7",
                     "--save", str(out)]) == 0
        return out

    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        src = self._crawl(tmp_path)
        packed = tmp_path / "crawl.hbc"
        back = tmp_path / "back.jsonl"
        assert main(["convert", str(src), str(packed)]) == 0
        assert main(["convert", str(packed), str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()
        assert "Converted" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.export-tmp"))

    def test_failed_convert_leaves_destination_untouched(self, capsys, tmp_path, monkeypatch):
        import repro.crawler.colstore as colstore_mod

        src = self._crawl(tmp_path)
        dst = tmp_path / "converted.hbc"
        assert main(["convert", str(src), str(dst)]) == 0
        good = dst.read_bytes()

        real = colstore_mod.storage_for

        class _ExplodingStorage:
            def __init__(self, inner):
                self._inner = inner

            def save(self, detections):
                # Write a torn prefix, then die — like a full disk mid-write.
                self._inner.path.write_bytes(b"torn")
                raise OSError("disk full")

        def faulty(path, format=None, **kwargs):
            storage = real(path, format=format, **kwargs) if format else real(path)
            if path.name.endswith(".export-tmp"):
                return _ExplodingStorage(storage)
            return storage

        monkeypatch.setattr(colstore_mod, "storage_for", faulty)
        assert main(["convert", str(src), str(dst), "--force"]) == 1
        assert "error:" in capsys.readouterr().err
        assert dst.read_bytes() == good  # the old file survived intact
        assert not list(tmp_path.glob("*.export-tmp"))

    def test_existing_destination_needs_force(self, capsys, tmp_path):
        src = self._crawl(tmp_path)
        dst = tmp_path / "crawl.hbc"
        assert main(["convert", str(src), str(dst)]) == 0
        assert main(["convert", str(src), str(dst)]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["convert", str(src), str(dst), "--force"]) == 0


class TestDaemonCli:
    def test_daemon_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["daemon", "--dir", "campaign"])
        assert args.sites == 2000 and args.seed == 2019
        assert args.days is None and args.interval == 60.0
        assert args.metrics == ["table1"] and args.threshold == []
        assert args.store_format == "columnar"

    @pytest.mark.parametrize(
        "argv",
        [
            ["daemon", "--dir", "d", "--days", "-1"],
            ["daemon", "--dir", "d", "--interval", "-5"],
            ["daemon", "--dir", "d", "--ticks", "0"],
            ["daemon", "--dir", "d", "--metrics", "bogus"],
        ],
    )
    def test_invalid_daemon_flags_fail_cleanly(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_malformed_threshold_is_a_clean_error(self, capsys, tmp_path):
        assert main(["daemon", "--dir", str(tmp_path / "d"),
                     "--threshold", "not-a-rule"]) == 1
        assert "malformed threshold" in capsys.readouterr().err

    def test_daemon_runs_a_short_campaign_and_prints_alerts(self, capsys, tmp_path):
        workdir = tmp_path / "campaign"
        assert main([
            "daemon", "--dir", str(workdir), "--sites", "400", "--seed", "7",
            "--days", "2", "--interval", "0",
            "--threshold", "table1.summary.websites_with_hb:min=100000",
        ]) == 0
        out = capsys.readouterr().out
        assert "discovery pass done" in out
        assert "crawl day 2 done" in out
        assert "ALERT day 2:" in out
        assert (workdir / "detections.hbc").exists()
        assert (workdir / "alerts.jsonl").read_text().count("\n") == 1
