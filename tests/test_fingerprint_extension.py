"""The extensible day horizon: growing a finished campaign day by day.

The checkpoint fingerprint treats ``recrawl_days`` as extensible (completed
phases stay immutable; only net-new phases are appended), which is what lets
the continuous-recrawl daemon keep a long-lived campaign growing.  The
acceptance criterion under test: extending a finished campaign by N days
resumes byte-identically versus a fresh run configured with the full horizon
up front — across jsonl/columnar stores and serial/process backends —
while shrinking the horizon and changing the seed or population are still
refused.
"""

import dataclasses

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.registry import available_metrics, compute_metric
from repro.crawler.colstore import storage_for
from repro.errors import CheckpointError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.testing import FaultyBackend, SimulatedCrash


def _config(store_format="jsonl", backend="serial", workers=1, **overrides):
    return ExperimentConfig(
        total_sites=400,
        seed=7,
        recrawl_days=1,
        historical_sites=120,
        workers=workers,
        crawl_backend=backend,
        store_format=store_format,
        **overrides,
    )


def _suffix(store_format):
    return "hbc" if store_format == "columnar" else "jsonl"


class TestHorizonExtension:
    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("process", 2), ("process", 3)]
    )
    def test_extension_byte_identical_to_full_horizon_run(
        self, tmp_path, store_format, backend, workers
    ):
        config = _config(store_format, backend, workers)
        grown = storage_for(
            tmp_path / f"grown.{_suffix(store_format)}", format=store_format
        )
        ckpt = str(tmp_path / "cp.json")

        ExperimentRunner(config.with_checkpoint(ckpt)).run(
            use_cache=False, storage=grown
        )
        extended = dataclasses.replace(
            config, recrawl_days=3, checkpoint_path=ckpt, resume=True
        )
        artifacts = ExperimentRunner(extended).run(use_cache=False, storage=grown)

        oneshot = storage_for(
            tmp_path / f"oneshot.{_suffix(store_format)}", format=store_format
        )
        expected = ExperimentRunner(
            dataclasses.replace(config, recrawl_days=3)
        ).run(use_cache=False, storage=oneshot)

        assert grown.path.read_bytes() == oneshot.path.read_bytes()
        assert artifacts.dataset.summary() == expected.dataset.summary()

    def test_day_by_day_growth_equals_one_shot(self, tmp_path):
        """Three single-day extensions (the daemon's tick pattern) == one run."""
        config = _config()
        grown = storage_for(tmp_path / "grown.jsonl")
        ckpt = str(tmp_path / "cp.json")
        ExperimentRunner(
            dataclasses.replace(config, recrawl_days=0, checkpoint_path=ckpt)
        ).run(use_cache=False, storage=grown)
        for days in (1, 2, 3):
            ExperimentRunner(
                dataclasses.replace(
                    config, recrawl_days=days, checkpoint_path=ckpt, resume=True
                )
            ).run(use_cache=False, storage=grown)

        oneshot = storage_for(tmp_path / "oneshot.jsonl")
        ExperimentRunner(dataclasses.replace(config, recrawl_days=3)).run(
            use_cache=False, storage=oneshot
        )
        assert grown.path.read_bytes() == oneshot.path.read_bytes()

    def test_every_offline_metric_matches_after_extension(self, tmp_path):
        config = _config()
        grown = storage_for(tmp_path / "grown.jsonl")
        ckpt = str(tmp_path / "cp.json")
        ExperimentRunner(config.with_checkpoint(ckpt)).run(
            use_cache=False, storage=grown
        )
        extended = ExperimentRunner(
            dataclasses.replace(config, recrawl_days=2, checkpoint_path=ckpt, resume=True)
        ).run(use_cache=False, storage=grown)
        expected = ExperimentRunner(
            dataclasses.replace(config, recrawl_days=2)
        ).run(use_cache=False, storage=storage_for(tmp_path / "oneshot.jsonl"))

        got = AnalysisContext.offline(extended.dataset)
        want = AnalysisContext.offline(expected.dataset)
        for name in available_metrics(got):
            assert compute_metric(name, got).text == compute_metric(name, want).text

    def test_extension_after_mid_day_crash_still_matches(self, tmp_path, monkeypatch):
        """Crash mid-day-1, then resume with a *larger* horizon in one go."""
        import repro.crawler.engine as engine_mod

        config = _config(backend="process", workers=2)
        ckpt = str(tmp_path / "cp.json")
        storage = storage_for(tmp_path / "grown.jsonl")
        real = engine_mod.backend_from_name
        with monkeypatch.context() as patch:
            patch.setattr(
                engine_mod,
                "backend_from_name",
                lambda name, workers=None: FaultyBackend(real(name, workers=workers), 3),
            )
            with pytest.raises(SimulatedCrash):
                ExperimentRunner(config.with_checkpoint(ckpt)).run(
                    use_cache=False, storage=storage
                )
        ExperimentRunner(
            dataclasses.replace(config, recrawl_days=2, checkpoint_path=ckpt, resume=True)
        ).run(use_cache=False, storage=storage)

        oneshot = storage_for(tmp_path / "oneshot.jsonl")
        ExperimentRunner(dataclasses.replace(config, recrawl_days=2)).run(
            use_cache=False, storage=oneshot
        )
        assert storage.path.read_bytes() == oneshot.path.read_bytes()


class TestHorizonGuards:
    def _finished_campaign(self, tmp_path, **overrides):
        config = _config(**overrides)
        storage = storage_for(tmp_path / "grown.jsonl")
        ckpt = str(tmp_path / "cp.json")
        ExperimentRunner(config.with_checkpoint(ckpt)).run(
            use_cache=False, storage=storage
        )
        return config, ckpt, storage

    def test_shrinking_the_horizon_is_refused(self, tmp_path):
        config, ckpt, storage = self._finished_campaign(tmp_path)
        shrunk = dataclasses.replace(
            config, recrawl_days=0, checkpoint_path=ckpt, resume=True
        )
        with pytest.raises(CheckpointError, match="immutable"):
            ExperimentRunner(shrunk).run(use_cache=False, storage=storage)

    def test_seed_change_is_still_refused(self, tmp_path):
        config, ckpt, storage = self._finished_campaign(tmp_path)
        reseeded = dataclasses.replace(
            config, seed=8, recrawl_days=2, checkpoint_path=ckpt, resume=True
        )
        with pytest.raises(CheckpointError, match="refusing to resume"):
            ExperimentRunner(reseeded).run(use_cache=False, storage=storage)

    def test_population_change_is_still_refused(self, tmp_path):
        config, ckpt, storage = self._finished_campaign(tmp_path)
        bigger = dataclasses.replace(
            config, total_sites=500, recrawl_days=2, checkpoint_path=ckpt, resume=True
        )
        with pytest.raises(CheckpointError, match="refusing to resume"):
            ExperimentRunner(bigger).run(use_cache=False, storage=storage)

    def test_detector_change_is_still_refused(self, tmp_path):
        config, ckpt, storage = self._finished_campaign(tmp_path)
        retuned = dataclasses.replace(
            config,
            detector_coverage=0.5,
            recrawl_days=2,
            checkpoint_path=ckpt,
            resume=True,
        )
        with pytest.raises(CheckpointError, match="refusing to resume"):
            ExperimentRunner(retuned).run(use_cache=False, storage=storage)

    def test_old_checkpoints_with_frozen_horizon_still_resume(self, tmp_path):
        """A checkpoint recording recrawl_days resumes under a larger horizon.

        Every checkpoint records the horizon in its fingerprint; the
        comparison must exclude it on both sides, so files written before the
        extensibility rule (which recorded it too) keep working.
        """
        config, ckpt, storage = self._finished_campaign(tmp_path)
        extended = dataclasses.replace(
            config, recrawl_days=2, checkpoint_path=ckpt, resume=True
        )
        ExperimentRunner(extended).run(use_cache=False, storage=storage)

        oneshot = storage_for(tmp_path / "oneshot.jsonl")
        ExperimentRunner(dataclasses.replace(config, recrawl_days=2)).run(
            use_cache=False, storage=oneshot
        )
        assert storage.path.read_bytes() == oneshot.path.read_bytes()
