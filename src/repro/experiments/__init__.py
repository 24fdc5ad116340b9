"""End-to-end experiments reproducing the paper's evaluation.

:mod:`repro.experiments.config` defines the experiment configuration (site
count, seed, crawl length) and :mod:`repro.experiments.runner` runs the full
pipeline (generate Web → crawl → detect → dataset).  Every paper artefact is
then one registered metric: ``compute_metric(name,
AnalysisContext.from_artifacts(artifacts))`` (:mod:`repro.analysis.registry`).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, ExperimentArtifacts

__all__ = ["ExperimentConfig", "ExperimentRunner", "ExperimentArtifacts"]
