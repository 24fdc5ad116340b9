"""repro — reproduction of the IMC 2019 Header Bidding measurement study.

The package reproduces "No More Chasing Waterfalls: A Measurement Study of the
Header Bidding Ad-Ecosystem" end to end on a simulated Web:

* :mod:`repro.ecosystem` — the synthetic ad ecosystem (partners, publishers,
  ad server, top lists, snapshot archive);
* :mod:`repro.browser` — the simulated browser (DOM events, web requests,
  page-load engine);
* :mod:`repro.hb` — the header-bidding protocol (wrappers, the three facets)
  and the waterfall baseline;
* :mod:`repro.detector` — HBDetector, the paper's contribution;
* :mod:`repro.crawler` — crawl sessions, longitudinal scheduling, historical
  static crawling and dataset storage;
* :mod:`repro.analysis` — every figure/table computation, one registered
  metric per paper artefact;
* :mod:`repro.experiments` — the end-to-end experiment runner.

Quickstart::

    from repro.analysis import AnalysisContext, compute_metric
    from repro.experiments import ExperimentConfig, ExperimentRunner

    runner = ExperimentRunner(ExperimentConfig(total_sites=1_000, recrawl_days=1))
    artifacts = runner.run()
    print(compute_metric("table1", AnalysisContext.from_artifacts(artifacts)).text)
"""

from repro.errors import ReproError
from repro.models import AdSlot, AdSlotSize, HBFacet, PartnerKind, WrapperKind
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "AdSlot",
    "AdSlotSize",
    "HBFacet",
    "PartnerKind",
    "WrapperKind",
    "ExperimentConfig",
    "ExperimentRunner",
    "__version__",
]
