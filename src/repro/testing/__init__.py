"""Reusable fault-injection tooling for exercising crawl robustness.

Shared by the tests, benchmarks, the service and the CLI
(``repro run --inject-faults``).
"""

from repro.testing.faults import (
    Fault,
    FaultAction,
    FaultInjectingSink,
    FaultPlan,
    FaultyBackend,
    InjectedFault,
    SimulatedCrash,
    interrupted_then_resumed,
    parse_fault_plan,
    uninterrupted_baseline,
)

__all__ = [
    "Fault",
    "FaultAction",
    "FaultInjectingSink",
    "FaultPlan",
    "FaultyBackend",
    "InjectedFault",
    "SimulatedCrash",
    "interrupted_then_resumed",
    "parse_fault_plan",
    "uninterrupted_baseline",
]
