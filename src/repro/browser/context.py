"""Browser context: the per-navigation bundle of clock, buses and identifiers.

A fresh context corresponds to the paper's "clean slate instance" — no state
carries over between page visits (no cookies, no history, no profile), which
is how the crawler keeps every measurement independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.browser.clock import SimulatedClock
from repro.browser.dom import DomEventBus
from repro.browser.webrequest import WebRequestLog
from repro.utils.ids import IdFactory

__all__ = ["BrowserContext"]


@dataclass(slots=True)
class BrowserContext:
    """Everything a page load needs to record its observable behaviour."""

    rng: np.random.Generator
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    dom: DomEventBus = field(init=False)
    requests: WebRequestLog = field(init=False)
    ids: IdFactory = field(default_factory=IdFactory)

    def __post_init__(self) -> None:
        self.dom = DomEventBus(self.clock)
        self.requests = WebRequestLog(self.clock)

    @classmethod
    def clean_slate(cls, rng: np.random.Generator) -> "BrowserContext":
        """A brand new context with zeroed clock and empty logs."""
        return cls(rng=rng)

    def reset(self) -> None:
        """Wipe all recorded state, as if a new browser instance was started."""
        self.clock.reset()
        self.dom.clear()
        self.requests.clear()
        self.ids.reset()
