"""DOM event bus.

Header-bidding wrappers announce the progress of their auctions through DOM
events (``auctionInit``, ``bidResponse``, ``auctionEnd``, ``bidWon``,
``slotRenderEnded``, ...).  The bus below is the simulated counterpart of the
document's event target: wrappers *emit* events, and observers — the content
script HBDetector injects — *subscribe* to them without being able to alter
the page.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.browser.clock import SimulatedClock
from repro.models import DomEvent

__all__ = ["DomEventBus"]

Listener = Callable[[DomEvent], None]


class DomEventBus:
    """Ordered log of DOM events with passive subscription support."""

    __slots__ = ("_clock", "_events", "_listeners", "_wildcard_listeners")

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._events: list[DomEvent] = []
        self._listeners: dict[str, list[Listener]] = {}
        self._wildcard_listeners: list[Listener] = []

    # -- emission ------------------------------------------------------------
    def emit(self, name: str, payload: Mapping[str, object] | None = None,
             *, timestamp_ms: float | None = None) -> DomEvent:
        """Fire an event at the current simulated time (or an explicit one)."""
        event = DomEvent(
            name=name,
            timestamp_ms=self._clock.now() if timestamp_ms is None else timestamp_ms,
            payload=dict(payload or {}),
        )
        self._events.append(event)
        for listener in self._listeners.get(name, []):
            listener(event)
        for listener in self._wildcard_listeners:
            listener(event)
        return event

    # -- subscription ---------------------------------------------------------
    def add_listener(self, name: str, listener: Listener) -> None:
        """Subscribe to a specific event name (mirrors ``addEventListener``)."""
        self._listeners.setdefault(name, []).append(listener)

    def add_wildcard_listener(self, listener: Listener) -> None:
        """Subscribe to every event regardless of its name."""
        self._wildcard_listeners.append(listener)

    def remove_listener(self, name: str, listener: Listener) -> None:
        listeners = self._listeners.get(name, [])
        if listener in listeners:
            listeners.remove(listener)

    # -- inspection ------------------------------------------------------------
    @property
    def events(self) -> tuple[DomEvent, ...]:
        """All events emitted so far, in emission order."""
        return tuple(self._events)

    def events_named(self, *names: str) -> tuple[DomEvent, ...]:
        wanted = set(names)
        return tuple(event for event in self._events if event.name in wanted)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DomEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop recorded events (a fresh navigation in the same tab)."""
        self._events.clear()
