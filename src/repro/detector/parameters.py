"""Extraction of header-bidding parameters from observed traffic.

HB wrappers attach a fixed set of key-value parameters (``hb_bidder``,
``hb_pb``, ``hb_size``, ...) to the ad-server call, and server-side responses
echo them back.  The RTB protocol, in contrast, uses DSP-specific parameter
names on its notification URLs.  This module knows how to find the HB keys in
a request's parameter map — including the per-slot suffixed form
(``hb_bidder_<slot>``) the wrappers use when several slots travel in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.hb.events import HB_PARAM_NAMES
from repro.models import WebRequest

__all__ = ["HBParameterSet", "extract_hb_parameters", "has_hb_parameters"]


@dataclass(frozen=True, slots=True, init=False)
class HBParameterSet:
    """The HB key-values found in one request, grouped per ad-slot.

    ``global_values`` holds un-suffixed keys (``hb_bidder`` → value);
    ``per_slot`` maps slot code → {parameter name → value} for suffixed keys
    such as ``hb_bidder_div-gpt-ad-3``.
    """

    global_values: Mapping[str, str]
    per_slot: Mapping[str, Mapping[str, str]]

    def __init__(
        self, global_values: Mapping[str, str], per_slot: Mapping[str, Mapping[str, str]]
    ) -> None:
        # Hand-written for the same reason as the detection records
        # (repro.detector.records): one bound setter, no generated wrapper.
        set_ = object.__setattr__.__get__(self)
        set_("global_values", global_values)
        set_("per_slot", per_slot)

    @property
    def is_empty(self) -> bool:
        return not self.global_values and not self.per_slot

    @property
    def slot_codes(self) -> tuple[str, ...]:
        return tuple(self.per_slot)

    def bidder_for_slot(self, slot_code: str) -> str | None:
        slot_params = self.per_slot.get(slot_code, {})
        return slot_params.get("hb_bidder") or self.global_values.get("hb_bidder")

    def price_for_slot(self, slot_code: str) -> float | None:
        """Best-effort price (CPM) for a slot from either hb_cpm or hb_pb."""
        slot_params = self.per_slot.get(slot_code, {})
        for key in ("hb_cpm", "hb_pb"):
            raw = slot_params.get(key) or self.global_values.get(key)
            if raw is None:
                continue
            try:
                return float(raw)
            except ValueError:
                continue
        return None

    def size_for_slot(self, slot_code: str) -> str | None:
        slot_params = self.per_slot.get(slot_code, {})
        return slot_params.get("hb_size") or self.global_values.get("hb_size")


#: Longest-first match order, hoisted: re-sorting per key was measurable on
#: the crawl hot path (every parameter of every request passes through here).
_HB_PARAMS_BY_LENGTH: tuple[str, ...] = tuple(sorted(HB_PARAM_NAMES, key=len, reverse=True))
_HB_PARAM_SET: frozenset[str] = frozenset(HB_PARAM_NAMES)


def _split_key(key: str) -> tuple[str, str | None]:
    """Split ``hb_bidder_div-gpt-ad-3`` into (``hb_bidder``, ``div-gpt-ad-3``).

    Returns ``(key, None)`` when the key carries no slot suffix.
    """
    if not key.startswith("hb_"):  # every HB parameter name does
        return key, None
    for base in _HB_PARAMS_BY_LENGTH:
        if key == base:
            return base, None
        if key.startswith(base + "_"):
            return base, key[len(base) + 1:]
    return key, None


def extract_hb_parameters(params: Mapping[str, str]) -> HBParameterSet:
    """Pull every HB key out of a request parameter map."""
    global_values: dict[str, str] = {}
    per_slot: dict[str, dict[str, str]] = {}
    for key, value in params.items():
        base, slot = _split_key(key)
        if base not in _HB_PARAM_SET:
            continue
        if slot is None:
            global_values[base] = value
        else:
            per_slot.setdefault(slot, {})[base] = value
    return HBParameterSet(global_values=global_values, per_slot=per_slot)


def has_hb_parameters(request: WebRequest) -> bool:
    """Quick check: does this request carry any HB key at all?"""
    for key in request.params:
        base, _ = _split_key(key)
        if base in _HB_PARAM_SET:
            return True
    return False
