"""Small cross-cutting helpers (RNG handling, URL building, identifiers)."""

from repro.utils.rng import derive_rng
from repro.utils.urls import build_url, parse_query, url_host
from repro.utils.ids import IdFactory, slugify

__all__ = [
    "derive_rng",
    "build_url",
    "parse_query",
    "url_host",
    "IdFactory",
    "slugify",
]
