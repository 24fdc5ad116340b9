"""Page model: the HTML document the browser renders for one publisher.

Only the parts of a page that matter for header-bidding detection are
modelled: the header script tags (which wrapper library, which partner tags),
the ad-slot container elements, and enough non-ad content that page-load time
is dominated by ordinary resources, as on the real Web.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ecosystem.publishers import Publisher
from repro.models import WrapperKind
from repro.utils.rng import _activator, _key_entropy, _seed_states, derive_rng

__all__ = ["Page", "build_page", "page_draws", "batch_page_draws", "WRAPPER_SCRIPT_URLS"]


#: Canonical CDN URLs for the wrapper libraries (what a <script src> points at).
WRAPPER_SCRIPT_URLS: dict[WrapperKind, str] = {
    WrapperKind.PREBID: "https://cdn.jsdelivr.net/npm/prebid.js@2.44/dist/prebid.js",
    WrapperKind.GPT: "https://www.googletagservices.com/tag/js/gpt.js",
    WrapperKind.PUBFOOD: "https://cdn.example/pubfood/pubfood.min.js",
    WrapperKind.CUSTOM: "https://static.example/js/hb-wrapper.min.js",
}

#: Ordinary third-party resources that non-advertising pages also load; they
#: give the detector realistic background traffic to ignore.
_BASELINE_RESOURCES: tuple[tuple[str, str], ...] = (
    ("www.google-analytics.com", "/analytics.js"),
    ("cdn.jsdelivr.net", "/npm/jquery@3/dist/jquery.min.js"),
    ("fonts.googleapis.com", "/css2"),
    ("cdn.example", "/site/main.css"),
    ("cdn.example", "/site/app.js"),
    ("images.example", "/hero.jpg"),
)

#: Log-normal locations of the HTML fetch and content load times.
_HTML_FETCH_MU = np.log(220)
_CONTENT_LOAD_MU = np.log(2_400)

#: ``(header script URLs, html_fetch_ms, content_load_ms, n_resources)``.
PageDraws = tuple[tuple[str, ...], float, float, int]


@dataclass(frozen=True, slots=True)
class Page:
    """A renderable page for one publisher."""

    publisher: Publisher
    html: str
    header_script_urls: tuple[str, ...]
    baseline_resources: tuple[tuple[str, str], ...]
    #: Time to fetch and parse the main HTML document, in milliseconds.
    html_fetch_ms: float
    #: Time spent loading non-ad resources after the header, in milliseconds.
    content_load_ms: float

    @property
    def url(self) -> str:
        return self.publisher.url

    @property
    def domain(self) -> str:
        return self.publisher.domain


def _render_html(publisher: Publisher, header_scripts: Sequence[str]) -> str:
    script_tags = "\n    ".join(f'<script async src="{src}"></script>' for src in header_scripts)
    slot_divs = "\n    ".join(
        f'<div id="{slot.code}" class="ad-slot" data-sizes="{",".join(slot.accepted_labels)}"></div>'
        for slot in publisher.slots
    )
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\">\n"
        "  <head>\n"
        f"    <title>{publisher.domain}</title>\n"
        f"    {script_tags}\n"
        "  </head>\n"
        "  <body>\n"
        f"    {slot_divs}\n"
        "    <main id=\"content\">Front page content.</main>\n"
        "  </body>\n"
        "</html>\n"
    )


def page_draws(rng: np.random.Generator, publisher: Publisher) -> PageDraws:
    """The draws of a publisher's page from its ``("page", domain)`` stream.

    Returns ``(header script URLs, html_fetch_ms, content_load_ms, number of
    baseline resources)``.  The HTML fetch and content load times are drawn
    from log-normal models so that overall page-load time sits in the
    multi-second range reported by industry measurements, independently of
    (and additively to) any HB delay.
    """
    header_scripts: list[str] = []
    if publisher.uses_hb:
        assert publisher.wrapper is not None
        header_scripts.append(WRAPPER_SCRIPT_URLS[publisher.wrapper])
        # Partner-specific adapter or tag scripts also commonly sit in the head.
        for partner in publisher.partners[:3]:
            header_scripts.append(f"https://{partner.primary_domain}/tag/adapter.js")
    elif rng.random() < 0.35:
        # Non-HB pages often still carry ordinary ad or analytics tags.
        header_scripts.append("https://pagead2.googlesyndication.com/pagead/js/adsbygoogle.js")

    html_fetch_ms = min(max(float(rng.lognormal(mean=_HTML_FETCH_MU, sigma=0.45)), 60.0), 3_000.0)
    content_load_ms = min(max(float(rng.lognormal(mean=_CONTENT_LOAD_MU, sigma=0.55)), 400.0), 30_000.0)
    n_resources = int(rng.integers(3, len(_BASELINE_RESOURCES) + 1))
    return tuple(header_scripts), html_fetch_ms, content_load_ms, n_resources


def batch_page_draws(publishers: Sequence[Publisher], seed: int) -> list[PageDraws]:
    """:func:`page_draws` of every publisher, its stream seeded in one vectorized pass.

    Equal to ``page_draws(derive_rng(seed, "page", p.domain), p)`` for each
    ``p``, without building a generator per publisher.
    """
    states = _seed_states(seed, _key_entropy([("page", p.domain) for p in publishers]))
    activate = _activator()
    return [
        page_draws(activate(*state), publisher)
        for state, publisher in zip(zip(*(column.tolist() for column in states)), publishers)
    ]


def build_page(publisher: Publisher, *, seed: int = 2019) -> Page:
    """Construct the page served by a publisher, with realistic load costs."""
    header_scripts, html_fetch_ms, content_load_ms, n_resources = page_draws(
        derive_rng(seed, "page", publisher.domain), publisher
    )
    return Page(
        publisher=publisher,
        html=_render_html(publisher, header_scripts),
        header_script_urls=header_scripts,
        baseline_resources=_BASELINE_RESOURCES[:n_resources],
        html_fetch_ms=html_fetch_ms,
        content_load_ms=content_load_ms,
    )
