"""Columnar batch simulation: whole crawl shards as numpy arrays.

The reference pipeline simulates one page at a time: derive a per-visit
generator, replay the page load through the browser engine (clock, DOM
recorder, web-request log), then hand the recorded events to the detector.
Its per-page *fixed costs* — ``SeedSequence`` entropy mixing, generator
construction, re-deriving every site input, object traffic for events
nobody outside the detector ever reads — dominate the crawl.

This module changes the unit of work from the page to the
:class:`~repro.crawler.engine.CrawlShard`:

* **Batch seeding.**  ``derive_rng(seed, "visit", domain, day)`` is a
  SeedSequence over two 32-bit entropy words.  The batch-seeding helpers of
  :mod:`repro.utils.rng` replicate numpy's entropy mixing and PCG64 state
  derivation as vectorized ``uint32``/``uint64`` array arithmetic, producing
  every page's initial ``(state, inc)`` pair in a handful of numpy
  operations per shard.  Three streams are seeded this way: the visit
  streams here, the ``("publisher", rank)`` streams of
  :func:`~repro.ecosystem.publishers.generate_population` and the
  ``("page", domain)`` streams of
  :meth:`~repro.ecosystem.profiles.SiteProfileTable.precompile`.
* **Vectorized draws for plain pages.**  Pages without header bidding and
  without waterfall ads consume a fixed, site-determined number of uniform
  draws.  ``_mul128_add``/``_output_doubles`` step all those streams in
  lockstep (the PCG64 LCG and its XSL-RR output function, elementwise), so
  an entire shard's plain pages cost a few array operations total.
* **Fused scalar simulation for ad pages.**  Waterfall and HB pages draw
  data-dependent amounts of randomness (ziggurat log-normals, rejection
  sampling), which cannot be vectorized without perturbing the stream.  For
  those, one reusable ``Generator`` is *activated* with the precomputed page
  state (a state-dict assignment, ~1.5 µs, vs ~27 µs for ``derive_rng``) and
  a fused simulator replays the facet executor's exact draw and event order
  against the site's compiled record
  (:class:`~repro.ecosystem.profiles.SiteRecord`, which the worker's
  ``SiteProfileTable`` hands over for the whole shard at once),
  materialising detector observations directly instead of event objects.

Detections leave through :meth:`HBDetector.detect_from_observations`, so the
classification/reconstruction logic is shared with the reference path, and
``SiteDetection`` objects are materialised only at the sink seam.  The
reference pipeline is this module's oracle: byte identity of the two paths
is enforced by ``tests/test_fastpath_equivalence`` and the stream-level
parity of the kernels by ``tests/test_columnar_samplers``,
``tests/test_batch_seeding`` and ``tests/test_profiles``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.browser.engine import NON_HB_AD_PROBABILITY
from repro.crawler.crawler import CrawlResult
from repro.detector.dom_inspector import DomObservations, _ObservedDomBid
from repro.detector.parameters import HBParameterSet
from repro.detector.records import SiteDetection
from repro.detector.webrequest_inspector import PartnerExchange, WebRequestObservations
from repro.ecosystem.profiles import (
    AUCTION_ID,
    WATERFALL_MAX_LEVELS,
    SiteRecord,
    sample_latency,
)
from repro.hb.events import price_bucket
from repro.hb.waterfall import _DEFAULT_SLOT_SIZES
from repro.models import HBFacet, RequestDirection, WebRequest
from repro.utils.rng import (
    _activator,
    _key_entropy,
    _mul128_add,
    _output_doubles,
    _seed_states,
    _swr,
    fast_uniform,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.engine import CrawlShard, WorkerContext
    from repro.detector.detector import HBDetector

__all__ = ["simulate_shard_columnar"]


#: Responses without hb_* keys all extract to the same (never mutated) set.
_EMPTY_HB = HBParameterSet({}, {})


# ---------------------------------------------------------------------------
# Fused page simulators


#: Slot-size labels a non-HB page draws from, in draw-index order.
_WF_LABELS = tuple(size.label for size in _DEFAULT_SLOT_SIZES)


def _chain_popularity(entry: tuple) -> float:
    return entry[1]


def _simulate_waterfall_page(sim: SiteRecord, gen: np.random.Generator) -> float:
    """A non-HB page that serves waterfall ads; returns the load-event time.

    The RNG gate has already been consumed (vectorized); the generator is
    activated with the post-gate stream state.  Replicates, draw for draw,
    ``build_waterfall_chain`` + per-slot ``default_waterfall_slot`` /
    ``run_waterfall`` over the compiled samplers, without materialising the
    chain/slot/outcome objects nobody reads: waterfall traffic is invisible
    to the detector (the win notification is an outgoing request without
    hb_* keys), so only the clock contribution matters.
    """
    t = sim.html_fetch_ms
    n_slots = int(gen.integers(1, 4))
    n_levels = int(gen.integers(1, WATERFALL_MAX_LEVELS + 1))
    profiles, popularity, p_list, cdf_list, head_len = sim.wf_heads[n_levels - 1]
    chosen_idx = _swr(gen, p_list, cdf_list, min(n_levels, head_len))
    chain = [(profiles[i], popularity[i]) for i in chosen_idx]
    chain.sort(key=_chain_popularity, reverse=True)
    # Floors are drawn in priority order, after the popularity sort.
    chain = [(profile, fast_uniform(gen, 0.02, 0.12)) for profile, _ in chain]
    gen_random = gen.random
    gen_lognormal = gen.lognormal
    for _ in range(n_slots):
        label = _WF_LABELS[int(gen.integers(0, len(_WF_LABELS)))]
        total = 0.0
        won = False
        for (latency_flat, fill_probability, cpm_sigma, mu_by_label), floor_cpm in chain:
            # sample_latency, inlined with bound methods: this loop is the
            # single hottest stretch of the columnar path.
            mu, sigma, minimum, slow_probability, slow_multiplier = latency_flat
            value = float(gen_lognormal(mu, sigma))
            if slow_probability and gen_random() < slow_probability:
                value *= slow_multiplier
            total += value if value > minimum else minimum
            if gen_random() > fill_probability:
                continue
            drawn = float(gen_lognormal(mu_by_label[label], cpm_sigma))
            if round(max(drawn, 0.0001), 5) >= floor_cpm:
                won = True
                break
        if not won:
            total += fast_uniform(gen, 40.0, 120.0)
            fast_uniform(gen, 0.005, 0.02)  # backfill clearing price; unobserved
        t += total * 0.25
    for value in (5.0 + 35.0 * gen.random(sim.n_res)).tolist():
        t += value
    for value in (3.0 + 17.0 * gen.random(sim.n_scr)).tolist():
        t += value
    return float(t + sim.content_load_ms)


def _sample_internal(gen, rec) -> list:
    """``AuctionEnvironment.sample_internal_bidders`` over the flattened pool.

    Same RNG order (count draw, then the weighted choice); returns
    ``(bidder_code, partner_name, respond_flat)`` triples instead of
    ``DemandPartner`` objects, compiling (and caching) an entry the first
    time it is drawn.
    """
    low, high, entries, p_list, cdf_list, compile_entry = rec
    count = int(gen.integers(low, high + 1))
    if not entries:
        return []
    chosen = []
    for i in _swr(gen, p_list, cdf_list, min(count, len(entries))):
        entry = entries[i]
        if entry is None:
            entry = entries[i] = compile_entry(i)
        chosen.append(entry)
    return chosen


def _respond_draws(
    gen: np.random.Generator, respond: tuple, slot_index: int
) -> tuple[float, float | None]:
    """The draw sequence of ``AuctionEnvironment.partner_response`` for one
    compiled ``respond`` tuple, without the response object; returns
    ``(latency_ms, cpm)``."""
    latency_sampler, internal_sampler, bid_probability, cpm_sigma, cpm_mus = respond
    latency = sample_latency(gen, latency_sampler)
    if internal_sampler is not None:
        latency += sample_latency(gen, internal_sampler)
    cpm = None
    if gen.random() < bid_probability:
        drawn = float(gen.lognormal(cpm_mus[slot_index], cpm_sigma))
        cpm = round(max(drawn, 0.0001), 5)
    return latency, cpm


def _simulate_hb_page(
    sim: SiteRecord,
    gen: np.random.Generator,
    detector: "HBDetector",
    crawl_day: int,
) -> tuple[SiteDetection, float]:
    """One header-bidding page, fused: facet executor + inspectors in one pass.

    Replicates the reference executors' draw order, event order and
    timestamps exactly, but builds the detector's observation records
    directly.  Web requests are carried as light tuples
    ``(ts, direction, host, partner, params, url, carries_hb, is_win, hb)``
    where ``hb`` is the request's ``HBParameterSet``, built alongside the
    parameter dict instead of being re-parsed out of it; only the captured
    ad-server push materialises a real ``WebRequest`` (the detector keeps a
    reference to it).
    """
    facet = sim.facet
    lifecycle = sim.lifecycle
    codes = sim.slot_codes
    labels = sim.slot_labels
    slots_n = sim.n_slots
    events: list[tuple] = []
    if sim.page_event is not None:
        url, host, partner = sim.page_event
        events.append((0.0, 0, host, partner, {}, url, False, False, None))

    start = sim.html_fetch_ms
    dom = DomObservations()
    dom_bids: list[_ObservedDomBid] = []

    if facet is HBFacet.SERVER_SIDE:
        # One outgoing request, one hb-parameterised response per slot, then
        # render events (which are not HB proof: the DOM channel stays dark).
        events.append(
            (start, 0, sim.server_host, sim.server_partner, sim.server_params,
             sim.server_url, False, False, None)
        )
        round_trip = sample_latency(gen, sim.aggregator_latency)
        round_trip += sample_latency(gen, sim.aggregator_internal)
        internal_bidders = _sample_internal(gen, sim.internal_rec)
        response_time = start + round_trip
        winner_names: list[str | None] = []
        for slot_index in range(slots_n):
            best = None
            best_cpm = 0.0
            for bidder in internal_bidders:
                _, cpm = _respond_draws(gen, bidder[2], slot_index)
                if cpm is not None and (best is None or cpm > best_cpm):
                    best, best_cpm = bidder, cpm
            params: dict[str, str] = {"correlator": AUCTION_ID, "slot": codes[slot_index]}
            hbset = _EMPTY_HB
            if best is not None:
                hb_globals = {
                    "hb_bidder": best[0],
                    "hb_pb": price_bucket(best_cpm),
                    "hb_size": labels[slot_index],
                    "hb_source": "s2s",
                }
                params.update(hb_globals)
                hbset = HBParameterSet(hb_globals, {})
            events.append(
                (response_time, 1, sim.server_host, sim.server_partner, params,
                 sim.server_url, False, False, hbset)
            )
            winner_names.append(best[1] if best is not None else None)
        t = response_time
        for slot_index in range(slots_n):
            if not sim.slot_display[slot_index]:
                continue
            t += fast_uniform(gen, 20.0, 120.0)
            name = winner_names[slot_index]
            dom.rendered_slots[codes[slot_index]] = name if name else None
    else:
        # Client-side dispatch, shared by the client and hybrid facets.
        cursor = start
        replies = []
        for rec in sim.client_recs:
            cursor += (fast_uniform(gen, 15.0, 45.0) + sim.queue_bias) * sim.latency_scale
            events.append((cursor, 0, rec[3], rec[4], rec[5], rec[2], False, False, None))
            flat = rec[1]
            first_latency = None
            cpms = []
            for slot_index in range(slots_n):
                latency, cpm = _respond_draws(gen, flat, slot_index)
                cpms.append(cpm)
                if first_latency is None:
                    first_latency = latency
            replies.append((rec, cursor, cursor + (first_latency or 0.0), cpms))

        if sim.misconfigured:
            call = start + float(gen.uniform(100.0, 400.0))
        else:
            deadline = start + sim.timeout_ms
            slowest = start
            for reply in replies:
                if reply[2] > slowest:
                    slowest = reply[2]
            call = min(deadline, slowest) + float(gen.uniform(5.0, 25.0))

        on_time: list[dict[str, float]] = [dict() for _ in range(slots_n)]
        timed_out: list[str] = []
        for rec, dispatched, responded, cpms in replies:
            code = rec[0]
            response_params: dict[str, str] = {"bidder": code}
            reply_slots: dict[str, dict[str, str]] = {}
            for slot_index, cpm in enumerate(cpms):
                if cpm is None:
                    continue
                slot_code = codes[slot_index]
                cpm_text = f"{cpm:.5f}"
                response_params[f"hb_cpm_{slot_code}"] = cpm_text
                response_params[f"hb_size_{slot_code}"] = labels[slot_index]
                reply_slots[slot_code] = {"hb_cpm": cpm_text, "hb_size": labels[slot_index]}
            hbset = (
                HBParameterSet({}, reply_slots)
                if reply_slots else _EMPTY_HB
            )
            events.append(
                (responded, 1, rec[3], rec[4], response_params, rec[2], False, False, hbset)
            )
            if responded > call:
                timed_out.append(code)
                continue
            time_to_respond = float(round(responded - dispatched, 1))
            for slot_index, cpm in enumerate(cpms):
                if cpm is None:
                    continue
                on_time[slot_index][code] = cpm
                if lifecycle:
                    dom_bids.append(_ObservedDomBid(
                        code, codes[slot_index], float(round(cpm, 5)), labels[slot_index],
                        time_to_respond, False, start,
                    ))

        push_params: dict[str, str] = {"auction_id": AUCTION_ID, "slots": str(slots_n)}
        push_slots: dict[str, dict[str, str]] = {}
        any_filled = False
        for slot_index in range(slots_n):
            bids = on_time[slot_index]
            if not bids:
                continue
            any_filled = True
            best_code = None
            best_cpm = None
            for code, cpm in bids.items():
                if best_cpm is None or cpm > best_cpm:
                    best_code, best_cpm = code, cpm
            slot_code = codes[slot_index]
            bucket = price_bucket(best_cpm)
            push_params[f"hb_bidder_{slot_code}"] = best_code
            push_params[f"hb_pb_{slot_code}"] = bucket
            push_params[f"hb_size_{slot_code}"] = labels[slot_index]
            push_slots[slot_code] = {
                "hb_bidder": best_code, "hb_pb": bucket, "hb_size": labels[slot_index],
            }
        events.append(
            (call, 0, sim.push_host, sim.push_partner, push_params, sim.push_url,
             any_filled, False, HBParameterSet({}, push_slots))
        )
        base_response = call + sample_latency(gen, sim.ad_server_latency)
        events.append(
            (base_response, 1, sim.push_host, sim.push_partner,
             {"auction_id": AUCTION_ID, "status": "filled"}, sim.push_url, False, False,
             _EMPTY_HB)
        )

        dom.hb_events_seen = True
        dom.library = sim.library
        dom.auction_ended_at_ms = call
        if lifecycle:
            dom.auction_ids.append(AUCTION_ID)
            dom.auction_started_at_ms = start
            if timed_out:
                dom.timed_out_bidders = timed_out
        else:
            # The non-lifecycle wrappers still fire auctionEnd; the inspector
            # back-derives the start from its rounded duration payload.
            dom.auction_started_at_ms = call - round(call - start, 1)

        if facet is HBFacet.CLIENT_SIDE:
            winners: list[tuple[str | None, float]] = []
            for slot_index in range(slots_n):
                best_code = None
                best_cpm = None
                for code, cpm in on_time[slot_index].items():
                    if best_cpm is None or cpm > best_cpm:
                        best_code, best_cpm = code, cpm
                if best_code is None or best_cpm < sim.slot_floors[slot_index]:
                    winners.append((None, 0.0))
                else:
                    winners.append((best_code, best_cpm))
            t = base_response
            for slot_index in range(slots_n):
                if not sim.slot_display[slot_index]:
                    continue
                t += fast_uniform(gen, 30.0, 150.0)
                winner_code, cpm = winners[slot_index]
                if winner_code is not None and gen.random() < 0.985:
                    dom_bids.append(_ObservedDomBid(
                        winner_code, codes[slot_index], float(round(cpm, 5)), labels[slot_index],
                        None, True, t,
                    ))
                    dom.rendered_slots[codes[slot_index]] = winner_code
                    # The win notification is an outgoing request to an
                    # already-contacted partner host: invisible to detection.
                elif winner_code is not None:
                    dom.failed_slots.append(codes[slot_index])
                else:
                    dom.rendered_slots[codes[slot_index]] = None
        else:  # HYBRID
            ad_response = base_response + sample_latency(gen, sim.hybrid_delay)
            internal_bidders = _sample_internal(gen, sim.internal_rec)
            winners_by_code: dict[str, tuple[str | None, float]] = {}
            names_by_code: dict[str, str | None] = {}
            for slot_index in range(slots_n):
                best_client_code = None
                best_client_cpm = 0.0
                for code, cpm in on_time[slot_index].items():
                    if cpm > best_client_cpm:
                        best_client_code, best_client_cpm = code, cpm
                best_internal = None
                best_internal_cpm = 0.0
                for bidder in internal_bidders:
                    _, cpm = _respond_draws(gen, bidder[2], slot_index)
                    if cpm is not None and (best_internal is None or cpm > best_internal_cpm):
                        best_internal, best_internal_cpm = bidder, cpm
                winner_name = None
                winner_code = None
                clearing = 0.0
                if best_client_code is not None and (
                    best_internal is None or best_client_cpm >= best_internal_cpm
                ):
                    winner_code = best_client_code
                    winner_name = sim.client_names[best_client_code]
                    clearing = best_client_cpm
                elif best_internal is not None:
                    winner_name = best_internal[1]
                    winner_code = best_internal[0]
                    clearing = best_internal_cpm
                params = {"correlator": AUCTION_ID, "slot": codes[slot_index]}
                hbset = _EMPTY_HB
                if winner_code is not None:
                    hb_globals = {
                        "hb_bidder": winner_code,
                        "hb_pb": price_bucket(clearing),
                        "hb_size": labels[slot_index],
                        "hb_source": "hybrid",
                    }
                    params.update(hb_globals)
                    hbset = HBParameterSet(hb_globals, {})
                events.append(
                    (ad_response, 1, sim.render_host, sim.render_partner, params,
                     sim.render_url, False, False, hbset)
                )
                winners_by_code[codes[slot_index]] = (winner_code, clearing)
                names_by_code[codes[slot_index]] = winner_name
            client_map = {
                code: value
                for code, value in winners_by_code.items()
                if value[0] in sim.client_code_set
            }
            t = ad_response
            for slot_index in range(slots_n):
                if not sim.slot_display[slot_index]:
                    continue
                t += fast_uniform(gen, 30.0, 150.0)
                winner_code, cpm = client_map.get(codes[slot_index], (None, 0.0))
                if winner_code is not None and gen.random() < 0.985:
                    dom_bids.append(_ObservedDomBid(
                        winner_code, codes[slot_index], float(round(cpm, 5)), labels[slot_index],
                        None, True, t,
                    ))
                    dom.rendered_slots[codes[slot_index]] = winner_code
                elif winner_code is not None:
                    dom.failed_slots.append(codes[slot_index])
                else:
                    dom.rendered_slots[codes[slot_index]] = None
            for slot_index in range(slots_n):
                code = codes[slot_index]
                if sim.slot_display[slot_index] and code not in client_map:
                    t += fast_uniform(gen, 20.0, 100.0)
                    name = names_by_code[code]
                    dom.rendered_slots[code] = name if name else None

    dom.bids = dom_bids

    # Baseline resources and header scripts: outgoing-only traffic after the
    # last response of the page; cannot affect detection, only the clock.
    # Fixed counts, so one batched draw replaces the per-dwell scalar calls
    # (elementwise scaling and sequential adds keep the floats bit-exact).
    for value in (5.0 + 35.0 * gen.random(sim.n_res)).tolist():
        t += value
    for value in (3.0 + 17.0 * gen.random(sim.n_scr)).tolist():
        t += value
    t += sim.content_load_ms
    load_event = float(t)

    # Replicated WebRequestInspector over the light event tuples, in the
    # reference's (timestamp, direction) stable order.
    events.sort(key=_event_key)
    web = WebRequestObservations()
    pending: dict[str, tuple[str, float, dict]] = {}
    push_host: str | None = None
    push_ts = 0.0
    for ts, direction, host, partner, params, url, carries_hb, is_win, hb_params in events:
        if direction == 0:
            if carries_hb and not is_win and web.ad_server_push is None:
                web.ad_server_push = WebRequest(
                    url=url,
                    method="GET",
                    direction=RequestDirection.OUTGOING,
                    timestamp_ms=ts,
                    initiator=sim.page_url,
                    params=params,
                )
                web.ad_server_push_params = hb_params
                web.ad_server_is_known_partner = partner is not None
                web.ad_server_partner = partner
                push_host = host
                push_ts = ts
                continue
            if partner is None:
                continue
            if web.first_partner_request_at_ms is None:
                web.first_partner_request_at_ms = ts
            if host not in pending:
                pending[host] = (partner, ts, params)
        else:
            if (
                push_host is not None
                and host == push_host
                and ts >= push_ts
                and web.ad_server_response_at_ms is None
            ):
                web.ad_server_response_at_ms = ts
            if partner is None:
                continue
            if not hb_params.is_empty:
                web.hb_responses.append((partner, ts, hb_params))
            outgoing = pending.pop(host, None)
            if outgoing is not None:
                web.exchanges.append(PartnerExchange(
                    outgoing[0], host, outgoing[1], ts, dict(outgoing[2]), dict(params), hb_params,
                ))
            else:
                web.exchanges.append(PartnerExchange(
                    partner, host, None, ts, {}, dict(params), hb_params,
                ))

    detection = detector.detect_from_observations(
        domain=sim.domain,
        rank=sim.rank,
        dom=dom,
        web=web,
        crawl_day=crawl_day,
        page_load_ms=load_event,
    )
    return detection, load_event


def _event_key(event: tuple) -> tuple[float, int]:
    return (event[0], event[1])


# ---------------------------------------------------------------------------
# Shard entry point


def simulate_shard_columnar(
    context: "WorkerContext",
    crawl_day: int,
    on_detection: "Callable[[SiteDetection], None] | None",
    shard: "CrawlShard",
) -> CrawlResult:
    """Simulate one shard columnar-batch style; byte-identical to the reference loop.

    Seeds every page's stream in one vectorized pass, draws all plain-page
    dwell times as shard-wide array operations, and runs ad pages through the
    fused scalar simulators on a single reusable generator.  Session
    bookkeeping (``sessions_started``, restarts, timeout kills) replicates
    the reference loop's counters exactly.
    """
    config = context.config
    detector = context.detector
    detector.reset()
    result = CrawlResult()
    publishers = shard.publishers
    n = len(publishers)
    if n == 0:
        return result

    sims = context.profiles.precompile(publishers)

    state_hi, state_lo, inc_hi, inc_lo = _seed_states(
        config.seed, _key_entropy([("visit", p.domain, crawl_day) for p in publishers])
    )
    # Every page's first draw: the waterfall gate for non-HB pages.
    hi1, lo1 = _mul128_add(state_hi, state_lo, inc_hi, inc_lo)
    first_draw = _output_doubles(hi1, lo1)

    gate_probability = NON_HB_AD_PROBABILITY
    timeout_ms = config.page_load_timeout_ms

    html = np.empty(n)
    content = np.empty(n)
    n_res = np.empty(n, dtype=np.int64)
    n_scr = np.empty(n, dtype=np.int64)
    uses_hb = np.empty(n, dtype=bool)
    for i, sim in enumerate(sims):
        html[i] = sim.html_fetch_ms
        content[i] = sim.content_load_ms
        n_res[i] = sim.n_res
        n_scr[i] = sim.n_scr
        uses_hb[i] = sim.uses_hb

    # Plain pages (no HB, gate declined the waterfall) consume a fixed
    # number of uniforms: step every stream in lockstep, masking lanes that
    # have already finished.  The masked adds replicate the reference
    # clock's sequential float accumulation exactly.
    plain = (~uses_hb) & (first_draw > gate_probability)
    load_plain = None
    if plain.any():
        totals = n_res + n_scr
        t_arr = html.copy()
        cur_hi, cur_lo = hi1, lo1
        for k in range(int(totals[plain].max())):
            cur_hi, cur_lo = _mul128_add(cur_hi, cur_lo, inc_hi, inc_lo)
            u = _output_doubles(cur_hi, cur_lo)
            value = np.where(k < n_res, 5.0 + 35.0 * u, 3.0 + 17.0 * u)
            t_arr = np.where(plain & (k < totals), t_arr + value, t_arr)
        load_plain = t_arr + content

    # One reusable generator, re-activated per ad page with the precomputed
    # stream state (initial state for HB pages, post-gate for waterfall).
    activate = _activator()

    # Bulk-convert the state arrays to Python ints once; per-page
    # ``int(arr[i])`` item getters dominate the loop otherwise.
    state_hi_l = state_hi.tolist()
    state_lo_l = state_lo.tolist()
    inc_hi_l = inc_hi.tolist()
    inc_lo_l = inc_lo.tolist()
    hi1_l = hi1.tolist()
    lo1_l = lo1.tolist()
    plain_l = plain.tolist()
    load_plain_l = load_plain.tolist() if load_plain is not None else None

    restart_every = config.restart_every_pages
    session_alive = False
    pages_in_session = 0
    detections = result.detections
    for i in range(n):
        sim = sims[i]
        if not session_alive:
            session_alive = True
            pages_in_session = 0
            result.sessions_started += 1
        result.pages_visited += 1
        pages_in_session += 1
        if sim.uses_hb:
            gen = activate(state_hi_l[i], state_lo_l[i], inc_hi_l[i], inc_lo_l[i])
            detection, load_event = _simulate_hb_page(sim, gen, detector, crawl_day)
        else:
            if plain_l[i]:
                load_event = load_plain_l[i]
            else:
                gen = activate(hi1_l[i], lo1_l[i], inc_hi_l[i], inc_lo_l[i])
                load_event = _simulate_waterfall_page(sim, gen)
            # Positional, in SiteDetection's field order: no facet, library,
            # partners, auctions, latencies or channels on a non-HB page.
            detection = SiteDetection(
                sim.domain, sim.rank, False, None, None, (), (), {}, None, (),
                crawl_day, load_event,
            )
        if load_event > timeout_ms:
            result.timed_out_domains.append(sim.domain)
            session_alive = False
        detections.append(detection)
        if on_detection is not None:
            on_detection(detection)
        if session_alive and pages_in_session >= restart_every:
            session_alive = False
    return result
